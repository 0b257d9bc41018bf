"""Tests for the sweep daemon: the wire protocol, the deduplicating
async scheduler (with a scripted fake pool), the daemon end-to-end over
its Unix socket and HTTP front, and the CLI's transparent fallback to
the embedded engine."""

import asyncio
import json
import socket as socketlib
import threading
import urllib.error
import urllib.request
from collections import Counter
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.cli import main
from repro.engine import ResultStore, RunJournal, SimJob, job_to_transport
from repro.engine.scheduler import Scheduler
from repro.service import (ServiceClient, ServiceDaemon, ServiceError,
                           ServiceUnavailable, connect_or_none)
from repro.service import protocol

#: Small fast job: ~6k instructions, well under a second.
JOB = SimJob(workload="gap.bfs", technique="conv", scale="tiny",
             max_instructions=6000)
JOB2 = SimJob(workload="gap.bfs", technique="nowp", scale="tiny",
              max_instructions=6000)
JOB3 = SimJob(workload="gap.pr", technique="nowp", scale="tiny",
              max_instructions=6000)

#: A result payload the scripted pool hands back.  It is a real one: a
#: stored payload the job's kind cannot read back is a store miss.
PAYLOAD = SimJob(workload="gap.bfs", technique="nowp", scale="tiny",
                 max_instructions=200).run().to_dict()


def _stats_without_wall(payload):
    data = dict(payload)
    data.pop("wall_seconds", None)
    return data


class TestProtocol:
    def test_round_trip(self):
        message = {"op": "ping", "id": 3, "nested": {"a": [1, 2]}}
        assert protocol.decode(protocol.encode(message)) == message

    def test_encode_is_one_line(self):
        line = protocol.encode({"op": "ping"})
        assert line.endswith(b"\n") and line.count(b"\n") == 1

    @pytest.mark.parametrize("junk", [b"not json\n", b"[1, 2]\n", b"3\n"])
    def test_decode_rejects_junk(self, junk):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(junk)

    def test_decode_rejects_oversize(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 16)
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b'{"op": "a very long message"}\n')

    @pytest.mark.parametrize("bad", [
        {"op": "warp"},
        {"op": "ping", "id": 1.5},
        {"op": "submit", "jobs": []},
        {"op": "submit", "jobs": "nope"},
        {"op": "submit", "jobs": [{"kind": 1, "job": {}}]},
        {"op": "submit", "jobs": [{"kind": "sim"}]},
        {"op": "submit", "jobs": [{"kind": "sim", "job": {}}],
         "fresh": "yes"},
        {"op": "cache", "action": "defrag"},
        {"op": "cache", "action": "gc"},
        {"op": "cache", "action": "gc", "max_bytes": "all"},
    ])
    def test_validate_rejects(self, bad):
        with pytest.raises(protocol.ProtocolError):
            protocol.validate_request(bad)

    def test_validate_accepts_submit(self):
        message = {"op": "submit", "id": 1,
                   "jobs": [job_to_transport(JOB)],
                   "fresh": False, "store": True}
        assert protocol.validate_request(message) is message

    def test_error_event_id_passthrough(self):
        assert protocol.error_event(7, "boom")["id"] == 7
        assert "id" not in protocol.error_event(None, "boom")


# -- scheduler with a scripted pool ------------------------------------------------


class ScriptedPool:
    """A 'pool' that plays back its scheduler's script, one behaviour
    per submit — no real worker processes involved.  Shutting it down
    cancels every future it handed out, as
    ``shutdown(cancel_futures=True)`` does: queued ones are cancelled,
    finished and running ones are not."""

    def __init__(self, sched):
        self.sched = sched
        self.handed_out = []

    def submit(self, fn, payload):
        self.sched.calls += 1
        future = self.sched.script.pop(0)(payload)
        self.handed_out.append(future)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        for future in self.handed_out:
            future.cancel()


class ScriptedScheduler(Scheduler):
    """Scheduler whose pools are :class:`ScriptedPool` s sharing one
    script.  Four workers unless the test says otherwise, so the tests
    do not depend on the host's CPU count."""

    def __init__(self, script, **kwargs):
        kwargs.setdefault("workers", 4)
        super().__init__(**kwargs)
        self.script = list(script)
        self.calls = 0

    def _make_pool(self):
        return ScriptedPool(self)


def ok_after(payload, delay=0.0):
    """Behaviour: resolve with ``payload`` after ``delay`` seconds."""
    def behave(job):
        future = Future()
        if delay:
            asyncio.get_running_loop().call_later(
                delay, future.set_result, payload)
        else:
            future.set_result(payload)
        return future
    return behave


def broken(job):
    """Behaviour: the worker died mid-attempt."""
    future = Future()
    future.set_exception(BrokenProcessPool("worker died"))
    return future


def stuck(job):
    """Behaviour: never resolves and cannot be cancelled (a running
    worker holding its slot)."""
    future = Future()
    future.set_running_or_notify_cancel()
    return future


def pending(job):
    """Behaviour: never resolves but still cancellable (queued)."""
    return Future()


class TestScheduler:
    def test_concurrent_twins_share_one_execution(self):
        async def go():
            sched = ScriptedScheduler([ok_after(PAYLOAD, delay=0.02)])
            first = asyncio.ensure_future(sched.submit(JOB))
            second = asyncio.ensure_future(sched.submit(JOB))
            return sched, await first, await second
        sched, a, b = asyncio.run(go())
        assert sched.calls == 1
        assert a["status"] == "ok" and b["status"] == "shared"
        assert a["result"] == b["result"] == PAYLOAD
        assert sched.counters["shared"] == 1

    def test_distinct_keys_do_not_share(self):
        async def go():
            sched = ScriptedScheduler([ok_after(PAYLOAD)] * 2)
            return sched, await asyncio.gather(sched.submit(JOB),
                                               sched.submit(JOB2))
        sched, outs = asyncio.run(go())
        assert sched.calls == 2
        assert [o["status"] for o in outs] == ["ok", "ok"]

    def test_store_hit_short_circuits_pool(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put_payload(JOB, PAYLOAD)
        async def go():
            sched = ScriptedScheduler([], store=store)
            return sched, await sched.submit(JOB)
        sched, out = asyncio.run(go())
        assert sched.calls == 0
        assert out["status"] == "hit" and out["cached"]
        assert out["result"] == PAYLOAD

    def test_fresh_bypasses_store_and_rewrites(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put_payload(JOB, {"ipc": 0.0, "wall_seconds": 0.0})
        async def go():
            sched = ScriptedScheduler([ok_after(PAYLOAD)], store=store)
            return sched, await sched.submit(JOB, fresh=True)
        sched, out = asyncio.run(go())
        assert sched.calls == 1 and out["status"] == "ok"
        assert store.get_payload(JOB) == PAYLOAD

    def test_fuzz_cases_bypass_the_store(self, tmp_path):
        # use_store=True still leaves kinds without spec() uncached.
        from repro.fuzz import make_case
        from repro.fuzz.oracle import FuzzCaseJob
        store = ResultStore(str(tmp_path))
        job = FuzzCaseJob(make_case(1, 0))
        async def go():
            sched = ScriptedScheduler([ok_after(PAYLOAD)] * 2, store=store)
            first = await sched.submit(job, use_store=True)
            second = await sched.submit(job, use_store=True)
            return sched, first, second
        sched, first, second = asyncio.run(go())
        assert sched.calls == 2
        assert first["status"] == "ok" and second["status"] == "ok"
        assert len(store) == 0

    def test_broken_pool_is_replaced_and_retried(self, tmp_path):
        journal = RunJournal(str(tmp_path / "j.jsonl"))
        async def go():
            sched = ScriptedScheduler([broken, ok_after(PAYLOAD)],
                                      journal=journal, retries=1)
            return sched, await sched.submit(JOB)
        sched, out = asyncio.run(go())
        assert out["status"] == "ok" and out["attempts"] == 2
        assert sched.counters["pool_replacements"] == 1

    def test_replacement_requeues_another_jobs_queued_attempt(self):
        # JOB's worker dies, and replacing the pool cancels JOB2's
        # attempt, still queued in it.  That attempt never ran: it goes
        # to the new pool as the same attempt, and JOB2's submit returns
        # an outcome instead of raising CancelledError.
        async def go():
            sched = ScriptedScheduler([broken, pending, ok_after(PAYLOAD),
                                       ok_after(PAYLOAD)], retries=1)
            outs = await asyncio.gather(sched.submit(JOB),
                                        sched.submit(JOB2))
            return sched, outs
        sched, (first, second) = asyncio.run(go())
        assert first["status"] == "ok" and first["attempts"] == 2
        assert second["status"] == "ok" and second["attempts"] == 1
        assert second["result"] == PAYLOAD
        assert sched.calls == 4
        assert sched.counters["pool_replacements"] == 1

    def test_budget_exhaustion_fails_the_job(self):
        async def go():
            sched = ScriptedScheduler([broken, broken], retries=1)
            return await sched.submit(JOB)
        out = asyncio.run(go())
        assert out["status"] == "failed" and out["attempts"] == 2
        assert "BrokenProcessPool" in out["error"]
        assert out["result"] is None

    def test_worker_exception_is_an_outcome(self):
        def exploding(job):
            future = Future()
            future.set_exception(ValueError("bad config"))
            return future
        async def go():
            sched = ScriptedScheduler([exploding], retries=0)
            return await sched.submit(JOB)
        out = asyncio.run(go())
        assert out["status"] == "failed"
        assert "ValueError" in out["error"]

    def test_stuck_worker_is_abandoned_then_retried(self, tmp_path):
        journal = RunJournal(str(tmp_path / "j.jsonl"))
        async def go():
            sched = ScriptedScheduler([stuck, ok_after(PAYLOAD)],
                                      journal=journal,
                                      timeout=0.05, retries=1)
            return sched, await sched.submit(JOB)
        sched, out = asyncio.run(go())
        assert out["status"] == "ok" and out["attempts"] == 2
        assert len(out["abandoned"]) == 1
        assert sched.counters["abandoned"] == 1
        assert sched.counters["pool_replacements"] == 1
        statuses = [e["status"] for e in journal.entries()]
        assert statuses == ["abandoned", "ok"]

    def test_cancellable_timeout_retries_without_abandoning(self):
        async def go():
            sched = ScriptedScheduler([pending, ok_after(PAYLOAD)],
                                      timeout=0.05, retries=1)
            return sched, await sched.submit(JOB)
        sched, out = asyncio.run(go())
        assert out["status"] == "ok" and out["attempts"] == 2
        assert out["abandoned"] == []
        assert sched.counters["pool_replacements"] == 0

    def test_journal_write_stays_off_the_event_loop(self, tmp_path):
        # Regression for the SC007 fix: journal appends go through
        # asyncio.to_thread, so a slow disk write stalls the one
        # submission, never the loop.
        journal = RunJournal(str(tmp_path / "j.jsonl"))
        release = threading.Event()
        original = journal.record

        def slow_record(**kwargs):
            release.wait(timeout=10)
            return original(**kwargs)

        journal.record = slow_record

        async def go():
            sched = ScriptedScheduler([ok_after(PAYLOAD)],
                                      journal=journal)
            task = asyncio.ensure_future(sched.submit(JOB))
            # While the write sits blocked in its worker thread, the
            # loop must keep turning and the submit must still be
            # pending on it.
            for _ in range(5):
                await asyncio.sleep(0.01)
            assert not task.done()
            release.set()
            return await task

        out = asyncio.run(go())
        assert out["status"] == "ok"
        assert [e["status"] for e in journal.entries()] == ["ok"]

    def test_journal_vocabulary(self, tmp_path):
        store = ResultStore(str(tmp_path))
        journal = RunJournal(store.journal_path)
        async def go():
            sched = ScriptedScheduler([ok_after(PAYLOAD, delay=0.02)],
                                      store=store, journal=journal)
            first = asyncio.ensure_future(sched.submit(JOB))
            second = asyncio.ensure_future(sched.submit(JOB))
            await asyncio.gather(first, second)
            await sched.submit(JOB)     # store hit now
        asyncio.run(go())
        statuses = Counter(e["status"] for e in journal.entries())
        assert statuses == {"ok": 1, "shared": 1, "hit": 1}

    def test_dead_pool_is_replaced_once(self):
        # Three attempts die with one pool: it is replaced once, not
        # once per attempt (each later replacement would shut down the
        # pool the first one just made).
        async def go():
            sched = ScriptedScheduler([broken] * 3 + [ok_after(PAYLOAD)] * 3,
                                      retries=1)
            outs = await asyncio.gather(sched.submit(JOB),
                                        sched.submit(JOB2),
                                        sched.submit(JOB3))
            return sched, outs
        sched, outs = asyncio.run(go())
        assert [o["status"] for o in outs] == ["ok"] * 3
        assert [o["attempts"] for o in outs] == [2] * 3
        assert sched.counters["pool_replacements"] == 1

    def test_unreadable_stored_payload_is_a_miss(self, tmp_path):
        # A blob under the job's key whose payload the job's kind cannot
        # read back is re-simulated, as the engine does, rather than
        # served as a hit the client then fails to load.
        store = ResultStore(str(tmp_path))
        store.put_payload(JOB, {"schema": 999})
        async def go():
            sched = ScriptedScheduler([ok_after(PAYLOAD)], store=store)
            return await sched.submit(JOB)
        out = asyncio.run(go())
        assert out["status"] == "ok"
        assert store.get_payload(JOB) == PAYLOAD

    def test_key_hashed_once_per_submission(self, tmp_path, monkeypatch):
        # A key costs about 150 us to hash: submit reads job.key once and
        # passes it on, so an executed job costs three hashes (with the
        # store's lookup and write) and a hit two.
        import repro.engine.job as job_module
        calls = []
        content_key = job_module.content_key

        def counting(spec):
            calls.append(spec)
            return content_key(spec)

        monkeypatch.setattr(job_module, "content_key", counting)
        store = ResultStore(str(tmp_path))
        async def go():
            sched = ScriptedScheduler([ok_after(PAYLOAD)], store=store)
            first = await sched.submit(JOB)
            executed = len(calls)
            second = await sched.submit(JOB)
            return first, second, executed
        first, second, executed = asyncio.run(go())
        assert (first["status"], second["status"]) == ("ok", "hit")
        assert executed <= 3
        assert len(calls) - executed <= 2


# -- live daemon over a Unix socket ------------------------------------------------


@pytest.fixture
def daemon(tmp_path):
    store = ResultStore(str(tmp_path / "cache"))
    d = ServiceDaemon(str(tmp_path / "d.sock"), store=store, workers=2)
    thread = d.start_in_thread()
    yield d
    d.request_stop()
    thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.fixture(scope="module")
def live_result():
    """The embedded-path reference result for JOB."""
    return JOB.run()


def _predict_job():
    """A predict batch over a ridge model fit to three made-up
    labels (no simulation needed)."""
    from repro.analysis.surrogate import (LabeledPoint, PredictJob,
                                          SurrogateModel)
    jobs = [SimJob(workload="gap.bfs", technique=technique, scale="tiny",
                   max_instructions=6000)
            for technique in ("nowp", "conv", "wpemul")]
    points = [LabeledPoint(key=job.key, job_dict=job.to_dict(),
                           ipc=1.0 + 0.1 * i)
              for i, job in enumerate(jobs)]
    model = SurrogateModel.train(points, seed=0, kind="ridge")
    return PredictJob.for_jobs(model, jobs)


class TestDaemon:
    def test_ping_and_status(self, daemon):
        with ServiceClient(daemon.socket_path) as client:
            assert client.ping()["version"] == protocol.PROTOCOL_VERSION
            stats = client.status()
            assert stats["counters"]["submitted"] == 0
            assert stats["socket"] == daemon.socket_path

    def test_submit_executes_then_hits(self, daemon, live_result):
        with ServiceClient(daemon.socket_path) as client:
            first = client.run_one(JOB)
            second = client.run_one(JOB)
        assert first.status == "ok" and not first.cached
        assert second.status == "hit" and second.cached
        # Daemon-path results are digest-identical to the embedded path.
        assert _stats_without_wall(first.result.to_dict()) == \
            _stats_without_wall(live_result.to_dict())
        assert second.result.to_dict() == first.result.to_dict()

    def test_two_concurrent_clients_one_execution(self, daemon):
        jobs = [JOB, JOB2]
        results = {}
        def worker(name):
            with ServiceClient(daemon.socket_path) as client:
                results[name] = client.run(jobs)
        threads = [threading.Thread(target=worker, args=(n,))
                   for n in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        # Both clients got full, identical result sets...
        assert set(results) == {"a", "b"}
        for name in results:
            assert [o.ok for o in results[name]] == [True, True]
        for a, b in zip(results["a"], results["b"]):
            assert a.result.to_dict() == b.result.to_dict()
        # A shared outcome counts as simulated in the CLI summary.
        from repro.engine import ExperimentEngine
        summary = ExperimentEngine.summarize(results["a"] + results["b"])
        assert summary["failed"] == 0
        assert summary["hits"] + summary["simulated"] == 4
        # ...and the journal proves each key executed exactly once.
        journal = RunJournal(daemon.scheduler.store.journal_path)
        executed = Counter(e["key"] for e in journal.entries()
                           if e["status"] == "ok")
        assert executed == {JOB.key: 1, JOB2.key: 1}

    def test_killed_worker_survives_without_dropping_client(self,
                                                            tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        d = ServiceDaemon(str(tmp_path / "k.sock"), store=store,
                          workers=1)
        original = d.scheduler._submit_to_pool
        state = {"killed": False}
        def flaky(job):
            if not state["killed"]:
                state["killed"] = True
                future = Future()
                future.set_exception(BrokenProcessPool("worker killed"))
                return future
            return original(job)
        d.scheduler._submit_to_pool = flaky
        thread = d.start_in_thread()
        try:
            with ServiceClient(d.socket_path) as client:
                outcome = client.run_one(JOB)
                assert outcome.status == "ok"
                assert outcome.attempts == 2
                # Same connection keeps working after the pool death.
                assert client.run_one(JOB).status == "hit"
            assert d.scheduler.counters["pool_replacements"] == 1
        finally:
            d.request_stop()
            thread.join(timeout=10)

    def test_bad_job_spec_is_an_error_event_not_a_disconnect(self,
                                                             daemon):
        with ServiceClient(daemon.socket_path) as client:
            request = client._request(
                {"op": "submit", "jobs": [{"kind": "warp", "job": {}}],
                 "fresh": False, "store": True})
            with pytest.raises(ServiceError, match="bad job spec"):
                next(request)
            # The connection survives the bad request.
            assert client.ping()["event"] == "pong"

    def test_unknown_op_is_an_error_event(self, daemon):
        with ServiceClient(daemon.socket_path) as client:
            with pytest.raises(ServiceError, match="unknown op"):
                client._one({"op": "defrag"})

    def test_cache_ops_over_the_wire(self, daemon):
        with ServiceClient(daemon.socket_path) as client:
            client.run_one(JOB)
            assert client.cache_stats()["entries"] == 1
            # The store has one layout, so there is nothing to migrate.
            with pytest.raises(ServiceError,
                               match="unknown cache action 'migrate'"):
                client._one({"op": "cache", "action": "migrate"})
            summary = client.cache_gc(0)
            assert summary["evicted"] == 1 and summary["kept"] == 0

    def test_predict_batch_hits_on_repeat(self, daemon):
        # The daemon caches every kind with spec(), as the embedded
        # engine does; predict batches included.
        job = _predict_job()
        with ServiceClient(daemon.socket_path) as client:
            first = client.run_one(job)
            second = client.run_one(job)
        assert first.status == "ok" and not first.cached
        assert second.status == "hit" and second.cached
        assert second.result.to_dict() == first.result.to_dict()

    def test_subscriber_streams_journal_records(self, daemon):
        sub = ServiceClient(daemon.socket_path, io_timeout=30.0)
        try:
            assert sub._one({"op": "subscribe"})["event"] == "subscribed"
            with ServiceClient(daemon.socket_path) as other:
                other.run_one(JOB)
            while True:
                event = sub._recv()
                if event.get("event") == "journal":
                    break
            assert event["record"]["key"] == JOB.key
            assert event["record"]["status"] == "ok"
        finally:
            sub.close()

    def test_shutdown_op_stops_daemon(self, tmp_path):
        d = ServiceDaemon(str(tmp_path / "s.sock"), store=None)
        thread = d.start_in_thread()
        ServiceClient(d.socket_path).shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert not (tmp_path / "s.sock").exists()

    def test_storeless_daemon_rejects_cache_ops(self, tmp_path):
        d = ServiceDaemon(str(tmp_path / "n.sock"), store=None)
        thread = d.start_in_thread()
        try:
            with ServiceClient(d.socket_path) as client:
                with pytest.raises(ServiceError, match="storeless"):
                    client.cache_stats()
        finally:
            d.request_stop()
            thread.join(timeout=10)

    def test_live_socket_refuses_second_daemon(self, daemon, tmp_path):
        rival = ServiceDaemon(daemon.socket_path, store=None)
        with pytest.raises(RuntimeError, match="already listening"):
            rival.start_in_thread()

    def test_stale_socket_file_is_reclaimed(self, tmp_path):
        path = str(tmp_path / "stale.sock")
        leftover = socketlib.socket(socketlib.AF_UNIX,
                                    socketlib.SOCK_STREAM)
        leftover.bind(path)
        leftover.close()        # file remains, nobody listens
        d = ServiceDaemon(path, store=None)
        thread = d.start_in_thread()
        try:
            with ServiceClient(path) as client:
                assert client.ping()["event"] == "pong"
        finally:
            d.request_stop()
            thread.join(timeout=10)


class TestHTTPFront:
    @pytest.fixture
    def http_daemon(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        d = ServiceDaemon(str(tmp_path / "h.sock"), store=store,
                          workers=2, http_port=0)
        thread = d.start_in_thread()
        yield d
        d.request_stop()
        thread.join(timeout=10)

    def _get(self, daemon, path):
        url = f"http://127.0.0.1:{daemon.http_bound}{path}"
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, json.loads(response.read())

    def test_healthz(self, http_daemon):
        status, body = self._get(http_daemon, "/healthz")
        assert status == 200
        assert body == {"ok": True,
                        "version": protocol.PROTOCOL_VERSION}

    def test_status(self, http_daemon):
        status, body = self._get(http_daemon, "/status")
        assert status == 200
        assert body["socket"] == http_daemon.socket_path

    def test_submit(self, http_daemon):
        url = f"http://127.0.0.1:{http_daemon.http_bound}/submit"
        payload = json.dumps(
            {"jobs": [job_to_transport(JOB)]}).encode()
        request = urllib.request.Request(
            url, data=payload, method="POST",
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=60) as response:
            body = json.loads(response.read())
        assert body["jobs"][0]["status"] == "ok"
        assert body["jobs"][0]["result"]["stats"]["instructions"] > 0

    def test_unknown_endpoint_is_404(self, http_daemon):
        url = f"http://127.0.0.1:{http_daemon.http_bound}/nope"
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(url, timeout=30)
        assert err.value.code == 404

    def _post(self, daemon, path, payload, headers=None):
        url = f"http://127.0.0.1:{daemon.http_bound}{path}"
        request = urllib.request.Request(
            url, data=payload, method="POST",
            headers=headers or {"Content-Type": "application/json"})
        return urllib.request.urlopen(request, timeout=30)

    @pytest.mark.parametrize("payload", [
        b"not json at all",
        b"[1, 2, 3]",
        b'{"jobs": "nope"}',
        b'{"jobs": []}',
        b'{"jobs": [{"kind": "sim"}]}',
    ])
    def test_malformed_submit_body_is_400(self, http_daemon, payload):
        with pytest.raises(urllib.error.HTTPError) as err:
            self._post(http_daemon, "/submit", payload)
        assert err.value.code == 400
        assert "error" in json.loads(err.value.read())
        # The daemon shrugged it off: the next request still works.
        status, body = self._get(http_daemon, "/healthz")
        assert status == 200 and body["ok"]

    def test_bad_job_spec_in_valid_envelope_is_400(self, http_daemon):
        payload = json.dumps(
            {"jobs": [{"kind": "warp", "job": {}}]}).encode()
        with pytest.raises(urllib.error.HTTPError) as err:
            self._post(http_daemon, "/submit", payload)
        assert err.value.code == 400
        assert "bad job spec" in json.loads(err.value.read())["error"]

    @pytest.mark.parametrize("path,method", [
        ("/healthz", "POST"), ("/status", "POST"),
        ("/submit", "GET"), ("/submit", "DELETE"),
    ])
    def test_wrong_method_is_405(self, http_daemon, path, method):
        url = f"http://127.0.0.1:{http_daemon.http_bound}{path}"
        request = urllib.request.Request(
            url, data=b"{}" if method != "GET" else None, method=method)
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=30)
        assert err.value.code == 405

    def test_client_disconnect_mid_request_is_harmless(self,
                                                       http_daemon):
        # Promise a body, send half of it, vanish: the handler's
        # readexactly raises IncompleteReadError, which must tear down
        # only that connection.
        for partial in (b"",
                        b"POST /submit HTTP/1.1\r\n",
                        b"POST /submit HTTP/1.1\r\n"
                        b"Content-Length: 4096\r\n\r\n"
                        b'{"jobs": ['):
            sock = socketlib.create_connection(
                ("127.0.0.1", http_daemon.http_bound), timeout=10)
            if partial:
                sock.sendall(partial)
            sock.close()
        status, body = self._get(http_daemon, "/healthz")
        assert status == 200 and body["ok"]
        # No leaked half-open handlers left registered.
        assert http_daemon.scheduler.counters["submitted"] == 0


class TestFallback:
    def test_connect_or_none_on_dead_socket(self, tmp_path):
        assert connect_or_none(str(tmp_path / "nothing.sock")) is None

    def test_client_raises_unavailable(self, tmp_path):
        with pytest.raises(ServiceUnavailable):
            ServiceClient(str(tmp_path / "nothing.sock"))

    def test_cli_sweep_falls_back_to_embedded(self, tmp_path, capsys):
        code = main(["sweep", "--workloads", "bfs",
                     "--techniques", "conv", "--scale", "tiny",
                     "--max-instructions", "6000",
                     "--daemon", str(tmp_path / "nothing.sock"),
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
        captured = capsys.readouterr()
        assert "falling back to the embedded engine" in captured.err
        assert "1 simulated" in captured.out


class TestCLIThroughDaemon:
    def test_sweep_uses_daemon(self, daemon, capsys):
        code = main(["sweep", "--workloads", "bfs",
                     "--techniques", "conv", "--scale", "tiny",
                     "--max-instructions", "6000",
                     "--daemon", daemon.socket_path,
                     "--cache-dir", "ignored-when-daemon"])
        assert code == 0
        captured = capsys.readouterr()
        assert "falling back" not in captured.err
        assert daemon.scheduler.counters["submitted"] == 1

    def test_fuzz_digest_identical_through_daemon(self, tmp_path):
        from repro.fuzz import fuzz
        d = ServiceDaemon(str(tmp_path / "f.sock"), store=None,
                          workers=2)
        thread = d.start_in_thread()
        try:
            with ServiceClient(d.socket_path) as client:
                via_daemon = fuzz(seed=3, budget=4, engine=client,
                                  corpus_dir=str(tmp_path / "c1"))
        finally:
            d.request_stop()
            thread.join(timeout=10)
        embedded = fuzz(seed=3, budget=4,
                        corpus_dir=str(tmp_path / "c2"))
        assert via_daemon.findings_digest() == embedded.findings_digest()
        assert via_daemon.cases == embedded.cases

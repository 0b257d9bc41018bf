"""Failure handling on the engine's pool path, which runs on the pool
attempt loop (:class:`repro.engine.scheduler.Scheduler`).

Most tests put fake pools behind the engine's ``_make_pool`` seam.
The fakes hand out real :class:`concurrent.futures.Future` objects, so
cancellation semantics are the real thing (``cancel()`` is a no-op on
a RUNNING future) without spawning processes.  The jobs are the
test-only kinds below: they sleep instead of simulating, so the tests
time the loop and not the simulator.  The last tests run real worker
processes.
"""

import asyncio
import dataclasses
import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.engine import JOB_KINDS, ExperimentEngine, RunJournal

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class SleepResult:
    def __init__(self, seconds):
        self.seconds = seconds
        self.wall_seconds = seconds
        self.instructions = 0

    def to_dict(self):
        return {"seconds": self.seconds}


@dataclasses.dataclass
class SleepJob:
    """A job kind that sleeps ``seconds``.  It has no ``spec()``, so it
    is never cached; its key is its name, so equal names are twins."""

    kind = "test-sleep"
    name: str
    seconds: float = 0.0

    @property
    def key(self):
        return f"{self.kind}-{self.name}"

    @property
    def label(self):
        return f"{self.kind}/{self.name}"

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data):
        return cls(**data)

    @staticmethod
    def result_from_dict(payload):
        return SleepResult(payload["seconds"])

    def run(self):
        time.sleep(self.seconds)
        return SleepResult(self.seconds)


class CrashJob(SleepJob):
    """A job kind whose process dies mid-run, as an OOM-killed or
    crashing worker does."""

    kind = "test-crash"

    def run(self):
        os._exit(3)


KINDS = {cls.kind: (__name__, cls.__name__) for cls in (SleepJob, CrashJob)}


@pytest.fixture
def kinds(monkeypatch):
    """Register the test kinds, so real pool workers can run them."""
    for kind, entry in KINDS.items():
        monkeypatch.setitem(JOB_KINDS, kind, entry)


# -- fake pools ----------------------------------------------------------------


class FakePool:
    """Pool stand-in: ``behave(name)`` makes the future for each
    submitted job.  Shutting down with ``cancel_futures`` cancels every
    future it handed out, as a real pool does: queued ones are
    cancelled, finished and running ones are not."""

    def __init__(self, behave):
        self.behave = behave
        self.submitted = []
        self.shutdowns = []

    def submit(self, fn, payload):
        future = self.behave(payload["job"]["name"])
        self.submitted.append((future, payload))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdowns.append((wait, cancel_futures))
        if cancel_futures:
            for future, _ in self.submitted:
                future.cancel()


def done(name):
    """Behaviour: finished at once."""
    future = Future()
    future.set_result({"seconds": 0.0})
    return future


def after(seconds):
    """Behaviour: running, finished ``seconds`` later."""
    def behave(name):
        future = Future()
        future.set_running_or_notify_cancel()
        threading.Timer(seconds, future.set_result,
                        [{"seconds": seconds}]).start()
        return future
    return behave


def stuck(name):
    """Behaviour: running and never finishing (a worker holding its
    slot); ``cancel()`` cannot stop it."""
    future = Future()
    future.set_running_or_notify_cancel()
    return future


def queued(name):
    """Behaviour: never started; ``cancel()`` stops it."""
    return Future()


def dead(name):
    """Behaviour: the pool's worker died."""
    future = Future()
    future.set_exception(BrokenProcessPool("worker died"))
    return future


def fake_pools(engine, monkeypatch, *behaviours):
    """Serve the engine's pools from ``behaviours``, one per pool (the
    last one repeats); returns the list of pools made."""
    made = []

    def make_pool(workers):
        behave = behaviours[min(len(made), len(behaviours) - 1)]
        made.append(FakePool(behave))
        return made[-1]

    monkeypatch.setattr(engine, "_make_pool", make_pool)
    return made


def by_name(**behaviours):
    return lambda name: behaviours[name](name)


class TestPerJobWallTime:
    def test_pool_jobs_report_their_own_wall_not_batch_wall(
            self, monkeypatch):
        """Two slow jobs hold both workers for 0.4 s; the quick one
        waits for a worker, then finishes at once.  Each reports its
        own run: the quick one neither the batch's span nor its wait."""
        engine = ExperimentEngine(jobs=2)
        fake_pools(engine, monkeypatch,
                   by_name(slow1=after(0.4), slow2=after(0.4), quick=done))
        start = time.perf_counter()
        outcomes = engine.run([SleepJob("slow1"), SleepJob("slow2"),
                               SleepJob("quick")])
        assert time.perf_counter() - start >= 0.4
        assert [o.status for o in outcomes] == ["ok"] * 3
        assert outcomes[0].wall_seconds >= 0.35
        assert outcomes[1].wall_seconds >= 0.35
        assert outcomes[2].wall_seconds < 0.2


class TestRunningFutureTimeout:
    def test_running_expired_attempt_replaces_pool(self, tmp_path,
                                                   monkeypatch):
        """An expired attempt in RUNNING state (cancel() returns False)
        must journal the abandonment and replace the pool.  An attempt
        still queued in the old pool moves to a fresh pool from the
        factory seam with its attempt count intact."""
        journal = RunJournal(str(tmp_path / "journal.jsonl"))
        engine = ExperimentEngine(journal=journal, jobs=2, timeout=0.6,
                                  retries=0)
        # "waiting" gets quick's worker at 0.3 s and would expire at
        # 0.9 s; stuck expires at 0.6 s and the replacement moves it.
        made = fake_pools(engine, monkeypatch,
                          by_name(stuck=stuck, quick=after(0.3),
                                  waiting=queued),
                          done)
        jobs = [SleepJob("stuck"), SleepJob("quick"), SleepJob("waiting")]
        outcomes = engine.run(jobs)

        assert len(made) == 2
        old_pool, new_pool = made
        assert old_pool.shutdowns == [(False, True)]
        # The queued attempt moved to the new pool as the same attempt.
        (_, moved), = new_pool.submitted
        assert moved["job"]["name"] == "waiting"
        assert outcomes[2].status == "ok" and outcomes[2].attempts == 1
        assert outcomes[1].status == "ok"
        # The expired attempt: out of retries, failed with a timeout.
        assert outcomes[0].status == "failed"
        assert "timeout" in outcomes[0].error
        assert [a["job"] for a in engine.abandoned] == [jobs[0].label]
        # Abandonment is journaled.
        abandoned = [e for e in journal.entries()
                     if e["status"] == "abandoned"]
        assert len(abandoned) == 1
        assert abandoned[0]["job"] == jobs[0].label
        assert "abandoned" in abandoned[0]["error"]

    def test_pending_expired_attempt_keeps_pool(self, monkeypatch):
        """A queued (never-started) expired attempt cancels cleanly: no
        pool replacement, straight to retry/fail."""
        engine = ExperimentEngine(jobs=2, timeout=0.2, retries=0)
        made = fake_pools(engine, monkeypatch,
                          by_name(waiting=queued, live=done))
        outcomes = engine.run([SleepJob("waiting"), SleepJob("live")])
        assert len(made) == 1
        assert made[0].shutdowns == [(False, True)]    # the run's end
        assert outcomes[0].status == "failed"
        assert "timeout" in outcomes[0].error
        assert outcomes[1].status == "ok"
        assert engine.abandoned == []


class TestDeadWorker:
    def test_dead_pool_is_replaced_once_and_jobs_retry(self, monkeypatch):
        """Both attempts die with the first pool: one replacement, and
        each job's retry is its attempt 2 on the new pool."""
        engine = ExperimentEngine(jobs=2, retries=1)
        made = fake_pools(engine, monkeypatch, dead, done)
        outcomes = engine.run([SleepJob("a"), SleepJob("b")])
        assert [o.status for o in outcomes] == ["ok", "ok"]
        assert [o.attempts for o in outcomes] == [2, 2]
        assert len(made) == 2

    def test_exhausted_budget_fails_without_running_in_process(
            self, monkeypatch):
        """retries=0 and the pooled attempt died with the pool: the job
        fails, and nothing runs it in the calling process."""
        engine = ExperimentEngine(jobs=2, retries=0)
        fake_pools(engine, monkeypatch, dead)
        runs = []
        monkeypatch.setattr(SleepJob, "run",
                            lambda self: runs.append(self.label))
        outcomes = engine.run([SleepJob("a"), SleepJob("b")])
        assert [o.status for o in outcomes] == ["failed", "failed"]
        assert [o.attempts for o in outcomes] == [1, 1]
        assert all("BrokenProcessPool" in o.error for o in outcomes)
        assert runs == []


class TestPoolPath:
    def test_uncreatable_pool_runs_in_process(self, monkeypatch):
        engine = ExperimentEngine(jobs=2)

        def no_pool(workers):
            raise OSError("no semaphores here")

        monkeypatch.setattr(engine, "_make_pool", no_pool)
        outcomes = engine.run([SleepJob("a"), SleepJob("b")])
        assert [(o.status, o.attempts) for o in outcomes] == \
            [("ok", 1), ("ok", 1)]

    def test_twins_in_one_batch_run_once(self, monkeypatch):
        engine = ExperimentEngine(jobs=2)
        made = fake_pools(engine, monkeypatch, done)
        outcomes = engine.run([SleepJob("a"), SleepJob("a"),
                               SleepJob("b")])
        assert [o.status for o in outcomes] == ["ok", "shared", "ok"]
        assert all(o.ok for o in outcomes)
        assert len(made[0].submitted) == 2

    def test_runs_under_a_running_event_loop(self, monkeypatch):
        engine = ExperimentEngine(jobs=2)
        fake_pools(engine, monkeypatch, done)

        async def caller():
            return engine.run([SleepJob("a"), SleepJob("b")])

        outcomes = asyncio.run(caller())
        assert [o.status for o in outcomes] == ["ok", "ok"]


class TestRealPool:
    def test_timeouts_measure_the_run_not_the_queue(self, kinds,
                                                    monkeypatch):
        """Eight 0.4 s jobs on two workers take 1.6 s, but each attempt
        runs 0.4 s of its 1.0 s timeout: none expires, none is
        abandoned, and the one pool serves them all."""
        engine = ExperimentEngine(jobs=2, timeout=1.0, retries=0)
        made = []
        make_pool = engine._make_pool

        def counted(workers):
            made.append(workers)
            return make_pool(workers)

        monkeypatch.setattr(engine, "_make_pool", counted)
        outcomes = engine.run([SleepJob(f"s{i}", 0.4) for i in range(8)])
        assert [o.status for o in outcomes] == ["ok"] * 8, \
            [o.error for o in outcomes]
        assert engine.abandoned == []
        assert made == [2]

    def test_crashing_worker_fails_only_its_job(self):
        """A job whose worker process dies, among five that sleep: the
        calling process survives, the crashing job fails and the rest
        succeed.  Run in a subprocess, since the failure under test is
        the caller's own exit."""
        script = (
            "import json, sys\n"
            "from repro.engine import ExperimentEngine, JOB_KINDS\n"
            "from tests.test_executor_failures import (KINDS, CrashJob,\n"
            "                                          SleepJob)\n"
            "JOB_KINDS.update(KINDS)\n"
            "jobs = [SleepJob(f's{i}', 0.2) for i in range(5)]\n"
            "jobs.insert(2, CrashJob('crash'))\n"
            "outcomes = ExperimentEngine(jobs=2, retries=1).run(jobs)\n"
            "print(json.dumps([[o.job.name, o.status, o.error]\n"
            "                  for o in outcomes]))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(ROOT, "src"), ROOT]
            + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
               if p]))
        proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        outcomes = json.loads(proc.stdout)
        assert [(name, status) for name, status, _ in outcomes] == \
            [("s0", "ok"), ("s1", "ok"), ("crash", "failed"),
             ("s2", "ok"), ("s3", "ok"), ("s4", "ok")]
        assert "BrokenProcessPool" in outcomes[2][2]

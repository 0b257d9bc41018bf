"""Tests for the experiment engine: job identity, result serialization,
the content-addressed store, the journal, grid expansion, and the
parallel executor's determinism and failure handling."""

import json
import os
import subprocess
import sys

import pytest

from repro import CoreConfig, SimulationResult
from repro.engine import (ExperimentEngine, ResultStore, RunJournal, SimJob,
                          code_fingerprint, expand_grid, parse_overrides,
                          resolve_workload, resolve_workloads)

#: Small fast job used throughout: ~16k instructions, ~0.3s.
JOB = SimJob(workload="gap.bfs", technique="conv", scale="tiny",
             max_instructions=8000)


@pytest.fixture(scope="module")
def live_result():
    return JOB.run()


def _stats_without_wall(result):
    data = result.to_dict()
    data.pop("wall_seconds")
    return data


class TestSimJob:
    def test_key_is_stable(self):
        assert JOB.key == SimJob(**JOB.to_dict()).key
        assert len(JOB.key) == 64

    def test_key_covers_every_input(self):
        for change in ({"workload": "gap.pr"}, {"technique": "nowp"},
                       {"scale": "small"}, {"seed": 7},
                       {"max_instructions": 9000},
                       {"base_config": "full"},
                       {"config_overrides": {"rob_size": 64}}):
            other = SimJob(**{**JOB.to_dict(), **change})
            assert other.key != JOB.key, change

    def test_key_covers_code_version(self, monkeypatch):
        base = JOB.key
        monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "vNext")
        assert JOB.key != base

    def test_fingerprint_pin(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "pinned")
        assert code_fingerprint() == "pinned"

    def test_config_resolution(self):
        job = SimJob(workload="gap.bfs", base_config="scaled",
                     config_overrides={"rob_size": 64})
        assert job.config() == CoreConfig.scaled(rob_size=64)
        full = SimJob(workload="gap.bfs", base_config="full")
        assert full.config() == CoreConfig()

    def test_bad_base_config_rejected(self):
        with pytest.raises(ValueError):
            SimJob(workload="gap.bfs", base_config="huge")

    def test_run_produces_result(self, live_result):
        assert live_result.instructions > 0
        assert live_result.technique == "conv"

    def test_key_partition_declared(self):
        import dataclasses as dc

        from repro.engine.job import _assert_key_partition
        keyed, excluded = SimJob.KEYED_FIELDS, SimJob.KEY_EXCLUDED_FIELDS
        fields = {f.name for f in dc.fields(SimJob)}
        assert keyed | excluded == fields
        assert not keyed & excluded
        assert "trace_dir" in excluded
        _assert_key_partition()  # must not raise on the real class

    def test_key_partition_catches_new_field(self):
        # Adding a SimJob field without deciding keyed-vs-excluded must
        # blow up at import time, not silently alias cache entries.
        import dataclasses as dc

        from repro.engine.job import _assert_key_partition

        @dc.dataclass
        class Rogue(SimJob):
            extra_knob: int = 0

        with pytest.raises(RuntimeError, match="extra_knob"):
            _assert_key_partition(Rogue)


class TestResultSerialization:
    def test_round_trip_is_lossless(self, live_result):
        detached = SimulationResult.from_dict(live_result.to_dict())
        assert detached.to_dict() == live_result.to_dict()
        # Every derived metric the benches consume survives detachment.
        assert detached.ipc == live_result.ipc
        assert detached.branch_mpki == live_result.branch_mpki
        assert detached.cache_stats == live_result.cache_stats
        assert detached.stats.counters() == live_result.stats.counters()
        assert detached.config == live_result.config
        assert detached.output == live_result.output
        assert detached.bpu is None

    def test_json_round_trip(self, live_result):
        blob = json.dumps(live_result.to_dict(), sort_keys=True)
        detached = SimulationResult.from_dict(json.loads(blob))
        assert detached.to_dict() == live_result.to_dict()

    def test_schema_mismatch_rejected(self, live_result):
        data = live_result.to_dict()
        data["schema"] = -1
        with pytest.raises(ValueError):
            SimulationResult.from_dict(data)


class TestResultStore:
    def test_put_get_round_trip(self, tmp_path, live_result):
        store = ResultStore(str(tmp_path / "cache"))
        assert store.get(JOB) is None and not store.contains(JOB)
        store.put(JOB, live_result)
        assert store.contains(JOB)
        assert store.get(JOB).to_dict() == live_result.to_dict()
        assert list(store.keys()) == [JOB.key]
        assert len(store) == 1

    def test_corrupt_blob_reads_as_miss(self, tmp_path, live_result):
        store = ResultStore(str(tmp_path))
        path = store.put(JOB, live_result)
        with open(path, "w") as fh:
            fh.write("{not json")
        assert store.get(JOB) is None

    def test_key_mismatch_reads_as_miss(self, tmp_path, live_result):
        store = ResultStore(str(tmp_path))
        path = store.put(JOB, live_result)
        blob = json.load(open(path))
        blob["key"] = "0" * 64
        json.dump(blob, open(path, "w"))
        assert store.get(JOB) is None

    def test_invalidate_and_clear(self, tmp_path, live_result):
        store = ResultStore(str(tmp_path))
        store.put(JOB, live_result)
        assert store.invalidate(JOB)
        assert not store.invalidate(JOB)
        store.put(JOB, live_result)
        assert store.clear() == 1
        assert len(store) == 0

    def test_env_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert ResultStore().root == str(tmp_path / "envcache")


class TestJournal:
    def test_record_and_read_back(self, tmp_path):
        journal = RunJournal(str(tmp_path / "j.jsonl"))
        entry = journal.record(key="k", job="gap.bfs/conv", status="ok",
                               cached=False, attempts=1, wall_seconds=2.0,
                               sim_wall_seconds=1.5, instructions=3000)
        assert entry["host_ips"] == 3000 / 1.5
        journal.record(key="k", job="gap.bfs/conv", status="hit",
                       cached=True, attempts=0, wall_seconds=0.0)
        with open(journal.path, "a") as fh:
            fh.write("corrupt line\n")
        entries = journal.entries()
        assert [e["status"] for e in entries] == ["ok", "hit"]
        assert entries[1]["host_ips"] is None

    def test_concurrent_multiprocess_appends_never_tear(self, tmp_path):
        """N processes hammering one journal concurrently must leave
        every line parseable — the single-write O_APPEND contract."""
        path = str(tmp_path / "j.jsonl")
        script = (
            "import sys\n"
            "from repro.engine.journal import append_jsonl_line\n"
            "path, worker = sys.argv[1], int(sys.argv[2])\n"
            "for i in range(200):\n"
            "    append_jsonl_line(path, {'worker': worker, 'i': i,\n"
            "                             'pad': 'x' * 200})\n"
        )
        procs = [subprocess.Popen([sys.executable, "-c", script,
                                   path, str(w)])
                 for w in range(4)]
        for proc in procs:
            assert proc.wait(timeout=120) == 0
        with open(path) as fh:
            lines = fh.readlines()
        assert len(lines) == 4 * 200
        seen = set()
        for line in lines:
            record = json.loads(line)     # raises if any line tore
            assert len(record["pad"]) == 200
            seen.add((record["worker"], record["i"]))
        assert len(seen) == 4 * 200       # nothing lost or duplicated


class TestJobKinds:
    def test_registered_kinds(self):
        from repro.engine import JOB_KINDS
        assert set(JOB_KINDS) >= {"sim", "fuzz"}

    def test_unknown_kind_rejected(self):
        from repro.engine import job_class
        with pytest.raises(ValueError, match="unknown job kind"):
            job_class("warp")

    def test_duplicate_registration_rejected(self):
        from repro.engine import register_job_kind
        with pytest.raises(ValueError, match="already registered"):
            register_job_kind("sim", "somewhere.else", "Other")

    def test_identical_reregistration_is_idempotent(self):
        from repro.engine import JOB_KINDS, register_job_kind
        module, attr = JOB_KINDS["sim"]
        register_job_kind("sim", module, attr)   # must not raise
        assert JOB_KINDS["sim"] == (module, attr)

    def test_transport_round_trip_preserves_key(self):
        from repro.engine import job_from_transport, job_to_transport
        transport = job_to_transport(JOB)
        assert transport["kind"] == "sim"
        back = job_from_transport(transport)
        assert type(back) is type(JOB)
        assert back.key == JOB.key

    def test_transport_round_trip_survives_json(self):
        from repro.engine import job_from_transport, job_to_transport
        wire = json.dumps(job_to_transport(JOB), sort_keys=True)
        assert job_from_transport(json.loads(wire)).key == JOB.key

    def test_every_cached_kind_declares_its_key_partition(self):
        from repro.engine.job import (JOB_KINDS, _assert_key_partition,
                                      job_class)
        cached = [kind for kind in sorted(JOB_KINDS)
                  if hasattr(job_class(kind), "spec")]
        assert cached == ["predict", "sample", "sim"]
        for kind in cached:
            _assert_key_partition(job_class(kind))

    def test_cacheable_checks_the_partition(self):
        # A kind with spec() and a field outside its partition never
        # reaches a store: the cacheability gate raises instead.
        import dataclasses as dc

        from repro.engine.job import cacheable
        from repro.fuzz import make_case
        from repro.fuzz.oracle import FuzzCaseJob

        @dc.dataclass
        class Rogue(SimJob):
            extra_knob: int = 0

        assert cacheable(JOB)
        assert not cacheable(FuzzCaseJob(make_case(1, 0)))
        with pytest.raises(RuntimeError, match="extra_knob"):
            cacheable(Rogue(workload="gap.bfs"))

    def test_fuzz_job_round_trips_too(self):
        from repro.engine import job_from_transport, job_to_transport
        from repro.fuzz import make_case
        from repro.fuzz.oracle import FuzzCaseJob
        job = FuzzCaseJob(make_case(1, 0))
        back = job_from_transport(job_to_transport(job))
        assert isinstance(back, FuzzCaseJob)
        assert back.key == job.key


class TestGrid:
    def test_short_names_resolve(self):
        assert resolve_workload("bfs") == "gap.bfs"
        assert resolve_workload("xz_like") == "spec.int.xz_like"
        assert resolve_workload("saxpy_like") == "spec.fp.saxpy_like"
        assert resolve_workload("gap.pr") == "gap.pr"
        with pytest.raises(KeyError):
            resolve_workload("nothere")

    def test_groups_and_dedupe(self):
        names = resolve_workloads(["bfs", "gap", "bfs"])
        assert names[0] == "gap.bfs"
        assert sorted(names) == sorted(set(names))
        assert len(names) == 6

    def test_parse_overrides(self):
        assert parse_overrides("rob_size=128, mem_latency=90") == \
            {"rob_size": 128, "mem_latency": 90}
        assert parse_overrides("l2_prefetcher=none") == \
            {"l2_prefetcher": None}
        assert parse_overrides("predictor_kind=tage") == \
            {"predictor_kind": "tage"}
        with pytest.raises(ValueError):
            parse_overrides("rob_size")

    def test_expand_grid_shape(self):
        jobs = expand_grid(["bfs", "pr"], ["nowp", "conv"],
                           config_points=[{}, {"rob_size": 64}],
                           scale="tiny", max_instructions=1000)
        assert len(jobs) == 2 * 2 * 2
        assert [j.label for j in jobs[:2]] == ["gap.bfs/nowp",
                                               "gap.bfs/conv"]
        assert len({j.key for j in jobs}) == len(jobs)

    def test_unknown_technique_rejected(self):
        with pytest.raises(KeyError):
            expand_grid(["bfs"], ["magic"])


class TestEngineSerial:
    def test_miss_then_hit(self, tmp_path):
        engine = ExperimentEngine(store=ResultStore(str(tmp_path)), jobs=1)
        first = engine.run_one(JOB)
        assert first.status == "ok" and first.attempts == 1
        second = engine.run_one(JOB)
        assert second.status == "hit" and second.cached
        assert second.result.to_dict() == first.result.to_dict()
        statuses = [e["status"] for e in engine.journal.entries()]
        assert statuses == ["ok", "hit"]

    def test_fuzz_cases_bypass_the_store(self, tmp_path):
        # A fuzz case has no spec(), so no key over the code version: a
        # store-backed engine executes it every time and stores nothing.
        from repro.fuzz import make_case
        from repro.fuzz.oracle import FuzzCaseJob
        engine = ExperimentEngine(store=ResultStore(str(tmp_path)), jobs=1)
        job = FuzzCaseJob(make_case(1, 0))
        first = engine.run_one(job)
        second = engine.run_one(job)
        assert first.status == "ok" and second.status == "ok"
        assert second.attempts == 1 and not second.cached
        assert len(engine.store) == 0

    def test_fresh_skips_read_but_writes(self, tmp_path):
        engine = ExperimentEngine(store=ResultStore(str(tmp_path)), jobs=1)
        engine.run_one(JOB)
        refreshed = engine.run_one(JOB, fresh=True)
        assert refreshed.status == "ok"
        assert engine.store.contains(JOB)

    def test_storeless_engine_runs(self):
        engine = ExperimentEngine(jobs=1)
        outcome = engine.run_one(JOB)
        assert outcome.ok and outcome.status == "ok"

    def test_failure_is_an_outcome_not_an_exception(self, tmp_path):
        bad = SimJob(workload="gap.nothere", technique="conv")
        engine = ExperimentEngine(store=ResultStore(str(tmp_path)),
                                  jobs=1, retries=1)
        outcome = engine.run_one(bad)
        assert outcome.status == "failed" and not outcome.ok
        assert outcome.attempts == 2           # bounded retry
        assert "nothere" in outcome.error
        entry = engine.journal.entries()[-1]
        assert entry["status"] == "failed" and entry["error"]

    def test_summarize(self, tmp_path):
        engine = ExperimentEngine(store=ResultStore(str(tmp_path)),
                                  jobs=1, retries=0)
        first = engine.run_one(JOB)
        outcomes = engine.run([JOB, SimJob(workload="gap.nothere")])
        summary = ExperimentEngine.summarize(outcomes)
        assert summary == {"total": 2, "hits": 1, "simulated": 0,
                           "failed": 1, "sim_wall_seconds": 0}
        assert outcomes[0].result.to_dict() == first.result.to_dict()


GRID = [SimJob(workload="gap.bfs", technique=t, scale="tiny",
               max_instructions=6000) for t in ("nowp", "conv")] + \
       [SimJob(workload="gap.pr", technique=t, scale="tiny",
               max_instructions=6000) for t in ("nowp", "conv")]


class TestEngineParallel:
    def test_pool_matches_serial_bit_for_bit(self):
        """The engine's core invariant: a job simulated in a worker
        process yields the exact stats of an in-process run (everything
        except wall clock), so cache keys are process-agnostic."""
        serial = ExperimentEngine(jobs=1).run(GRID)
        parallel = ExperimentEngine(jobs=4).run(GRID)
        assert [o.status for o in parallel] == ["ok"] * len(GRID)
        for s, p in zip(serial, parallel):
            assert _stats_without_wall(s.result) == \
                _stats_without_wall(p.result)

    def test_pool_populates_store_for_serial_hits(self, tmp_path):
        store = ResultStore(str(tmp_path))
        parallel = ExperimentEngine(store=store, jobs=4).run(GRID)
        assert all(o.status == "ok" for o in parallel)
        serial = ExperimentEngine(store=store, jobs=1).run(GRID)
        assert [o.status for o in serial] == ["hit"] * len(GRID)

    def test_pool_failure_outcomes(self, tmp_path):
        jobs = GRID[:1] + [SimJob(workload="gap.nothere", scale="tiny")]
        outcomes = ExperimentEngine(store=ResultStore(str(tmp_path)),
                                    jobs=2, retries=0).run(jobs)
        assert outcomes[0].status == "ok"
        assert outcomes[1].status == "failed"
        assert "nothere" in outcomes[1].error

    def test_timeout_fails_job(self):
        engine = ExperimentEngine(jobs=2, timeout=0.01, retries=0)
        outcomes = engine.run(GRID[:2])
        assert all(o.status == "failed" for o in outcomes)
        assert all("timeout" in o.error for o in outcomes)


class TestCrossInterpreterDeterminism:
    def test_fresh_interpreter_reproduces_stats(self, tmp_path,
                                                live_result):
        """Guards the cache across CLI invocations: a brand-new
        interpreter (different PYTHONHASHSEED) must reproduce the stored
        stats exactly, or content-addressed reuse would be unsound."""
        script = (
            "import json, sys\n"
            "from repro.engine import SimJob\n"
            "job = SimJob.from_dict(json.loads(sys.argv[1]))\n"
            "data = job.run().to_dict()\n"
            "data.pop('wall_seconds')\n"
            "print(json.dumps(data, sort_keys=True))\n")
        env = dict(os.environ, PYTHONHASHSEED="271828",
                   PYTHONPATH=os.pathsep.join(
                       [os.path.join(os.path.dirname(__file__), os.pardir,
                                     "src")]
                       + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(JOB.to_dict())],
            capture_output=True, text=True, env=env, check=True)
        assert json.loads(proc.stdout) == json.loads(
            json.dumps(_stats_without_wall(live_result)))


class TestCompareWorkload:
    def test_matches_in_process_comparison(self, tmp_path):
        from repro import compare_workload
        engine = ExperimentEngine(store=ResultStore(str(tmp_path)), jobs=2)
        cmp = compare_workload("bfs", scale="tiny", max_instructions=6000,
                               engine=engine)
        assert set(cmp.results) == {"nowp", "instrec", "conv", "wpemul"}
        again = compare_workload("bfs", scale="tiny",
                                 max_instructions=6000, engine=engine)
        assert {t: r.ipc for t, r in again.results.items()} == \
            {t: r.ipc for t, r in cmp.results.items()}

    def test_failure_raises(self, tmp_path):
        from repro import compare_workload
        engine = ExperimentEngine(store=ResultStore(str(tmp_path)),
                                  jobs=1, retries=0)
        with pytest.raises(KeyError):
            compare_workload("gap.nothere", engine=engine)

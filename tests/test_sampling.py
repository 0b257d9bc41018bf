"""Tests for sampled (fast-forward + detailed interval) simulation."""

import pytest

from repro import CoreConfig, Simulator
from repro.minicc import compile_to_program
from repro.simulator.sampling import (SampledResult, functional_pass,
                                      simulate_sampled)
from repro.simulator.simulation import ALL_TECHNIQUES
from repro.simulator.snapshot import SimSnapshot

SOURCE = """
int table[4096];
void main() {
    int seed = 5;
    for (int i = 0; i < 4096; i += 1) {
        seed = seed * 1103515245 + 12345;
        table[i] = (seed >> 16) & 4095;
    }
    int acc = 0;
    for (int rep = 0; rep < 3; rep += 1) {
        for (int i = 0; i < 4096; i += 1) {
            if (table[table[i]] > 2048) {
                acc += 1;
            }
        }
    }
    print_int(acc);
}
"""


#: Registry kernels the two exactness oracles run on, at tiny scale.
ORACLE_KERNELS = ("gap.bfs", "spec.int.hashjoin_like", "gap.pr")


@pytest.fixture(scope="module")
def program():
    return compile_to_program(SOURCE)


@pytest.fixture(scope="module")
def kernels():
    from repro.workloads import build_workload
    return {name: build_workload(name, scale="tiny", check=False).program
            for name in ORACLE_KERNELS}


class TestSampling:
    def test_runs_and_partitions_stream(self, program):
        result = simulate_sampled(program, technique="nowp",
                                  config=CoreConfig.scaled(),
                                  detail_length=5000,
                                  fastforward_length=20_000)
        assert result.intervals >= 2
        assert result.detailed_instructions > 0
        assert result.warmed_instructions > result.detailed_instructions
        assert 0.1 < result.detail_fraction < 0.4
        assert result.ipc > 0

    def test_interval_count_and_duty_cycle(self, program):
        """The stream partitions exactly: ff/detail alternation gives a
        predictable interval count and a detail fraction equal to the
        configured duty cycle (up to the final partial interval)."""
        detail, ff = 5000, 15_000
        result = simulate_sampled(program, technique="nowp",
                                  config=CoreConfig.scaled(),
                                  detail_length=detail,
                                  fastforward_length=ff)
        total = result.total_instructions
        period = detail + ff
        # Every full period contributes one detailed interval; a trailing
        # partial period contributes at most one more.
        assert total // period <= result.intervals <= total // period + 1
        # All but the last detailed interval are exactly detail_length.
        assert result.detailed_instructions <= result.intervals * detail
        assert result.detailed_instructions > (result.intervals - 1) * detail
        # Duty cycle: detail/(detail+ff) = 25%, within the tail's slack.
        assert result.detail_fraction == pytest.approx(
            detail / period, abs=0.05)

    def test_sampled_ipc_tracks_full_detail(self, program):
        """Sampling must approximate the full-detail IPC (SMARTS-style)."""
        cfg = CoreConfig.scaled()
        full = Simulator(program, config=cfg, technique="nowp").run()
        sampled = simulate_sampled(program, technique="nowp", config=cfg,
                                   detail_length=8000,
                                   fastforward_length=16_000)
        assert sampled.ipc == pytest.approx(full.ipc, rel=0.35)

    def test_zero_fastforward_equals_full_detail_count(self, program):
        result = simulate_sampled(program, technique="nowp",
                                  config=CoreConfig.scaled(),
                                  detail_length=10_000,
                                  fastforward_length=0,
                                  max_instructions=30_000)
        assert result.warmed_instructions == 0
        assert result.detailed_instructions == 30_000

    def test_wrong_path_techniques_work_in_samples(self, program):
        cfg = CoreConfig.scaled()
        result = simulate_sampled(program, technique="conv", config=cfg,
                                  detail_length=6000,
                                  fastforward_length=18_000)
        assert result.stats.wp_fetched > 0
        assert result.stats.conv_attempts > 0

    def test_instrec_in_samples(self, program):
        """instrec replays recorded wrong paths inside detailed
        intervals: it must fetch and execute wrong-path instructions but
        never recover data addresses (it models none)."""
        result = simulate_sampled(program, technique="instrec",
                                  config=CoreConfig.scaled(),
                                  detail_length=6000,
                                  fastforward_length=18_000)
        assert result.stats.wp_fetched > 0
        assert result.stats.wp_executed > 0
        assert result.stats.wp_addr_recovered == 0

    def test_wpemul_in_samples(self, program):
        result = simulate_sampled(program, technique="wpemul",
                                  config=CoreConfig.scaled(),
                                  detail_length=5000,
                                  fastforward_length=20_000)
        assert result.stats.wp_trace_missing == 0
        assert result.stats.wp_executed > 0

    def test_parameter_validation(self, program):
        with pytest.raises(ValueError):
            simulate_sampled(program, detail_length=0)
        with pytest.raises(ValueError):
            simulate_sampled(program, fastforward_length=-1)
        with pytest.raises(ValueError):
            simulate_sampled(program, technique="magic")

    def test_max_instructions_cap(self, program):
        """The budget is a hard cap: no interval may overshoot it."""
        result = simulate_sampled(program, technique="nowp",
                                  config=CoreConfig.scaled(),
                                  detail_length=1000,
                                  fastforward_length=1000,
                                  max_instructions=5000)
        assert result.total_instructions <= 5000
        # And the budget is actually used, not truncated a period early.
        assert result.total_instructions > 5000 - 2000

    def test_result_roundtrip(self, program):
        result = simulate_sampled(program, technique="nowp",
                                  config=CoreConfig.scaled(),
                                  detail_length=2000,
                                  fastforward_length=6000,
                                  max_instructions=20_000)
        clone = SampledResult.from_dict(result.to_dict())
        assert clone.to_dict() == result.to_dict()
        assert clone.digest() == result.digest()
        with pytest.raises(ValueError):
            SampledResult.from_dict(
                dict(result.to_dict(), schema=99))


class TestCheckpointedSampling:
    @pytest.mark.parametrize("workload", ORACLE_KERNELS)
    @pytest.mark.parametrize("technique", ALL_TECHNIQUES)
    def test_one_interval_matches_full_detail(self, kernels, workload,
                                              technique):
        """Restore is lossless: with no fast-forward and one interval
        longer than the program, the interval restored from the
        snapshot at position 0 reproduces ``Simulator.run()`` on every
        counter, including wpemul's frontend predictor copy."""
        cfg = CoreConfig.scaled()
        program = kernels[workload]
        full = Simulator(program, config=cfg, technique=technique).run()
        sampled = simulate_sampled(program, technique, cfg,
                                   detail_length=10 * full.instructions,
                                   fastforward_length=0)
        assert sampled.intervals == 1
        assert sampled.warmed_instructions == 0
        assert sampled.stats.counters() == full.stats.counters()

    @pytest.mark.parametrize("workload", ORACLE_KERNELS)
    def test_warm_images_match_capped_nowp_run(self, kernels, workload):
        """Warming is exact: at every boundary, the cache hierarchy,
        predictor and code-cache images the functional pass snapshots
        equal those of a nowp ``Simulator`` capped there (its timing
        model touches them in program order, never on a wrong path)."""
        cfg = CoreConfig.scaled()
        program = kernels[workload]
        plan = functional_pass(program, cfg, detail_length=2000,
                               fastforward_length=6000,
                               max_instructions=16_000)
        assert [snap.position for snap, _ in plan.intervals] == \
            [6000, 14_000]
        for snap, _ in plan.intervals:
            sim = Simulator(program, config=cfg, technique="nowp",
                            max_instructions=snap.position)
            sim.run()
            ref = SimSnapshot.capture(snap.index, sim.frontend,
                                      sim.hierarchy, sim.bpu,
                                      sim.core.code_cache)
            assert snap.hierarchy == ref.hierarchy
            assert snap.bpu == ref.bpu
            assert snap.code_cache == ref.code_cache

    def test_checkpointed_respects_cap(self, program):
        """A cap inside a detailed interval clamps that interval's
        planned length, and the plan stops there."""
        result = simulate_sampled(program, "nowp", CoreConfig.scaled(),
                                  detail_length=1000,
                                  fastforward_length=1000,
                                  max_instructions=3500)
        assert result.total_instructions == 3500
        assert [r["requested"] for r in result.interval_results] == \
            [1000, 500]


class TestSampleIntervalJob:
    def _job(self, **over):
        from repro.simulator.sampling import SampleIntervalJob, \
            functional_pass
        from repro.workloads import build_workload
        built = build_workload("gap.bfs", scale="tiny", check=False)
        plan = functional_pass(built.program, CoreConfig.scaled(),
                               detail_length=2000,
                               fastforward_length=6000)
        snap, length = plan.intervals[0]
        kwargs = dict(workload="gap.bfs", technique="conv", scale="tiny",
                      index=snap.index, length=length,
                      snapshot=snap.to_dict())
        kwargs.update(over)
        return SampleIntervalJob(**kwargs)

    def test_transport_round_trip(self):
        from repro.engine import job_from_transport
        from repro.engine.job import job_to_transport
        job = self._job()
        clone = job_from_transport(job_to_transport(job))
        assert clone.to_dict() == job.to_dict()
        assert clone.key == job.key

    def test_unknown_base_config_rejected(self):
        # As for SimJob: an unknown preset would otherwise simulate the
        # scaled config under a key of its own.
        from repro.simulator.sampling import SampleIntervalJob
        with pytest.raises(ValueError, match="base_config"):
            SampleIntervalJob(workload="gap.bfs", base_config="bogus")

    def test_key_covers_snapshot_state(self):
        """Two interval jobs differing only in prefix state must never
        share a cache entry."""
        job = self._job()
        mutated = dict(job.snapshot)
        mutated = dict(mutated, position=mutated["position"] + 1)
        other = self._job(snapshot=mutated)
        assert other.key != job.key
        assert self._job(technique="nowp").key != job.key

    def test_run_and_result_round_trip(self):
        from repro.simulator.sampling import SampleIntervalJob
        job = self._job()
        result = job.run()
        assert result.instructions > 0
        assert result.ipc > 0
        clone = SampleIntervalJob.result_from_dict(result.to_dict())
        assert clone.to_dict() == result.to_dict()

    def test_engine_dispatch_matches_in_process(self, tmp_path):
        """The tentpole parity property at unit scale: in-process,
        engine-parallel and warm-cache runs share one digest."""
        from repro.engine import ExperimentEngine, ResultStore
        from repro.simulator.sampling import sample_workload
        kwargs = dict(technique="conv", scale="tiny",
                      detail_length=2000, fastforward_length=6000)
        serial = sample_workload("gap.bfs", **kwargs)
        engine = ExperimentEngine(store=ResultStore(str(tmp_path)),
                                  jobs=2)
        parallel = sample_workload("gap.bfs", engine=engine, **kwargs)
        warm = sample_workload("gap.bfs", engine=engine, **kwargs)
        assert parallel.digest() == serial.digest()
        assert warm.digest() == serial.digest()

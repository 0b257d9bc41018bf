"""Tests of the benchmark itself: reduced-size runs of every workload,
the correctness gate, the span arithmetic, the compare rules and the
``BENCHMARK.json`` layout.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import ROOT, hostspeed, metrics, workloads
from perfbench import run as bench
from perfbench.tracer import Tracer


class SmallBranchy(workloads.Branchy):
    KERNELS = (("gap.bfs", "tiny"),)
    INPUTS = 1


class SmallSweep(workloads.Sweep):
    KERNELS = ("gap.bfs", "spec.fp.saxpy_like")
    SAMPLE = dict(workloads.Sweep.SAMPLE, max_instructions=20_000)


class SmallServe(workloads.Serve):
    KERNELS = ("gap.bfs",)


SMALL = {"branchy": SmallBranchy, "sweep": SmallSweep, "serve": SmallServe}


def _run(cls, trace=False, probes=1):
    return bench.run(cls(metrics.DEFAULT_SEED), seconds=0, trace=trace,
                     probes=probes)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_reduced_run_prints_every_end_to_end_metric(name, capsys):
    result = _run(SMALL[name])
    out = capsys.readouterr().out
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert set(result["metrics"]) == {m for m, *_ in metrics.END_TO_END}
    for metric, unit, _, _ in metrics.END_TO_END:
        value = result["metrics"][metric]
        assert value["unit"] == unit
        assert value["value"] > 0, metric
        line = next(ln for ln in out.splitlines()
                    if ln.split()[:1] == [metric])
        assert unit in line.split()


@pytest.mark.parametrize("name", ["branchy", "sweep", "serve"])
def test_traced_run_prints_every_per_layer_metric(name, capsys):
    result = _run(SMALL[name], trace=True, probes=0)
    out = capsys.readouterr().out
    assert result["correct"]
    assert set(result["metrics"]) == {m for m, *_ in metrics.PER_LAYER}
    for metric, unit, _ in metrics.PER_LAYER:
        assert result["metrics"][metric]["unit"] == unit
        assert any(ln.split()[:1] == [metric] for ln in out.splitlines())
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if name == "branchy":
        for metric in ("functional.produce_s", "core.process_s",
                       "wrongpath.mispredict_s", "branch.predict_calls",
                       "cache.data_calls", "functional.wp_emulate_s",
                       "frontend.window_calls", "workloads.build_s",
                       "functional.superblock_frac", "core.timingblock_frac",
                       "wrongpath.streamblock_frac"):
            assert values[metric] > 0, metric
        assert "wpemul-conv" in out
    elif name == "sweep":
        for metric in ("engine.store_hits", "engine.store_misses",
                       "engine.key_s", "simulator.functional_pass_s",
                       "simulator.intervals", "engine.worker_busy_frac"):
            assert values[metric] > 0, metric
    else:
        for metric in ("service.hit_frac", "service.shared_frac",
                       "service.connect_s"):
            assert values[metric] > 0, metric
        assert values["service.sim_p50_ms"] > values["service.hit_p50_ms"]


def test_wrong_output_trips_the_gate(capsys):
    class WrongOutput(SmallBranchy):
        def setup(self):
            super().setup()
            want, tolerance = self.references["gap.bfs", 0]
            self.references["gap.bfs", 0] = ([want[0] + 1] + want[1:],
                                             tolerance)

    result = _run(WrongOutput, probes=0)
    out = capsys.readouterr().out
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 4
    assert "failed_frac 1.0000" in out
    assert "FAIL round 0 gap.bfs/nowp: output" in out


def test_digest_drift_between_rounds_trips_the_gate():
    workload = SmallBranchy(metrics.DEFAULT_SEED)
    workload.first_digests = {("gap.bfs/conv", 0): "0" * 16}
    cells = [{"label": "gap.bfs/conv", "kernel": "gap.bfs",
              "technique": "conv", "instructions": 10, "digest": "1" * 16,
              "ok": True},
             {"label": "gap.bfs/nowp", "kernel": "gap.bfs",
              "technique": "nowp", "instructions": 11, "digest": "2" * 16,
              "ok": True}]
    workload._check_round(2, cells)
    assert not any(cell["ok"] for cell in cells)
    assert any("different instruction counts" in f
               for f in workload.failures)
    assert any("round-0 digest" in f for f in workload.failures)


def test_outputs_match_uses_the_float_tolerance():
    assert workloads.outputs_match([3, 1.0005], [3, 1.0], 1e-3)
    assert not workloads.outputs_match([3, 1.01], [3, 1.0], 1e-3)
    assert not workloads.outputs_match([4, 1.0], [3, 1.0], 1e-3)
    assert not workloads.outputs_match([3], [3, 1.0], 1e-3)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_a_synthetic_span_tree():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.set_context("r0/k/conv")
    run = tracer.enter("simulator.run", True)
    clock.now = 1.0
    produce = tracer.enter("functional.produce", True)
    clock.now = 3.0
    predict = tracer.enter("branch.predict", False)
    clock.now = 3.5
    tracer.exit(predict)
    clock.now = 4.0
    tracer.exit(produce)
    process = tracer.enter("core.process", True)
    clock.now = 5.0
    data = tracer.enter("cache.data", False)
    clock.now = 5.25
    tracer.exit(data)
    clock.now = 6.0
    tracer.exit(process)
    clock.now = 10.0
    tracer.exit(run)

    assert tracer.total("simulator.run") == 10.0
    assert tracer.self_time("simulator.run") == 10.0 - 3.0 - 2.0
    assert tracer.self_time("functional.produce") == 3.0 - 0.5
    assert tracer.self_time("core.process") == 2.0 - 0.25
    assert tracer.self_time("branch.predict") == 0.5
    assert tracer.calls("cache.data") == 1
    spans = [s.to_dict() for s in tracer.spans if s is not None]
    assert [s["name"] for s in spans] == [
        "simulator.run", "functional.produce", "core.process"]
    assert [s["parent"] for s in spans] == [None, 0, 0]
    assert {s["ctx"] for s in spans} == {"r0/k/conv"}
    assert spans[0]["self"] == 5.0


def test_install_wraps_and_uninstall_restores():
    from repro.core.ooo import OoOCore
    from repro.simulator.simulation import Simulator
    from repro.workloads import build_workload
    originals = (vars(Simulator)["run"], vars(OoOCore)["process_batch"])
    tracer = Tracer()
    tracer.install()
    try:
        program = build_workload("gap.bfs", scale="tiny",
                                 check=False).program
        Simulator(program, technique="conv",
                  max_instructions=2000).run()
    finally:
        tracer.uninstall()
    assert (vars(Simulator)["run"], vars(OoOCore)["process_batch"]) \
        == originals
    assert tracer.calls("simulator.run") == 1
    assert tracer.calls("core.process") > 0
    assert tracer.calls("cache.data") > 0
    assert tracer.total("simulator.run") >= \
        tracer.self_time("core.process")


def test_install_refuses_a_missing_entry_point(monkeypatch):
    from repro.simulator.simulation import Simulator
    from perfbench import tracer as tracing
    original = vars(Simulator)["run"]
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("repro.core.ooo", "OoOCore.gone", "core.gone", False),))
    with pytest.raises(AttributeError, match="OoOCore.gone"):
        Tracer().install()
    assert vars(Simulator)["run"] is original


def test_host_speed_scales_only_host_time_metrics():
    speed = hostspeed.HostSpeed()
    with pytest.raises(ValueError):
        speed.slowdown()
    speed.samples = [hostspeed.REFERENCE_S, 2 * hostspeed.REFERENCE_S]
    assert speed.slowdown() == pytest.approx(1.5)
    raw = {"kips": 10.0, "jobs_per_s": 2.0, "req_p50_ms": 30.0,
           "req_p90_ms": 60.0, "conv_err_pct": 3.0, "setup_s": 1.0,
           "peak_rss_mb": 70.0}
    scaled = hostspeed.at_reference(raw, 1.5)
    assert (scaled["kips"], scaled["jobs_per_s"]) == (15.0, 3.0)
    assert (scaled["req_p50_ms"], scaled["req_p90_ms"]) == (20.0, 40.0)
    for name in ("conv_err_pct", "setup_s", "peak_rss_mb"):
        assert scaled[name] == raw[name]


def test_host_speed_sample_keeps_the_fastest_try():
    ticks = iter([0.0, 3.0, 10.0, 11.0, 20.0, 22.0])
    speed = hostspeed.HostSpeed(clock=lambda: next(ticks))
    speed.sample()
    assert speed.samples == [1.0]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert metrics.tail_percentile(list(range(1, 101))) == (90.0, 90)
    pct, value = metrics.tail_percentile(list(range(1, 51)))
    assert pct == 80.0 and value == 40
    assert metrics.tail_percentile([5.0, 1.0, 3.0]) == (50.0, 3.0)


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert metrics.verdict(base, [110.0, 111.0, 109.0, 110.5, 109.5],
                           "higher", 0.1) == "gain"
    assert metrics.verdict(base, [80.0, 81.0, 79.0, 80.5, 79.5],
                           "higher", 0.1) == "regression"
    assert metrics.verdict(base, [60.0, 140.0, 100.0, 70.0, 130.0],
                           "higher", 0.1) == "unresolved"
    assert metrics.verdict(base, list(base), "higher", 0.1) == "same"
    assert metrics.win_fraction([1.0], [1.0], "lower") == 0.0


def test_compare_mode_reads_saved_runs(tmp_path, capsys):
    def save(path, values):
        with open(path, "w") as fh:
            for value in values:
                fh.write(json.dumps({
                    "workload": "branchy", "seed": 1, "trace": 0,
                    "metrics": {"kips": {"value": value,
                                         "unit": "kinstr/s"}}}) + "\n")
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save(first, [100.0, 101.0, 99.0])
    save(second, [120.0, 121.0, 119.0])
    assert bench.main(["--compare", str(first), str(second)]) == 0
    row = [ln for ln in capsys.readouterr().out.splitlines()
           if ln.startswith("branchy")][0]
    assert row.split()[1] == "kips" and row.endswith("gain")


def test_benchmark_json_matches_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(metrics.PER_LAYER)
    assert max(m["bound"] for m in spec["end_to_end"]) == \
        metrics.BOUNDS["setup_s"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "branchy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_simcheck_clean_under_committed_baseline():
    from simcheck import Baseline, run_simcheck
    from simcheck.engine import BASELINE_PATH
    new, _ = run_simcheck([os.path.join(ROOT, "perfbench")],
                          baseline=Baseline.load(BASELINE_PATH))
    assert new == [], "\n".join(f.render() for f in new)

"""Tests for the decision of tools/perf_ab.py, the paired perfbench A/B.

Each test writes two synthetic ``perfbench/run.py --save`` files (REV
first, the change second) and reads the exit status ``report`` gives
them: no subprocess, no worktree, no benchmark run.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "tools"))
import perf_ab  # noqa: E402
from perfbench import metrics  # noqa: E402

PAIRS = 3


def record(failed=0, **values):
    """One saved untraced branchy run: every end-to-end metric at 100
    unless ``values`` says otherwise."""
    merged = {name: 100.0 for name, *_ in metrics.END_TO_END}
    merged.update(values)
    return {"workload": "branchy", "seed": 1, "trace": 0,
            "correct": failed == 0, "attempted": 200, "failed": failed,
            "metrics": {name: {"value": value, "unit": metrics.UNITS[name]}
                        for name, value in merged.items()}}


def status(tmp_path, rev, change, gate=True):
    paths = []
    for side, records in (("rev", rev), ("change", change)):
        path = tmp_path / f"{side}.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        paths.append(str(path))
    return perf_ab.report(*paths, ["branchy"], PAIRS, gate=gate)


def kips(*values, **kwargs):
    return [record(kips=v, **kwargs) for v in values]


class TestGate:
    def test_identical_sides_pass(self, tmp_path, capsys):
        runs = kips(99.0, 100.0, 101.0)
        assert status(tmp_path, runs, runs) == 0
        table = capsys.readouterr().out
        for name, *_ in metrics.END_TO_END:
            assert f"branchy   {name} " in table

    def test_tight_40_percent_slowdown_fails(self, tmp_path, capsys):
        assert status(tmp_path, kips(99.0, 100.0, 101.0),
                      kips(59.0, 60.0, 61.0)) == 1
        assert "branchy: kips rated regression" in capsys.readouterr().out

    def test_spread_wider_than_bound_is_unresolved_and_passes(
            self, tmp_path, capsys):
        # The change's median is 40% lower, but its runs spread over
        # more than the 25% bound, so the metric is not resolved.
        assert status(tmp_path, kips(99.0, 100.0, 101.0),
                      kips(30.0, 60.0, 140.0)) == 0
        assert "unresolved" in capsys.readouterr().out

    def test_larger_failed_share_fails(self, tmp_path, capsys):
        assert status(tmp_path, kips(99.0, 100.0, 101.0, failed=1),
                      kips(99.0, 100.0, 101.0, failed=2)) == 1
        out = capsys.readouterr().out
        assert ("REV 3 runs, failed share 0.0050; "
                "change 3 runs, failed share 0.0100") in out
        assert "branchy: the change failed a larger share" in out

    def test_missing_change_side_result_fails(self, tmp_path, capsys):
        assert status(tmp_path, kips(99.0, 100.0, 101.0),
                      kips(99.0, 100.0)) == 1
        assert "1 of 3 change-side runs" in capsys.readouterr().out

    def test_differing_benchmark_is_not_gated(self, tmp_path, capsys):
        assert status(tmp_path, kips(99.0, 100.0, 101.0),
                      kips(59.0, 60.0, 61.0), gate=False) == 0
        assert "not gated" in capsys.readouterr().out

"""Metric catalogue, summary statistics and the compare mode.

``END_TO_END`` and ``PER_LAYER`` are the names, units and directions
``BENCHMARK.json`` declares (a test keeps the two in step).  Every
workload reports every end-to-end metric in an untraced run and every
per-layer metric in a traced run; a layer a workload does not exercise
reads 0.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Workload data seed of the committed baseline, and the seed held out
#: for checking a claimed gain on inputs not used while writing it.
DEFAULT_SEED = 1
HELDOUT_SEED = 7919

#: (name, unit, better, bound): bound is the share of the parent's
#: median by which the metric may worsen before a change is rejected.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("kips", "kinstr/s", "higher", 0.25),
    ("jobs_per_s", "1/s", "higher", 0.25),
    ("req_p50_ms", "ms", "lower", 0.25),
    ("req_p90_ms", "ms", "lower", 0.25),
    ("conv_err_pct", "%", "lower", 0.20),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: (name, unit, better).  Times and counts are per round.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("functional.produce_s", "s", "lower"),
    ("functional.superblock_frac", "ratio", "higher"),
    ("functional.wp_emulate_s", "s", "lower"),
    ("functional.wp_emulated", "count", "lower"),
    ("functional.compile_s", "s", "lower"),
    ("frontend.queue_s", "s", "lower"),
    ("frontend.window_calls", "count", "lower"),
    ("core.process_s", "s", "lower"),
    ("core.timingblock_frac", "ratio", "higher"),
    ("core.compile_s", "s", "lower"),
    ("branch.predict_s", "s", "lower"),
    ("branch.predict_calls", "count", "lower"),
    ("wrongpath.mispredict_s", "s", "lower"),
    ("wrongpath.windows", "count", "lower"),
    ("wrongpath.wp_executed", "count", "lower"),
    ("wrongpath.streamblock_frac", "ratio", "higher"),
    ("wrongpath.conv_found_ratio", "ratio", "higher"),
    ("wrongpath.addr_recovered_ratio", "ratio", "higher"),
    ("wrongpath.compile_s", "s", "lower"),
    ("cache.data_s", "s", "lower"),
    ("cache.data_calls", "count", "lower"),
    ("cache.l1d_miss_ratio", "ratio", "lower"),
    ("cache.llc_miss_ratio", "ratio", "lower"),
    ("cache.wp_access_frac", "ratio", "lower"),
    ("simulator.run_s", "s", "lower"),
    ("simulator.functional_pass_s", "s", "lower"),
    ("simulator.snapshot_s", "s", "lower"),
    ("simulator.intervals", "count", "higher"),
    ("workloads.build_s", "s", "lower"),
    ("minicc.compile_s", "s", "lower"),
    ("engine.key_s", "s", "lower"),
    ("engine.store_get_s", "s", "lower"),
    ("engine.store_put_s", "s", "lower"),
    ("engine.store_hits", "count", "higher"),
    ("engine.store_misses", "count", "lower"),
    ("engine.journal_s", "s", "lower"),
    ("engine.retries", "count", "lower"),
    ("engine.worker_busy_frac", "ratio", "higher"),
    ("service.connect_s", "s", "lower"),
    ("service.hit_p50_ms", "ms", "lower"),
    ("service.sim_p50_ms", "ms", "lower"),
    ("service.shared_frac", "ratio", "higher"),
    ("service.hit_frac", "ratio", "higher"),
    ("trace.overhead_pct", "%", "lower"),
)

UNITS: Dict[str, str] = {name: unit for name, unit, *_ in END_TO_END}
UNITS.update({name: unit for name, unit, _ in PER_LAYER})
BETTER: Dict[str, str] = {name: better for name, _, better, *_ in END_TO_END}
BETTER.update({name: better for name, _, better in PER_LAYER})
BOUNDS: Dict[str, float] = {name: bound for name, _, _, bound in END_TO_END}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def tail_percentile(values: Sequence[float],
                    want: float = 90.0) -> Tuple[float, float]:
    """``(percentile, value)``: ``want`` if at least ten samples lie
    beyond it, else the highest percentile that still has ten beyond
    (nearest-rank).  Fewer than eleven samples fall back to the median."""
    ordered = sorted(values)
    n = len(ordered)
    pct = want
    if n * (1 - want / 100.0) < 10:
        pct = 100.0 * (n - 10) / n if n > 10 else 50.0
    if pct <= 50.0:
        return 50.0, median(ordered)
    rank = min(n - 1, max(0, int(-(-pct * n // 100)) - 1))
    return pct, ordered[rank]


# -- compare mode ---------------------------------------------------------------


def load_runs(path: str) -> Dict[str, List[dict]]:
    """Saved runs (one result object per line, as ``--save`` writes
    them) grouped by workload."""
    runs: Dict[str, List[dict]] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                record = json.loads(line)
                runs.setdefault(record["workload"], []).append(record)
    return runs


def _values(runs: Iterable[dict], metric: str) -> List[float]:
    return [run["metrics"][metric]["value"] for run in runs
            if metric in run.get("metrics", {})]


def win_fraction(first: Sequence[float], second: Sequence[float],
                 better: str) -> float:
    """Share of all (first, second) pairs the second side wins; ties
    count for neither side."""
    pairs = len(first) * len(second)
    if not pairs:
        return 0.0
    wins = 0
    for a in first:
        for b in second:
            if (b > a) if better == "higher" else (b < a):
                wins += 1
    return wins / pairs


def verdict(first: Sequence[float], second: Sequence[float], better: str,
            bound: Optional[float]) -> str:
    """``gain``, ``regression``, ``same`` or ``unresolved``.

    A gain needs nine tenths of the pairs and a median shift larger than
    the first side's own interquartile distance.  A regression is a
    median worse than the first side's by more than the bound.  When
    either side spreads wider than the bound the metric is unresolved,
    unless every run of the second side beats every run of the first.
    """
    q1a, ma, q3a = quartiles(first)
    _, mb, _ = quartiles(second)
    wins = win_fraction(first, second, better)
    if wins >= 0.9 and abs(mb - ma) > (q3a - q1a):
        return "gain"
    if bound is not None:
        if wins < 1.0 and max(spread(first), spread(second)) > bound:
            return "unresolved"
        worse = (ma - mb) if better == "higher" else (mb - ma)
        if ma and worse / abs(ma) > bound:
            return "regression"
    return "same"


def compare(first_path: str, second_path: str) -> List[str]:
    """Rendered comparison table lines for two saved sets of runs."""
    first, second = load_runs(first_path), load_runs(second_path)
    lines = [f"{'workload':9} {'metric':31} {'first q1/med/q3':>27} "
             f"{'second q1/med/q3':>27} {'wins':>5}  verdict"]
    for workload in sorted(set(first) & set(second)):
        names = sorted({name for run in first[workload] + second[workload]
                        for name in run.get("metrics", {})})
        for name in names:
            a = _values(first[workload], name)
            b = _values(second[workload], name)
            if not a or not b:
                continue
            better = BETTER.get(name, "higher")
            qa, qb = quartiles(a), quartiles(b)
            lines.append(
                f"{workload:9} {name:31} "
                f"{'/'.join(f'{v:.4g}' for v in qa):>27} "
                f"{'/'.join(f'{v:.4g}' for v in qb):>27} "
                f"{win_fraction(a, b, better):5.2f}  "
                f"{verdict(a, b, better, BOUNDS.get(name))}")
    return lines

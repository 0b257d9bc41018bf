#!/usr/bin/env python3
"""Paired perfbench A/B of the working tree against a git revision.

    python tools/perf_ab.py HEAD^ branchy --pairs 3
    python tools/perf_ab.py main branchy sweep serve --seed 7919

Checks REV out into a temporary ``git worktree`` and runs untraced
``perfbench/run.py --save`` on it and on the working tree, for
``BENCHMARK.json``'s ``run_seconds`` each, alternating which side runs
first.  Each tree runs its own ``perfbench/`` on its own ``src/``, with
``PYTHONPATH`` cleared.  Both sides share one host and one sitting, so
no stored baseline is involved.  Prints ``perfbench/run.py --compare``'s
table with REV as the first side, and exits 1 when any end-to-end
metric is rated ``regression``, a change-side run saved no result, or
the change failed a larger share of its operations than REV.  When
``perfbench/`` or ``BENCHMARK.json`` differ between the two trees, the
sides measure different things: the tool says so and exits 0.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import metrics  # noqa: E402

#: What the two sides must share for their verdicts to mean anything.
BENCHMARK_PATHS = ("perfbench", "BENCHMARK.json")


def run_side(tree: str, workload: str, seed: int, seconds: float,
             save: str) -> None:
    """One untraced perfbench run of ``tree``, appended to ``save``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0", "--save", save],
        cwd=tree, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True)
    if proc.returncode:
        print(f"  exit status {proc.returncode}; its last lines:")
        for line in proc.stdout.splitlines()[-15:]:
            print(f"    {line}")


def failed_share(runs: Sequence[dict]) -> float:
    return metrics.ratio(sum(r["failed"] for r in runs),
                         sum(r["attempted"] for r in runs))


def report(rev_path: str, change_path: str, workloads: Sequence[str],
           pairs: int, gate: bool = True) -> int:
    """Print the compare table and every reason the change fails the
    gate; returns the exit status."""
    for line in metrics.compare(rev_path, change_path):
        print(line)
    rev, change = metrics.load_runs(rev_path), metrics.load_runs(change_path)
    reasons: List[str] = []
    for workload in workloads:
        a, b = rev.get(workload, []), change.get(workload, [])
        print(f"{workload}: REV {len(a)} runs, failed share "
              f"{failed_share(a):.4f}; change {len(b)} runs, failed share "
              f"{failed_share(b):.4f}")
        if len(b) < pairs:
            reasons.append(f"{workload}: {pairs - len(b)} of {pairs} "
                           f"change-side runs saved no result")
        if failed_share(b) > failed_share(a):
            reasons.append(f"{workload}: the change failed a larger "
                           f"share of its operations")
        for name, _, better, bound in metrics.END_TO_END:
            first = [r["metrics"][name]["value"] for r in a
                     if name in r["metrics"]]
            second = [r["metrics"][name]["value"] for r in b
                      if name in r["metrics"]]
            if first and second and metrics.verdict(
                    first, second, better, bound) == "regression":
                reasons.append(f"{workload}: {name} rated regression")
    for reason in reasons:
        print(f"FAIL {reason}")
    if not gate:
        print(f"{' and '.join(BENCHMARK_PATHS)} differ from REV, so the "
              f"two sides measure different things: not gated")
        return 0
    return 1 if reasons else 0


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", metavar="REV",
                        help="git revision to measure the working tree "
                             "against")
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help=f"default: {' '.join(names)}")
    parser.add_argument("--pairs", type=int, default=3,
                        help="runs per side and workload")
    parser.add_argument("--seed", type=int, default=metrics.DEFAULT_SEED)
    args = parser.parse_args(argv)
    workloads = args.workloads or names
    if set(workloads) - set(names) or args.pairs < 1:
        parser.error(f"workloads are {', '.join(names)}; --pairs >= 1")

    work = tempfile.mkdtemp(prefix="perf-ab-")
    trees = {"REV": os.path.join(work, "rev"), "change": ROOT}
    saves = {side: os.path.join(work, f"{side}.jsonl") for side in trees}
    for path in saves.values():
        open(path, "w").close()
    git = ["git", "-C", ROOT]
    try:
        subprocess.run(git + ["worktree", "add", "--detach", trees["REV"],
                              args.rev], check=True, stdout=subprocess.DEVNULL)
        for pair in range(args.pairs):
            order = ("REV", "change") if pair % 2 == 0 else ("change", "REV")
            for workload in workloads:
                for side in order:
                    start = time.perf_counter()
                    run_side(trees[side], workload, args.seed,
                             bench["run_seconds"], saves[side])
                    print(f"pair {pair + 1}/{args.pairs} {workload} {side}: "
                          f"{time.perf_counter() - start:.0f} s", flush=True)
        same = subprocess.run(git + ["diff", "--quiet", args.rev, "--",
                                     *BENCHMARK_PATHS]).returncode == 0
        return report(saves["REV"], saves["change"], workloads, args.pairs,
                      gate=same)
    finally:
        subprocess.run(git + ["worktree", "remove", "--force", trees["REV"]],
                       stderr=subprocess.DEVNULL)
        shutil.rmtree(work, ignore_errors=True)
        subprocess.run(git + ["worktree", "prune"])


if __name__ == "__main__":
    sys.exit(main())

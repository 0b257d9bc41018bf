#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload branchy --seed 1 --seconds 35
    python3 perfbench/run.py --workload sweep --seed 1 --seconds 35 --trace 1
    python3 perfbench/run.py --compare before.jsonl after.jsonl

An untraced run (``--trace 0``) prints every end-to-end metric, with
host time scaled to a reference host speed (``perfbench/hostspeed.py``)
and the raw figure beside it; a traced run (``--trace 1``) prints every
per-layer metric and a self-time table.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--save FILE``
also appends that object, tagged with workload and seed, to ``FILE``;
``--compare`` reads two such files.  The ``repro`` package is imported
from ``src/`` of the same checkout; without it the run exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import subprocess
import sys
import time
from typing import Dict, Optional

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import ROOT, SRC, WORK  # noqa: E402
from perfbench import metrics  # noqa: E402
from perfbench.hostspeed import REFERENCE_S, at_reference  # noqa: E402

#: Fresh-interpreter set-ups timed per untraced run; ``setup_s`` is
#: their median.
SETUP_PROBES = 5


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="branchy",
                        choices=("branchy", "sweep", "serve"))
    parser.add_argument("--seed", type=int, default=metrics.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measuring window; whole rounds run until "
                             "the next one would end past it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", metavar="FILE",
                        help="append the result object to this JSONL file")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                        help="compare two files written by --save")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def layer_times(tracer, rounds: int) -> Dict[str, float]:
    """Per-layer host times from the tracer, per traced round."""
    n = max(1, rounds)
    own = tracer.self_time
    tot = tracer.total
    return {
        "functional.produce_s": own("functional.produce") / n,
        "functional.wp_emulate_s": own("functional.wp_emulate") / n,
        "functional.compile_s": tot("functional.compile") / n,
        "frontend.queue_s": (own("frontend.prepare")
                             + own("frontend.window")) / n,
        "frontend.window_calls": tracer.calls("frontend.window") / n,
        "core.process_s": own("core.process") / n,
        "core.compile_s": tot("core.compile") / n,
        "branch.predict_s": tot("branch.predict") / n,
        "branch.predict_calls": tracer.calls("branch.predict") / n,
        "wrongpath.mispredict_s": own("wrongpath.mispredict") / n,
        "wrongpath.compile_s": tot("wrongpath.compile") / n,
        "cache.data_s": tot("cache.data") / n,
        "cache.data_calls": tracer.calls("cache.data") / n,
        "simulator.run_s": tot("simulator.run") / n,
        "simulator.functional_pass_s": tot("simulator.functional_pass") / n,
        "simulator.snapshot_s": tot("simulator.snapshot") / n,
        "engine.key_s": tot("engine.key") / n,
        "engine.store_get_s": tot("engine.store_get") / n,
        "engine.store_put_s": tot("engine.store_put") / n,
        "engine.store_hits": tracer.counts.get("engine.store_hits", 0) / n,
        "engine.store_misses":
            tracer.counts.get("engine.store_misses", 0) / n,
        "engine.journal_s": tot("engine.journal") / n,
        "service.connect_s": tot("service.connect") / n,
    }


def technique_split(tracer, names=("simulator.run", "functional.produce",
                                   "functional.wp_emulate",
                                   "frontend.prepare", "frontend.window",
                                   "core.process", "wrongpath.mispredict",
                                   "branch.predict", "cache.data",
                                   "functional.compile", "core.compile",
                                   "wrongpath.compile")
                    ) -> Dict[str, Dict[str, float]]:
    """Self seconds per span name and technique (from the cell context
    ``r<round>/<kernel>/<technique>``); ``simulator.run`` is total."""
    split: Dict[str, Dict[str, float]] = {name: {} for name in names}
    for (name, ctx), (_, total, own) in tracer.by_ctx.items():
        if name not in split or not ctx:
            continue
        technique = ctx.rsplit("/", 1)[-1]
        value = total if name == "simulator.run" else own
        split[name][technique] = split[name].get(technique, 0.0) + value
    return split


def probe_setup(workload: str, seed: int) -> Optional[float]:
    """Seconds from spawning a fresh interpreter on this script to its
    set-up finishing (imports, builds, fingerprint, daemon ping)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed",
         str(seed), "--setup-probe"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    elapsed = None
    try:
        for line in proc.stdout:
            if line.strip() == "SETUP-READY":
                elapsed = time.perf_counter() - start
                break
        proc.stdout.read()
        proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return elapsed


def peak_rss_mb(children: bool) -> float:
    """Peak RSS of this process, plus the largest waited-for descendant
    when ``children`` (pool workers, the daemon, set-up probes)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def reap_children() -> None:
    """Wait for every multiprocessing child (engine pool workers)."""
    for child in multiprocessing.active_children():
        child.join(timeout=60)


def measure(workload, seconds: float, tracer) -> list:
    """Run the workload's warm-up rounds (at least one in a traced run),
    then whole rounds until the next would end past ``seconds``, and at
    least the workload's minimum.  After the warm-up a traced run
    alternates traced and untraced rounds, starting traced, and runs at
    least one of each."""
    rounds = []
    warmup = max(workload.warmup, 1 if tracer is not None else 0)
    minimum = max(workload.min_rounds, 2 if tracer is not None else 1)
    index = 0
    start = time.perf_counter()
    while True:
        measured = index >= warmup
        traced = (tracer is not None and measured
                  and (index - warmup) % 2 == 0)
        if traced:
            tracer.install()
        try:
            record = workload.run_round(index, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        record["traced"] = traced
        record["warmup"] = not measured
        rounds.append(record)
        for line in workload.describe_round(index, record):
            print(line, flush=True)
        index += 1
        if not measured:
            start = time.perf_counter()
            continue
        elapsed = time.perf_counter() - start
        if index - warmup >= minimum and elapsed + record["wall"] > seconds:
            return rounds


def render(rows, title: str) -> None:
    print(f"\n{title}")
    for name, value, unit, note in rows:
        print(f"  {name:32} {value:>14.6g} {unit:9} {note}")


def layer_report(workload, tracer, rounds, setup_totals) -> dict:
    traced = [r for r in rounds if r["traced"]]
    # The warm-up fills the compiled blocks a daemon or forked pool
    # worker keeps, so it sits on neither side of the overhead.
    plain = [r for r in rounds if not r["traced"] and not r["warmup"]]
    values = {name: 0.0 for name, _, _ in metrics.PER_LAYER}
    values.update(layer_times(tracer, len(traced)))
    values.update(workload.layer_counts(traced))
    values.update(setup_totals)
    base = metrics.median([r["primary"] for r in plain])
    hit = metrics.median([r["primary"] for r in traced])
    values["trace.overhead_pct"] = (base / hit - 1.0) * 100.0 if hit else 0.0
    # Shares only where the simulations ran in this process.
    run_s = tracer.total("simulator.run") / max(1, len(traced))
    rows = []
    for name, unit, _ in metrics.PER_LAYER:
        note = f"on {workload.primary}" if name == "trace.overhead_pct" \
            else ""
        if unit == "s" and run_s and name.split(".")[0] in (
                "functional", "frontend", "core", "branch", "wrongpath",
                "cache"):
            note = f"{100.0 * values[name] / run_s:5.1f}% of simulator.run"
        rows.append((name, values[name], unit, note))
    render(rows, f"per-layer metrics ({workload.name}, per traced round, "
                 f"{len(traced)} traced / {len(plain)} untraced rounds; "
                 f"self time unless a compile or leaf call)")
    split_report(tracer)
    return values


def split_report(tracer) -> None:
    """Self seconds per layer and technique, and how wpemul's extra
    time over conv splits across them (the paper's Sec. V-B)."""
    from perfbench.workloads import TECHNIQUES
    split = technique_split(tracer)
    if not split["simulator.run"]:
        return
    print("\nself time by technique (s, summed over traced rounds)")
    print(f"  {'span':24}" + "".join(f"{t:>10}" for t in TECHNIQUES)
          + f"{'wpemul-conv':>13}{'share':>8}")
    extra = (split["simulator.run"].get("wpemul", 0.0)
             - split["simulator.run"].get("conv", 0.0))
    for name, by_tech in split.items():
        delta = by_tech.get("wpemul", 0.0) - by_tech.get("conv", 0.0)
        share = f"{100.0 * delta / extra:7.1f}%" if extra else ""
        print(f"  {name:24}"
              + "".join(f"{by_tech.get(t, 0.0):10.3f}" for t in TECHNIQUES)
              + f"{delta:13.3f}{share:>8}")


def run(workload, seconds: float, trace: bool,
        probes: int = SETUP_PROBES) -> dict:
    """Set up, time ``probes`` fresh-interpreter set-ups (untraced runs
    only), measure, tear down, print the report; returns the result
    object."""
    tracer = setup_tracer = None
    if trace:
        from perfbench.tracer import Tracer
        tracer, setup_tracer = Tracer(), Tracer()
        workload.single_input()
    print(f"perfbench {workload.name}: seed {workload.seed}, "
          f"window {seconds:g} s, trace {int(trace)}", flush=True)
    try:
        if setup_tracer is not None:
            setup_tracer.install()
        try:
            workload.setup()
        finally:
            if setup_tracer is not None:
                setup_tracer.uninstall()
        if tracer is None:
            setups = [probe_setup(workload.name, workload.seed)
                      for _ in range(probes)]
            if any(p is None for p in setups):
                raise RuntimeError("a set-up probe never finished set-up")
            print(f"set-up in fresh interpreters: "
                  f"{', '.join(f'{p:.3f}' for p in setups)} s", flush=True)
        rounds = measure(workload, seconds, tracer)
    finally:
        workload.teardown()
        reap_children()
    # Warm-up rounds are gated like any other but not timed.
    measured = [r for r in rounds if not r["warmup"]]
    wall = sum(r["wall"] for r in measured)
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)

    if tracer is None:
        raw = workload.end_to_end(measured, wall)
        raw["setup_s"] = metrics.median(setups)
        raw["peak_rss_mb"] = peak_rss_mb(workload.children)
        slowdown = workload.speed.slowdown()
        e2e = at_reference(raw, slowdown)
        tail = f"p{e2e['_tail_pct']:.0f} of {e2e['_samples']} samples"
        render([(name, e2e[name], unit,
                 (f"raw {raw[name]:.6g}" if e2e[name] != raw[name] else "")
                 + (f", {tail}" if name == "req_p90_ms" else ""))
                for name, unit, _, _ in metrics.END_TO_END],
               f"end-to-end metrics ({workload.name}, {len(measured)} "
               f"rounds, {wall:.2f} s measured, "
               f"{len(rounds) - len(measured)} warm-up)")
        print(f"  host-time metrics at the reference speed: "
              f"{len(workload.speed.samples)} probes, mean "
              f"{slowdown * REFERENCE_S * 1000:.3f} ms against "
              f"{REFERENCE_S * 1000:.3f} ms (slowdown {slowdown:.4f})")
        values = {name: e2e[name] for name, *_ in metrics.END_TO_END}
    else:
        values = layer_report(workload, tracer, rounds, {
            "workloads.build_s": setup_tracer.total("workloads.build"),
            "minicc.compile_s": setup_tracer.total("minicc.compile")})
        path = os.path.join(WORK, f"spans-{workload.name}-s{workload.seed}"
                                  f"-{os.getpid()}.jsonl")
        print(f"\n{tracer.write(path)} spans written to {path}")

    print(f"\ncorrectness: {attempted - failed}/{attempted} "
          f"{workload.unit} passed the gate "
          f"(failed_frac {metrics.ratio(failed, attempted):.4f})")
    for message in workload.failures[:20]:
        print(f"  FAIL {message}")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": metrics.UNITS[name]}
                        for name, value in values.items()}}


def main(argv=None) -> int:
    args = parse(argv)
    if args.compare:
        for line in metrics.compare(*args.compare):
            print(line)
        return 0
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from perfbench import workloads
    os.makedirs(WORK, exist_ok=True)
    workload = workloads.make(args.workload, args.seed)
    if args.setup_probe:
        try:
            workload.setup()
            print("SETUP-READY", flush=True)
        finally:
            workload.teardown()
        return 0
    result = run(workload, args.seconds, bool(args.trace))
    if args.save:
        with open(args.save, "a") as fh:
            fh.write(json.dumps(dict(result, workload=workload.name,
                                     seed=args.seed, trace=args.trace))
                     + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

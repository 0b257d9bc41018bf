#!/usr/bin/env python3
"""Trace replay and sampled simulation.

Two methodology tools around the core simulator:

1. **Traces** — record a workload's correct-path stream once, replay it
   cycle-exactly under nowp/instrec/conv.  Requesting wpemul on a trace
   fails by construction, demonstrating the paper's Section III-B caveat
   that trace frontends cannot emulate wrong paths.
2. **Sampling** — a functional pass warms caches, TLB, predictor and code
   cache and snapshots every detailed-interval boundary; each detailed
   interval restores its snapshot and runs on its own (the paper
   simulates SimPoint samples of its workloads).  Here the intervals run
   in-process one after another; ``sample_workload(..., engine=...)``
   runs them as independent, cached jobs on the experiment engine's pool
   or the sweep daemon.

Run:  python examples/trace_and_sampling.py
"""

import os
import tempfile

from repro import CoreConfig, Simulator
from repro.functional.trace import (InstructionTrace, TraceError,
                                    simulate_trace)
from repro.simulator.sampling import simulate_sampled
from repro.workloads import build_workload


def main() -> None:
    cfg = CoreConfig.scaled()
    workload = build_workload("gap.cc", scale="small", check=False)
    program = workload.program

    # --- record, save, reload, replay -------------------------------------
    trace = InstructionTrace.record(program)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cc.trace")
        trace.save(path)
        size_kib = os.path.getsize(path) / 1024
        reloaded = InstructionTrace.load(path, program)
    print(f"recorded {len(trace)} instructions "
          f"({size_kib:.0f} KiB on disk)")

    live = Simulator(program, config=cfg, technique="conv").run()
    replayed = simulate_trace(reloaded, technique="conv", config=cfg)
    print(f"live  conv: {live.cycles} cycles")
    print(f"trace conv: {replayed.cycles} cycles "
          f"(cycle-exact: {live.cycles == replayed.cycles})")

    try:
        simulate_trace(reloaded, technique="wpemul", config=cfg)
    except TraceError as exc:
        print(f"wpemul on a trace -> rejected as expected: {exc}")

    # --- sampling ----------------------------------------------------------
    full = Simulator(program, config=cfg, technique="nowp").run()
    sampled = simulate_sampled(program, technique="nowp", config=cfg,
                               detail_length=5000,
                               fastforward_length=20_000)
    error = (sampled.ipc - full.ipc) / full.ipc * 100
    print(f"\nfull detail: IPC {full.ipc:.4f}")
    print(f"sampled    : IPC {sampled.ipc:.4f} (error {error:+.2f}%), "
          f"{sampled.intervals} detailed intervals, "
          f"{sampled.detail_fraction * 100:.0f}% of "
          f"{sampled.total_instructions} instructions in detail")
    print("sample_workload(..., engine=...) runs the same intervals as "
          "independent jobs on the engine's pool or the sweep daemon")


if __name__ == "__main__":
    main()

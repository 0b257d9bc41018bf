"""``sweep`` and ``sample``: (workloads x techniques x config) grids
through the experiment engine, run in full or as checkpointed
samples."""

from __future__ import annotations

import hashlib
import os
import time

from repro.analysis.report import percent, render_table
from repro.cli import (_add_engine, _add_grid_axes, _add_trace,
                       _add_workload_input, _grid_axes, _make_engine,
                       _warn_abandoned)
from repro.simulator.simulation import TECHNIQUES


def _overrides_label(overrides: dict) -> str:
    if not overrides:
        return "-"
    return ",".join(f"{k}={v}" for k, v in sorted(overrides.items()))


def add_sweep(sub) -> None:
    sweep = sub.add_parser(
        "sweep",
        help="run a (workloads x techniques x config) grid through the "
             "experiment engine",
        description="Expand a grid of simulations and execute it with "
                    "worker-process fan-out and a content-addressed "
                    "result cache. Re-running an identical sweep only "
                    "re-simulates jobs whose inputs (or the repro source "
                    "tree) changed; everything else is a cache hit.")
    _add_grid_axes(sweep)
    _add_workload_input(sweep, scale="medium", max_instructions=500_000)
    _add_trace(sweep)
    _add_engine(sweep)
    sweep.set_defaults(handler=cmd_sweep)


def cmd_sweep(args) -> int:
    from repro.engine import ExperimentEngine, expand_grid, parse_overrides

    points = [parse_overrides(text) for text in (args.set or [])] or None
    grid = expand_grid(
        args.workloads.split(","), args.techniques.split(","),
        config_points=points, scale=args.scale, seed=args.seed,
        max_instructions=args.max_instructions,
        base_config=args.base_config)
    if args.trace:
        for job in grid:
            job.trace_dir = args.trace
    engine = _make_engine(args)

    start = time.perf_counter()
    # --trace implies fresh runs: a cache hit simulates nothing and so
    # cannot write a trace.
    outcomes = engine.run(grid, fresh=args.refresh or bool(args.trace))
    wall = time.perf_counter() - start

    # wpemul is the error reference wherever the grid includes it.
    references = {(o.job.workload, _overrides_label(o.job.config_overrides)):
                  o.result for o in outcomes
                  if o.ok and o.job.technique == "wpemul"}

    rows = []
    for outcome in outcomes:
        job = outcome.job
        over = _overrides_label(job.config_overrides)
        if not outcome.ok:
            rows.append((job.workload, job.technique, over, "-", "-", "-",
                         "-", f"FAILED: {outcome.error}"))
            continue
        result = outcome.result
        reference = references.get((job.workload, over))
        error = (percent(result.error_vs(reference), 2)
                 if reference is not None else "-")
        rows.append((job.workload, job.technique, over,
                     f"{result.ipc:.4f}", error,
                     f"{result.branch_mpki:.2f}",
                     f"{result.wall_seconds:.2f}s",
                     "hit" if outcome.cached else "run"))
    print(render_table(
        f"sweep: {len(outcomes)} jobs "
        f"(scale={args.scale}, cap={args.max_instructions})",
        ["workload", "technique", "config", "IPC", "error", "bMPKI",
         "sim wall", "cache"], rows))

    summary = ExperimentEngine.summarize(outcomes)
    hit_pct = (100.0 * summary["hits"] / summary["total"]
               if summary["total"] else 0.0)
    print(f"\n{summary['total']} jobs: {summary['hits']} cache hits "
          f"({hit_pct:.0f}%), {summary['simulated']} simulated, "
          f"{summary['failed']} failed; "
          f"wall {wall:.2f}s, sim time {summary['sim_wall_seconds']:.2f}s")
    if engine.store is not None:
        print(f"cache: {engine.store.root} ({len(engine.store)} entries); "
              f"journal: {engine.journal.path}")
    if args.trace:
        print(f"traces: {os.path.abspath(args.trace)} "
              f"(inspect with 'repro report')")
    return 1 if _warn_abandoned(engine) or summary["failed"] else 0


def add_sample(sub) -> None:
    sample = sub.add_parser(
        "sample",
        help="checkpointed sampled simulation: fast functional pass + "
             "parallel detailed intervals restored from snapshots",
        description="Run each (workload x technique) point as a "
                    "checkpointed sampled simulation: one fast functional "
                    "pass warms caches/predictors and emits a snapshot at "
                    "every detailed-interval boundary; the detailed "
                    "intervals then restore their snapshots and run "
                    "independently through the experiment engine (parallel "
                    "worker processes or the sweep daemon, content-"
                    "addressed caching).  Results are bit-identical for any "
                    "--jobs count.  --validate TECH additionally runs the "
                    "full (unsampled) simulation for that technique and "
                    "reports the sampled-vs-full IPC error.")
    _add_grid_axes(sample)
    _add_workload_input(sample)
    sample.add_argument("--detail-length", type=int, default=10_000,
                        metavar="N", help="instructions per detailed "
                        "interval (default: 10000)")
    sample.add_argument("--ff-length", type=int, default=40_000,
                        metavar="N", help="instructions fast-forwarded "
                        "(functionally warmed) between detailed intervals "
                        "(default: 40000)")
    sample.add_argument("--validate", default=None, metavar="TECH",
                        choices=sorted(TECHNIQUES),
                        help="also run the full (unsampled) simulation under "
                             "TECH and report the sampled IPC error against "
                             "it")
    _add_engine(sample)
    sample.set_defaults(handler=cmd_sample)


def cmd_sample(args) -> int:
    from repro.engine import SimJob, parse_overrides
    from repro.simulator.sampling import sample_workload

    workloads, techniques = _grid_axes(args)
    points = [parse_overrides(text) for text in (args.set or [])] or [{}]
    engine = _make_engine(args)

    start = time.perf_counter()
    rows, digests, errors = [], [], []
    failed = 0
    for workload in workloads:
        for overrides in points:
            over = _overrides_label(overrides)
            full_ipc = None
            if args.validate:
                ref = engine.run([SimJob(
                    workload=workload, technique=args.validate,
                    scale=args.scale, seed=args.seed,
                    max_instructions=args.max_instructions,
                    base_config=args.base_config,
                    config_overrides=overrides)])[0]
                if ref.result is not None:
                    full_ipc = ref.result.ipc
            for technique in techniques:
                try:
                    result = sample_workload(
                        workload, technique=technique, scale=args.scale,
                        seed=args.seed, base_config=args.base_config,
                        config_overrides=overrides,
                        detail_length=args.detail_length,
                        fastforward_length=args.ff_length,
                        max_instructions=args.max_instructions,
                        engine=engine, fresh=args.refresh)
                except RuntimeError as exc:
                    failed += 1
                    rows.append((workload, technique, over, "-", "-",
                                 "-", "-", f"FAILED: {exc}"))
                    continue
                digests.append(result.digest())
                error = "-"
                if full_ipc and technique == args.validate:
                    rel = abs(result.ipc - full_ipc) / full_ipc
                    errors.append(rel)
                    error = f"{rel * 100:.2f}%"
                rows.append((workload, technique, over,
                             f"{result.ipc:.4f}", error,
                             result.intervals,
                             f"{result.detail_fraction * 100:.0f}%",
                             result.total_instructions))
    wall = time.perf_counter() - start

    print(render_table(
        f"sample: {len(rows)} runs (detail={args.detail_length}, "
        f"ff={args.ff_length}, scale={args.scale})",
        ["workload", "technique", "config", "IPC",
         "err vs full" if args.validate else "err", "intervals",
         "detail", "instructions"], rows))

    combined = hashlib.sha256(
        "\n".join(digests).encode()).hexdigest()
    print(f"\n{len(rows)} sampled runs, {failed} failed; "
          f"wall {wall:.2f}s; combined digest {combined[:16]}")
    if errors:
        print(f"validate ({args.validate}): mean |IPC error| "
              f"{100.0 * sum(errors) / len(errors):.2f}% "
              f"over {len(errors)} run(s)")
    if engine.store is not None:
        print(f"cache: {engine.store.root} "
              f"({len(engine.store)} entries)")
    return 1 if _warn_abandoned(engine) or failed else 0

"""Command-line interface.

::

    python -m repro list                         # available workloads
    python -m repro run gap.bfs --technique conv --scale small
    python -m repro compare gap.sssp --max-instructions 100000
    python -m repro compare gap.sssp --jobs 4    # engine-backed, cached
    python -m repro sweep --workloads bfs,pr --techniques nowp,conv \
        --jobs 4                                 # parallel grid sweep
    python -m repro sample --workloads bfs --techniques conv \
        --jobs 4 --validate conv                 # checkpointed sampling
    python -m repro run gap.bfs --trace traces   # + episode trace
    python -m repro report traces                # Tables II/III from it
    python -m repro compile kernel.c -o kernel.s # minicc to assembly
    python -m repro fuzz --seed 1234 --budget 200 --jobs 2
    python -m repro fuzz --replay .fuzz-corpus/case-....json
    python -m repro serve --socket /tmp/repro.sock --jobs 4
    python -m repro sweep --workloads bfs --daemon /tmp/repro.sock
    python -m repro cache stats
    python -m repro cache gc --max-bytes 100000000
    python -m repro surrogate train --out surrogate.json
    python -m repro predict --model surrogate.json --points 500 \
        --budget 32 --validate 50               # learned IPC surrogate

``sweep`` and ``compare --jobs`` (or ``--daemon``) run through the
experiment engine (:mod:`repro.engine`): jobs fan out over worker
processes and finished results are cached content-addressed under
``.repro-cache/`` (override with ``--cache-dir`` or
``REPRO_CACHE_DIR``), so re-running a grid only simulates jobs whose
inputs — or the repro source tree — changed.

``serve`` starts the long-running sweep daemon (:mod:`repro.service`):
one shared warm cache and worker pool for any number of concurrent
clients, with in-flight dedupe by content key.  ``sweep``/``compare``/
``fuzz`` become thin clients with ``--daemon SOCKET`` and fall back to
the embedded engine transparently when no daemon is listening.
``cache`` inspects and garbage-collects a result store (LRU, via the
store index) whether flat or sharded on disk.

``--trace DIR`` (on ``run``/``compare``/``sweep``) writes one episode
trace per simulation into ``DIR`` (:mod:`repro.obs`); ``report DIR``
aggregates those traces — plus any engine journal — back into the
paper's Table II/III internals.  On the engine-backed paths ``--trace``
implies ``--refresh``: cache hits simulate nothing and so cannot trace.

Exit status is non-zero on simulation/compilation errors — including
abandoned engine attempts (stuck workers) and traces that fail the
lossless-decomposition cross-check — so the CLI can be scripted.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from typing import List, Optional

from repro import Simulator, compare_techniques
from repro.analysis.report import percent, render_table
from repro.simulator.simulation import ALL_TECHNIQUES, TECHNIQUES


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", default="small",
                        choices=("tiny", "small", "medium"),
                        help="workload input scale (default: small)")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload data seed")
    parser.add_argument("--max-instructions", type=int, default=None,
                        help="truncate simulation after N instructions")
    parser.add_argument("--full-config", action="store_true",
                        help="use the full-scale Table I configuration "
                             "instead of the downscaled one")
    parser.add_argument("--trace", default=None, metavar="DIR",
                        help="write per-episode wrong-path traces into "
                             "DIR (inspect with 'repro report DIR')")


def _add_engine(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for the experiment engine "
                             "(default: os.cpu_count(); 1 = serial "
                             "in-process)")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-job timeout in seconds (pool mode only)")
    parser.add_argument("--retries", type=int, default=1, metavar="N",
                        help="extra attempts per failed job; a job whose "
                             "worker died beside other jobs gets one more, "
                             "alone (default: 1)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result cache root (default: $REPRO_CACHE_DIR "
                             "or .repro-cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result store entirely")
    parser.add_argument("--refresh", action="store_true",
                        help="ignore cached results (still writes fresh "
                             "ones back)")
    parser.add_argument("--daemon", default=None, metavar="SOCKET",
                        help="submit through the sweep daemon listening "
                             "on this Unix socket (repro serve); falls "
                             "back to the embedded engine when no "
                             "daemon is running")


def _daemon_client(args):
    """Client connected to the daemon at ``args.daemon``, closed when
    the command returns, or None (with a stderr note) so the caller
    falls back to the embedded engine."""
    from repro.service import connect_or_none
    client = connect_or_none(args.daemon)
    if client is None:
        print(f"note: no daemon listening on {args.daemon}; "
              f"falling back to the embedded engine", file=sys.stderr)
        return None
    return args.resources.enter_context(client)


def _make_engine(args):
    if getattr(args, "daemon", None):
        client = _daemon_client(args)
        if client is not None:
            return client
    from repro.engine import ExperimentEngine, ResultStore
    store = None if args.no_cache else ResultStore(args.cache_dir)
    return ExperimentEngine(store=store, jobs=args.jobs,
                            timeout=args.timeout, retries=args.retries)


def _warn_abandoned(engine) -> bool:
    """Surface abandoned engine attempts (expired workers that could not
    be cancelled).  They are journaled but easy to miss — a job can be
    abandoned yet succeed on retry — so the CLI prints them and exits
    nonzero.  Returns True when any attempt was abandoned."""
    if not engine.abandoned:
        return False
    names = ", ".join(sorted({a["job"] for a in engine.abandoned}))
    print(f"error: {len(engine.abandoned)} attempt(s) abandoned "
          f"(worker stuck past timeout): {names}", file=sys.stderr)
    if engine.journal is not None:
        print(f"see journal: {engine.journal.path}", file=sys.stderr)
    return True


def _build(args) -> tuple:
    from repro.engine.job import build_job_workload, resolve_config
    workload = build_job_workload(args.workload, args.scale, args.seed)
    config = resolve_config("full" if args.full_config else "scaled")
    return workload, config


def cmd_list(args) -> int:
    # Imported here: the registry takes most of the CLI's import time,
    # and no other command needs it at startup.
    from repro.workloads import build_workload, workload_names
    rows = []
    for name in workload_names():
        workload = build_workload(name, scale="tiny", check=False)
        rows.append((name, workload.suite, workload.description))
    print(render_table("available workloads",
                       ["name", "suite", "description"], rows))
    return 0


def cmd_run(args) -> int:
    workload, config = _build(args)
    obs = None
    if args.trace:
        from repro.obs import Observability
        obs = Observability(trace_dir=args.trace,
                            label=f"{workload.name}-{args.technique}")
    result = Simulator(workload.program, config=config,
                       technique=args.technique,
                       max_instructions=args.max_instructions,
                       name=workload.name, obs=obs).run()
    stats = result.stats
    rows = [
        ("instructions", stats.instructions),
        ("cycles", stats.cycles),
        ("IPC", f"{result.ipc:.4f}"),
        ("branch MPKI", f"{result.branch_mpki:.2f}"),
        ("mispredict windows", stats.mispredict_windows),
        ("WP instructions fetched", stats.wp_fetched),
        ("WP instructions executed", stats.wp_executed),
        ("WP addresses recovered", stats.wp_addr_recovered),
        ("L1D miss rate",
         f"{result.cache_stats['l1d']['miss_rate'] * 100:.2f}%"),
        ("L2 miss rate",
         f"{result.cache_stats['l2']['miss_rate'] * 100:.2f}%"),
        ("wall seconds", f"{result.wall_seconds:.2f}"),
    ]
    if args.technique == "conv":
        rows.extend([
            ("convergence found", percent(stats.conv_fraction)),
            ("convergence distance", f"{stats.conv_distance:.1f}"),
            ("addr recover fraction",
             percent(stats.addr_recover_fraction)),
        ])
    print(render_table(f"{workload.name} / {args.technique}",
                       ["metric", "value"], rows))
    if result.output:
        print(f"\nprogram output: {result.output}")
    if obs is not None:
        print(f"\ntrace: {obs.episode_path} ({obs.episodes} episodes)")
    return 0


def cmd_compare(args) -> int:
    if args.jobs is not None or args.daemon:
        from repro import compare_workload
        engine = _make_engine(args)
        try:
            cmp = compare_workload(
                args.workload, scale=args.scale, seed=args.seed,
                max_instructions=args.max_instructions,
                base_config="full" if args.full_config else "scaled",
                engine=engine,
                # A cache hit simulates nothing, so tracing needs fresh
                # runs to produce complete traces.
                fresh=args.refresh or bool(args.trace),
                trace_dir=args.trace)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            _warn_abandoned(engine)
            return 1
        if _warn_abandoned(engine):
            return 1
        name = cmp.name
    else:
        workload, config = _build(args)
        cmp = compare_techniques(workload.program, config=config,
                                 max_instructions=args.max_instructions,
                                 name=workload.name,
                                 trace_dir=args.trace)
        name = workload.name
    rows = []
    for technique in ALL_TECHNIQUES:
        result = cmp.results[technique]
        rows.append((technique, f"{result.ipc:.4f}",
                     percent(cmp.error(technique), 2),
                     f"{cmp.slowdown(technique):.2f}x",
                     result.stats.wp_executed))
    print(render_table(
        f"{name}: technique comparison (error vs wpemul)",
        ["technique", "IPC", "error", "slowdown", "WP executed"], rows))
    if args.trace:
        print(f"\ntraces: {os.path.abspath(args.trace)} "
              f"(inspect with 'repro report')")
    return 0


def _overrides_label(overrides: dict) -> str:
    if not overrides:
        return "-"
    return ",".join(f"{k}={v}" for k, v in sorted(overrides.items()))


def cmd_sweep(args) -> int:
    from repro.engine import ExperimentEngine, expand_grid, parse_overrides

    points = [parse_overrides(text) for text in (args.set or [])] or None
    grid = expand_grid(
        args.workloads.split(","), args.techniques.split(","),
        config_points=points, scale=args.scale, seed=args.seed,
        max_instructions=args.max_instructions,
        base_config="full" if args.full_config else "scaled")
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
    references = {}
    for outcome in outcomes:
        job = outcome.job
        if outcome.ok and job.technique == "wpemul":
            references[(job.workload,
                        _overrides_label(job.config_overrides))] = \
                outcome.result

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
    if _warn_abandoned(engine):
        return 1
    return 1 if summary["failed"] else 0


def cmd_sample(args) -> int:
    import hashlib

    from repro.engine import (parse_overrides, resolve_techniques,
                              resolve_workloads)
    from repro.simulator.sampling import sample_workload

    workloads = resolve_workloads(args.workloads.split(","))
    techniques = resolve_techniques(args.techniques.split(","))
    points = [parse_overrides(text) for text in (args.set or [])] or [{}]
    base_config = "full" if args.full_config else "scaled"
    engine = _make_engine(args)

    start = time.perf_counter()
    rows = []
    digests = []
    errors = []
    failed = 0
    for workload in workloads:
        for overrides in points:
            over = _overrides_label(overrides)
            full_ipc = None
            if args.validate:
                from repro.engine import SimJob
                ref = engine.run([SimJob(
                    workload=workload, technique=args.validate,
                    scale=args.scale, seed=args.seed,
                    max_instructions=args.max_instructions,
                    base_config=base_config,
                    config_overrides=overrides)])[0]
                if ref.result is not None:
                    full_ipc = ref.result.ipc
            for technique in techniques:
                try:
                    result = sample_workload(
                        workload, technique=technique, scale=args.scale,
                        seed=args.seed, base_config=base_config,
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
    if _warn_abandoned(engine):
        return 1
    return 1 if failed else 0


def cmd_report(args) -> int:
    from repro.obs import build_report, render_report
    if not os.path.isdir(args.trace_dir):
        print(f"error: no such trace directory: {args.trace_dir}",
              file=sys.stderr)
        return 1
    report = build_report(args.trace_dir, journal_path=args.journal,
                          workload=args.workload)
    if not report["runs"] and not report.get("journal"):
        print(f"error: no run manifests (*.run.json) or journal found "
              f"in {args.trace_dir}", file=sys.stderr)
        return 1
    print(render_report(report, fmt=args.format))
    if not all(r["consistent"] for r in report["runs"]):
        print("error: episode sums do not match run aggregates "
              "(corrupt or stale trace?)", file=sys.stderr)
        return 1
    return 0


def cmd_compile(args) -> int:
    from repro.minicc import CompileError, compile_source
    from repro.minicc.lexer import LexerError
    from repro.minicc.parser import ParseError
    try:
        with open(args.source) as fh:
            assembly = compile_source(fh.read())
    except (CompileError, LexerError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(assembly)
    else:
        print(assembly, end="")
    return 0


def cmd_serve(args) -> int:
    from repro.engine import ResultStore
    from repro.service import ServiceDaemon
    store = None if args.no_cache else ResultStore(args.cache_dir)
    try:
        daemon = ServiceDaemon(args.socket, store=store,
                               workers=args.jobs, timeout=args.timeout,
                               retries=args.retries,
                               http_port=args.http)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    def ready() -> None:
        line = f"repro daemon listening on {daemon.socket_path}"
        if daemon.http_bound is not None:
            line += f" (http {daemon.http_host}:{daemon.http_bound})"
        print(line, flush=True)
        if store is not None:
            print(f"cache: {store.root}", flush=True)

    try:
        daemon.run(ready=ready)
    except RuntimeError as exc:     # e.g. live daemon on the socket
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _human_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" \
                else f"{int(value)} B"
        value /= 1024
    return f"{value:.1f} GiB"   # pragma: no cover


def cmd_cache(args) -> int:
    from repro.engine import ResultStore
    store = ResultStore(args.cache_dir)
    if args.action == "stats":
        stats = store.stats()
        rows = [
            ("root", stats["root"]),
            ("entries", stats["entries"]),
            ("bytes", f"{stats['bytes']} ({_human_bytes(stats['bytes'])})"),
            ("shards used", f"{stats['shards_used']}/{stats['shards_max']}"),
            ("indexed entries", stats["indexed"]),
            ("read-through roots",
             ", ".join(stats["read_roots"]) or "-"),
        ]
        print(render_table("result cache", ["metric", "value"], rows))
        return 0
    if args.max_bytes is None:
        print("error: cache gc needs --max-bytes N", file=sys.stderr)
        return 1
    summary = store.gc(args.max_bytes)
    print(f"evicted {summary['evicted']} entries "
          f"({_human_bytes(summary['freed_bytes'])}); "
          f"kept {summary['kept']} "
          f"({_human_bytes(summary['bytes'])})")
    return 0


def cmd_fuzz(args) -> int:
    from repro.fuzz import fuzz, replay_path

    if args.replay:
        if not os.path.isfile(args.replay):
            print(f"error: no such corpus file: {args.replay}",
                  file=sys.stderr)
            return 1
        outcome = replay_path(args.replay)
        if outcome.ok:
            print(f"{args.replay}: no longer reproduces (all oracles "
                  f"clean)")
            return 0
        print(f"{args.replay}: reproduces "
              f"({', '.join(outcome.oracles)})")
        for finding in outcome.findings:
            print(f"  [{finding['oracle']}] "
                  f"{finding.get('technique') or '-'}: "
                  f"{finding['detail']}")
        return 1

    def progress(done: int, total: int, failing: int) -> None:
        print(f"\r  {done}/{total} cases, {failing} failing",
              end="", file=sys.stderr, flush=True)

    engine = None
    if args.daemon:
        engine = _daemon_client(args)

    report = fuzz(seed=args.seed, budget=args.budget,
                  jobs=args.jobs or 1, frontend=args.frontend,
                  corpus_dir=args.corpus, shrink=not args.no_shrink,
                  max_seconds=args.max_seconds, engine=engine,
                  # main() maps 0 -> None for the sweep path; fuzz
                  # always caps, so fall back to the default there.
                  max_instructions=args.max_instructions or 20000,
                  progress=progress if not args.quiet else None)
    if not args.quiet:
        print(file=sys.stderr)
    print(report.summary())
    print(f"findings digest: {report.findings_digest()}")
    for failure in report.failures:
        oracles = ", ".join(failure["oracles"])
        line = f"  {failure['case_id']}: {oracles}"
        if "shrunk" in failure:
            shrunk_lines = len(
                failure["shrunk"]["source"].splitlines())
            line += (f" (shrunk to {shrunk_lines} lines, "
                     f"{failure['shrink_evals']} evals)")
        print(line)
        print(f"    corpus: {failure['corpus_path']}")
    if report.stopped_early:
        print(f"note: time box hit after {report.cases} cases",
              file=sys.stderr)
    return 0 if report.ok else 1


def cmd_surrogate(args) -> int:
    from repro.analysis.surrogate import (SurrogateModel, evaluate,
                                          harvest, split)
    from repro.engine import ResultStore
    from repro.engine.grid import resolve_techniques, resolve_workloads

    store = ResultStore(args.cache_dir)
    workloads = resolve_workloads(args.workloads.split(",")) \
        if args.workloads else None
    techniques = resolve_techniques(args.techniques.split(",")) \
        if args.techniques else None
    points = harvest(store, workloads, techniques)
    if len(points) < 2:
        print(f"error: found {len(points)} usable sim results in "
              f"{store.root}; the surrogate trains on cached results — "
              f"run a sweep first (e.g. 'repro sweep --scale tiny')",
              file=sys.stderr)
        return 1

    profiles = None
    if args.trace:
        from repro.obs import trace_statistics
        profiles = {}
        for workload in sorted({p.workload for p in points}):
            stats = trace_statistics(args.trace, workload)
            if stats.get("episodes"):
                profiles[workload] = stats

    train_points, held = split(points, holdout=args.holdout,
                               seed=args.seed)
    model = SurrogateModel.train(
        train_points, seed=args.seed, kind=args.kind,
        members=args.members, estimators=args.estimators,
        trace_profiles=profiles)
    held_eval = evaluate(model, held)

    rows = [
        ("cache", store.root),
        ("harvested points", len(points)),
        ("train / held out", f"{len(train_points)} / {len(held)}"),
        ("model kind", model.kind),
        ("ensemble members", len(model.members)),
        ("trace profiles", len(model.trace_profiles)),
        ("model digest", model.digest()[:16]),
    ]
    if held:
        rows.append(("held-out mean |IPC err|",
                     percent(held_eval["mean_rel_error"], 2)))
        rows.append(("held-out max |IPC err|",
                     percent(held_eval["max_rel_error"], 2)))
    print(render_table("surrogate train", ["metric", "value"], rows))
    model.save(args.out)
    print(f"model written to {os.path.abspath(args.out)}")
    if held and args.max_error is not None and \
            held_eval["mean_rel_error"] > args.max_error:
        print(f"error: held-out mean |IPC error| "
              f"{held_eval['mean_rel_error']:.4f} exceeds the bound "
              f"{args.max_error:.4f}", file=sys.stderr)
        return 1
    return 0


def cmd_predict(args) -> int:
    import random as _random

    from repro.analysis.surrogate import (PredictJob, SurrogateModel,
                                          harvest, predict_jobs, refine,
                                          sample_grid)
    from repro.engine import ResultStore

    model = SurrogateModel.load(args.model)
    meta = model.train_meta
    if args.workloads:
        from repro.engine.grid import resolve_workloads
        workloads = resolve_workloads(args.workloads.split(","))
    else:
        workloads = list(meta.get("workloads") or [])
    if args.techniques:
        from repro.engine.grid import resolve_techniques
        techniques = resolve_techniques(args.techniques.split(","))
    else:
        techniques = list(meta.get("techniques")
                          or sorted(ALL_TECHNIQUES))
    jobs = sample_grid(
        workloads, techniques, args.points, grid_seed=args.grid_seed,
        scale=args.scale, seed=args.seed,
        max_instructions=args.max_instructions,
        base_config="full" if args.full_config else "scaled")
    engine = _make_engine(args)

    if args.budget:
        store = engine.store if getattr(engine, "store", None) \
            is not None else ResultStore(args.cache_dir)
        training = harvest(store)
        model, report = refine(model, jobs, engine, training,
                               args.budget)
        print(f"refine: {report.queried}/{report.budget} oracle sims "
              f"({report.failed} failed), train set {report.n_train}, "
              f"|err| on queried {report.mean_error_before:.4f} -> "
              f"{report.mean_error_after:.4f}, model "
              f"{report.digest_before[:12]} -> "
              f"{report.digest_after[:12]}")
        if args.out:
            model.save(args.out)
            print(f"refined model written to "
                  f"{os.path.abspath(args.out)}")

    outcome = engine.run([PredictJob.for_jobs(model, jobs)])[0]
    if outcome.result is not None:
        predictions = outcome.result.predictions
        served = "hit" if outcome.cached else "run"
    else:   # storeless failure path: predict inline, never bail
        predictions = predict_jobs(model, jobs)
        served = "inline"

    shown = sorted(predictions, key=lambda p: p.confidence)
    rows = [(p.workload, p.technique, f"{p.ipc:.4f}",
             f"{p.confidence:.3f}") for p in shown[:args.show]]
    print(render_table(
        f"predict: {len(predictions)} points "
        f"(model {model.digest()[:12]}, cache {served}; "
        f"{args.show} lowest-confidence shown)",
        ["workload", "technique", "IPC~", "confidence"], rows))
    mean_conf = sum(p.confidence for p in predictions) / len(predictions)
    print(f"mean confidence {mean_conf:.3f}; "
          f"lowest {shown[0].confidence:.3f} ({shown[0].label})")

    if args.validate:
        rng = _random.Random(args.grid_seed + 1)
        picked = sorted(rng.sample(range(len(jobs)),
                                   min(args.validate, len(jobs))))
        truth_outcomes = engine.run([jobs[i] for i in picked])
        by_key = {p.key: p for p in predictions}
        errors = []
        for truth in truth_outcomes:
            if truth.result is None or not truth.result.instructions:
                continue
            measured = truth.result.ipc
            predicted = by_key[truth.job.key].ipc
            errors.append(abs(predicted - measured) / measured)
        if not errors:
            print("error: no validation job produced a result",
                  file=sys.stderr)
            return 1
        mean_err = sum(errors) / len(errors)
        print(f"validation: {len(errors)} ground-truth sims, "
              f"mean |IPC error| {mean_err:.4f} "
              f"(max {max(errors):.4f}, bound {args.max_error:.4f})")
        if mean_err > args.max_error:
            print(f"error: mean |IPC error| {mean_err:.4f} exceeds "
                  f"the bound {args.max_error:.4f}", file=sys.stderr)
            return 1
    if _warn_abandoned(engine):
        return 1
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Wrong-path modeling in decoupled functional-first "
                    "simulation (ISPASS 2023 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available workloads")

    run = sub.add_parser("run", help="simulate one workload")
    run.add_argument("workload", help="registry name, e.g. gap.bfs")
    run.add_argument("--technique", default="conv",
                     choices=sorted(TECHNIQUES))
    _add_common(run)

    cmp = sub.add_parser("compare",
                         help="simulate under all four techniques "
                              "(--jobs N or --daemon SOCKET runs them "
                              "through the parallel, cached experiment "
                              "engine)")
    cmp.add_argument("workload")
    _add_common(cmp)
    _add_engine(cmp)

    sweep = sub.add_parser(
        "sweep",
        help="run a (workloads x techniques x config) grid through the "
             "experiment engine",
        description="Expand a grid of simulations and execute it with "
                    "worker-process fan-out and a content-addressed "
                    "result cache. Re-running an identical sweep only "
                    "re-simulates jobs whose inputs (or the repro source "
                    "tree) changed; everything else is a cache hit.")
    sweep.add_argument("--workloads", default="gap",
                       help="comma list of workload names, short names "
                            "(bfs -> gap.bfs) or groups "
                            "(gap, spec, spec.int, spec.fp, all); "
                            "default: gap")
    sweep.add_argument("--techniques", default="all",
                       help="comma list of techniques or 'all' "
                            "(default: all)")
    sweep.add_argument("--scale", default="medium",
                       choices=("tiny", "small", "medium"),
                       help="workload input scale (default: medium)")
    sweep.add_argument("--seed", type=int, default=None,
                       help="workload data seed")
    sweep.add_argument("--max-instructions", type=int, default=500_000,
                       help="per-job instruction cap (default: 500000; "
                            "0 = uncapped)")
    sweep.add_argument("--full-config", action="store_true",
                       help="use the full-scale Table I configuration")
    sweep.add_argument("--set", action="append", metavar="K=V[,K=V...]",
                       help="one CoreConfig override point per flag; "
                            "repeat to add a config axis to the grid "
                            "(e.g. --set rob_size=128 --set rob_size=512)")
    sweep.add_argument("--trace", default=None, metavar="DIR",
                       help="write per-episode wrong-path traces into "
                            "DIR (implies --refresh)")
    _add_engine(sweep)

    sample = sub.add_parser(
        "sample",
        help="checkpointed sampled simulation: fast functional pass + "
             "parallel detailed intervals restored from snapshots",
        description="Run each (workload x technique) point as a "
                    "checkpointed sampled simulation: one fast "
                    "functional pass warms caches/predictors and emits "
                    "a snapshot at every detailed-interval boundary; "
                    "the detailed intervals then restore their "
                    "snapshots and run independently through the "
                    "experiment engine (parallel worker processes or "
                    "the sweep daemon, content-addressed caching).  "
                    "Results are bit-identical for any --jobs count.  "
                    "--validate TECH additionally runs the full "
                    "(unsampled) simulation for that technique and "
                    "reports the sampled-vs-full IPC error.")
    sample.add_argument("--workloads", default="gap",
                        help="comma list of workload names, short names "
                             "(bfs -> gap.bfs) or groups "
                             "(gap, spec, spec.int, spec.fp, all); "
                             "default: gap")
    sample.add_argument("--techniques", default="all",
                        help="comma list of techniques or 'all' "
                             "(default: all)")
    sample.add_argument("--scale", default="small",
                        choices=("tiny", "small", "medium"),
                        help="workload input scale (default: small)")
    sample.add_argument("--seed", type=int, default=None,
                        help="workload data seed")
    sample.add_argument("--detail-length", type=int, default=10_000,
                        metavar="N",
                        help="instructions per detailed interval "
                             "(default: 10000)")
    sample.add_argument("--ff-length", type=int, default=40_000,
                        metavar="N",
                        help="instructions fast-forwarded (functionally "
                             "warmed) between detailed intervals "
                             "(default: 40000)")
    sample.add_argument("--max-instructions", type=int, default=None,
                        help="truncate the sampling plan after N "
                             "instructions (0 = uncapped)")
    sample.add_argument("--full-config", action="store_true",
                        help="use the full-scale Table I configuration")
    sample.add_argument("--set", action="append", metavar="K=V[,K=V...]",
                        help="one CoreConfig override point per flag; "
                             "repeat to add a config axis to the grid")
    sample.add_argument("--validate", default=None, metavar="TECH",
                        choices=sorted(TECHNIQUES),
                        help="also run the full (unsampled) simulation "
                             "under TECH and report the sampled IPC "
                             "error against it")
    _add_engine(sample)

    report = sub.add_parser(
        "report",
        help="aggregate --trace output (and engine journals) into the "
             "paper's Table II/III wrong-path internals",
        description="Read the episode traces in DIR (written by "
                    "run/compare/sweep --trace DIR), cross-check that "
                    "each trace losslessly decomposes its run's "
                    "aggregate counters, and render Table II (WP "
                    "instruction fractions) and Table III (convergence "
                    "internals) from the episodes alone.  A journal "
                    "summary is appended when DIR (or --journal) has "
                    "one.")
    report.add_argument("trace_dir", metavar="DIR",
                        help="trace directory written by --trace")
    report.add_argument("--format", default="table",
                        choices=("table", "md", "json"),
                        help="output format (default: table)")
    report.add_argument("--journal", default=None, metavar="PATH",
                        help="engine journal to summarize (default: "
                             "DIR/journal.jsonl when present)")
    report.add_argument("--workload", default=None, metavar="NAME",
                        help="only report runs of this workload "
                             "(e.g. gap.bfs)")

    compile_ = sub.add_parser("compile",
                              help="compile minicc source to assembly")
    compile_.add_argument("source", help="minicc source file")
    compile_.add_argument("-o", "--output", default=None,
                          help="write assembly here (default: stdout)")

    fuzz_ = sub.add_parser(
        "fuzz",
        help="differential fuzzing: random programs + configs through "
             "all four techniques with cross-checking oracles",
        description="Generate seeded random (program, config) cases, "
                    "run each under nowp/instrec/conv/wpemul, and "
                    "cross-check architectural equivalence, metamorphic "
                    "properties and serialization round-trips "
                    "(repro.fuzz).  Failures are delta-debug shrunk to "
                    "minimal repros in the corpus directory; replay one "
                    "byte-identically with --replay FILE.  Exit status "
                    "is 1 when any case fails.")
    fuzz_.add_argument("--seed", type=int, default=0,
                       help="master seed (default: 0); the whole run is "
                            "deterministic given (seed, budget, "
                            "frontend)")
    fuzz_.add_argument("--budget", type=int, default=100, metavar="N",
                       help="number of cases to generate (default: 100)")
    fuzz_.add_argument("--jobs", type=int, default=None, metavar="K",
                       help="worker processes via the experiment engine "
                            "(default: 1 = serial in-process)")
    fuzz_.add_argument("--frontend", default="both",
                       choices=("both", "isa", "minicc"),
                       help="program generator to draw from "
                            "(default: both, alternating)")
    fuzz_.add_argument("--max-instructions", type=int, default=20000,
                       help="per-case instruction cap (default: 20000)")
    fuzz_.add_argument("--corpus", default=".fuzz-corpus", metavar="DIR",
                       help="where shrunk failing cases are written "
                            "(default: .fuzz-corpus)")
    fuzz_.add_argument("--no-shrink", action="store_true",
                       help="save failing cases unshrunk")
    fuzz_.add_argument("--max-seconds", type=float, default=None,
                       metavar="S",
                       help="time-box case execution (checked between "
                            "engine chunks)")
    fuzz_.add_argument("--replay", default=None, metavar="FILE",
                       help="re-run one saved corpus case through the "
                            "oracle battery and exit")
    fuzz_.add_argument("--quiet", action="store_true",
                       help="suppress the progress line on stderr")
    fuzz_.add_argument("--daemon", default=None, metavar="SOCKET",
                       help="ship case execution to the sweep daemon on "
                            "this Unix socket (falls back to the "
                            "embedded engine when none is running)")

    serve = sub.add_parser(
        "serve",
        help="run the sweep daemon: a shared warm cache + worker pool "
             "serving many concurrent clients over a Unix socket",
        description="Start the long-running simulation service "
                    "(repro.service). Clients submit sweep/compare/fuzz "
                    "jobs over a newline-JSON Unix-socket protocol "
                    "(sweep/compare/fuzz --daemon SOCKET); identical "
                    "in-flight jobs are deduplicated by their "
                    "content-addressed key so N clients share one "
                    "execution, and results land in the shared "
                    "content-addressed cache. Stop with Ctrl-C, "
                    "SIGTERM, or a client 'shutdown' request.")
    serve.add_argument("--socket", required=True, metavar="PATH",
                       help="Unix socket path to listen on")
    serve.add_argument("--http", type=int, default=None, metavar="PORT",
                       help="also serve a localhost HTTP front on this "
                            "port (0 = pick a free port): GET /healthz, "
                            "GET /status, POST /submit")
    serve.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="worker processes (default: os.cpu_count())")
    serve.add_argument("--timeout", type=float, default=None,
                       metavar="S", help="per-attempt job timeout")
    serve.add_argument("--retries", type=int, default=1, metavar="N",
                       help="extra attempts per failed job; a job whose "
                            "worker died beside other jobs gets one more, "
                            "alone (default: 1)")
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="result cache root (default: "
                            "$REPRO_CACHE_DIR or .repro-cache)")
    serve.add_argument("--no-cache", action="store_true",
                       help="run storeless (results are never cached)")

    surrogate = sub.add_parser(
        "surrogate",
        help="train the learned IPC surrogate on cached sweep results "
             "(surrogate train)",
        description="Harvest every cached kind='sim' result in the "
                    "store into (job spec, measured IPC) training "
                    "pairs, fit the seeded surrogate regressor "
                    "(repro.analysis.surrogate), evaluate it "
                    "differentially on a held-out split, and write the "
                    "model artifact as JSON.  The artifact round-trips "
                    "byte-stably and its content digest is folded into "
                    "'repro predict' cache keys.")
    surrogate.add_argument("action", choices=("train",))
    surrogate.add_argument("--out", default="surrogate.json",
                           metavar="FILE",
                           help="model artifact path (default: "
                                "surrogate.json)")
    surrogate.add_argument("--cache-dir", default=None, metavar="DIR",
                           help="result cache to harvest (default: "
                                "$REPRO_CACHE_DIR or .repro-cache)")
    surrogate.add_argument("--workloads", default=None,
                           help="restrict the harvest to these "
                                "workloads/groups (default: all cached)")
    surrogate.add_argument("--techniques", default=None,
                           help="restrict the harvest to these "
                                "techniques (default: all cached)")
    surrogate.add_argument("--seed", type=int, default=0,
                           help="training seed: same seed + same "
                                "harvest = bit-identical artifact "
                                "(default: 0)")
    surrogate.add_argument("--kind", default="auto",
                           choices=("auto", "gbm", "ridge"),
                           help="regressor family (default: auto — "
                                "gbm, or ridge for tiny harvests)")
    surrogate.add_argument("--members", type=int, default=5, metavar="K",
                           help="bootstrap ensemble size; disagreement "
                                "drives confidence (default: 5)")
    surrogate.add_argument("--estimators", type=int, default=250,
                           metavar="N",
                           help="boosted trees per gbm member "
                                "(default: 250)")
    surrogate.add_argument("--holdout", type=float, default=0.25,
                           metavar="F",
                           help="held-out fraction for the differential "
                                "error report (default: 0.25)")
    surrogate.add_argument("--trace", default=None, metavar="DIR",
                           help="fold per-workload episode-trace "
                                "statistics from DIR into the features")
    surrogate.add_argument("--max-error", type=float, default=None,
                           metavar="F",
                           help="exit nonzero when held-out mean "
                                "relative |IPC error| exceeds F")

    predict = sub.add_parser(
        "predict",
        help="score a config grid with the trained surrogate instead "
             "of simulating it (--budget N buys real sims where the "
             "model is least confident)",
        description="Stamp out a seeded (workloads x techniques x "
                    "random-config) grid over the fuzzer's 31 override "
                    "axes and predict each point's IPC with a trained "
                    "surrogate model, with a per-point confidence "
                    "score.  The batch runs as a content-addressed "
                    "kind='predict' engine job whose key includes the "
                    "model digest, so repeats are cache hits and "
                    "retrained models never serve stale predictions.  "
                    "--budget N first routes the N lowest-confidence "
                    "points through the real engine as ordinary sim "
                    "jobs, refits on the answers, and predicts with "
                    "the refined model; --validate K ground-truths K "
                    "seed-pinned points and enforces --max-error.")
    predict.add_argument("--model", default="surrogate.json",
                         metavar="FILE",
                         help="trained model artifact from 'repro "
                              "surrogate train' (default: "
                              "surrogate.json)")
    predict.add_argument("--workloads", default=None,
                         help="comma list of workloads/groups "
                              "(default: the model's training "
                              "workloads)")
    predict.add_argument("--techniques", default=None,
                         help="comma list of techniques (default: the "
                              "model's training techniques)")
    predict.add_argument("--points", type=int, default=100, metavar="N",
                         help="grid points to predict (default: 100)")
    predict.add_argument("--grid-seed", type=int, default=0,
                         help="seed for the config grid (default: 0)")
    predict.add_argument("--scale", default="tiny",
                         choices=("tiny", "small", "medium"),
                         help="workload input scale (default: tiny)")
    predict.add_argument("--seed", type=int, default=None,
                         help="workload data seed")
    predict.add_argument("--max-instructions", type=int, default=20000,
                         help="instruction cap baked into each grid "
                              "point (default: 20000; 0 = uncapped)")
    predict.add_argument("--full-config", action="store_true",
                         help="overrides apply to the full-scale "
                              "Table I configuration")
    predict.add_argument("--budget", type=int, default=0, metavar="N",
                         help="active learning: run the N lowest-"
                              "confidence points through the real "
                              "engine and refit before predicting "
                              "(default: 0 = off)")
    predict.add_argument("--out", default=None, metavar="FILE",
                         help="with --budget: write the refined model "
                              "artifact here")
    predict.add_argument("--show", type=int, default=20, metavar="N",
                         help="lowest-confidence rows to print "
                              "(default: 20)")
    predict.add_argument("--validate", type=int, default=0, metavar="K",
                         help="ground-truth K seed-pinned grid points "
                              "with the real engine and report the "
                              "mean relative |IPC error| (default: 0)")
    predict.add_argument("--max-error", type=float, default=0.10,
                         metavar="F",
                         help="with --validate: exit nonzero when the "
                              "mean relative |IPC error| exceeds F "
                              "(default: 0.10, the committed "
                              "guardrail)")
    _add_engine(predict)

    cache = sub.add_parser(
        "cache",
        help="inspect or garbage-collect a result store "
             "(stats / gc --max-bytes N)",
        description="Operate on a content-addressed result cache "
                    "directly on disk. 'stats' reports entries, bytes "
                    "and shard fill; 'gc' evicts least-recently-used "
                    "entries (per the store index) down to a byte "
                    "budget.")
    cache.add_argument("action", choices=("stats", "gc"))
    cache.add_argument("--max-bytes", type=int, default=None,
                       metavar="N",
                       help="gc: evict LRU entries until the store "
                            "holds at most N bytes")
    cache.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="result cache root (default: "
                            "$REPRO_CACHE_DIR or .repro-cache)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    if getattr(args, "max_instructions", None) == 0:
        args.max_instructions = None    # sweep: 0 means uncapped
    handlers = {"list": cmd_list, "run": cmd_run, "compare": cmd_compare,
                "sweep": cmd_sweep, "sample": cmd_sample,
                "report": cmd_report, "compile": cmd_compile,
                "fuzz": cmd_fuzz, "serve": cmd_serve, "cache": cmd_cache,
                "surrogate": cmd_surrogate, "predict": cmd_predict}
    handler = handlers[args.command]
    with contextlib.ExitStack() as resources:
        # What a command opens through ``args.resources`` (a daemon
        # client) closes when the command returns.
        args.resources = resources
        try:
            return handler(args)
        except KeyError as exc:  # unknown workload/technique name
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except ValueError as exc:  # bad --set override, bad config value
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())

"""``list``, ``run``, ``compare``, ``report`` and ``compile``: one
workload at a time, the traces its runs leave, and the compiler the
workloads are written for."""

from __future__ import annotations

import os

from repro import Simulator, compare_techniques
from repro.analysis.report import percent, render_table
from repro.cli import (_add_engine, _add_trace, _add_workload_input,
                       _fail, _make_engine, _warn_abandoned)
from repro.simulator.simulation import ALL_TECHNIQUES, TECHNIQUES


def _add_workload(parser) -> None:
    """One registry workload, its inputs and ``--trace`` (run,
    compare)."""
    parser.add_argument("workload", help="registry name, e.g. gap.bfs")
    _add_workload_input(parser)
    _add_trace(parser)


def _build(args) -> tuple:
    from repro.engine.job import build_job_workload, resolve_config
    workload = build_job_workload(args.workload, args.scale, args.seed)
    return workload, resolve_config(args.base_config)


def add_list(sub) -> None:
    sub.add_parser("list", help="list available workloads") \
        .set_defaults(handler=cmd_list)


def cmd_list(args) -> int:
    from repro.workloads import build_workload, workload_names
    rows = []
    for name in workload_names():
        workload = build_workload(name, scale="tiny", check=False)
        rows.append((name, workload.suite, workload.description))
    print(render_table("available workloads",
                       ["name", "suite", "description"], rows))
    return 0


def add_run(sub) -> None:
    run = sub.add_parser("run", help="simulate one workload")
    _add_workload(run)
    run.add_argument("--technique", default="conv",
                     choices=sorted(TECHNIQUES))
    run.set_defaults(handler=cmd_run)


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


def add_compare(sub) -> None:
    cmp = sub.add_parser("compare", help="simulate under all four "
                         "techniques (--jobs N or --daemon SOCKET runs them "
                         "through the parallel, cached experiment engine)")
    _add_workload(cmp)
    _add_engine(cmp)
    cmp.set_defaults(handler=cmd_compare)


def cmd_compare(args) -> int:
    if args.jobs is not None or args.daemon:
        from repro import compare_workload
        engine = _make_engine(args)
        try:
            cmp = compare_workload(
                args.workload, scale=args.scale, seed=args.seed,
                max_instructions=args.max_instructions,
                base_config=args.base_config, engine=engine,
                # A cache hit simulates nothing, so tracing needs fresh
                # runs to produce complete traces.
                fresh=args.refresh or bool(args.trace),
                trace_dir=args.trace)
        except RuntimeError as exc:
            _fail(exc)
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


def add_report(sub) -> None:
    report = sub.add_parser(
        "report",
        help="aggregate --trace output (and engine journals) into the "
             "paper's Table II/III wrong-path internals",
        description="Read the episode traces in DIR (written by run/compare/"
                    "sweep --trace DIR), cross-check that each trace "
                    "losslessly decomposes its run's aggregate counters, "
                    "and render Table II (WP instruction fractions) and "
                    "Table III (convergence internals) from the episodes "
                    "alone.  A journal summary is appended when DIR (or "
                    "--journal) has one.")
    report.add_argument("trace_dir", metavar="DIR",
                        help="trace directory written by --trace")
    report.add_argument("--format", default="table",
                        choices=("table", "md", "json"),
                        help="output format (default: table)")
    report.add_argument("--journal", default=None, metavar="PATH",
                        help="engine journal to summarize (default: "
                             "DIR/journal.jsonl when present)")
    report.add_argument("--workload", default=None, metavar="NAME",
                        help="only report runs of this workload (e.g. "
                             "gap.bfs)")
    report.set_defaults(handler=cmd_report)


def cmd_report(args) -> int:
    from repro.obs import build_report, render_report
    if not os.path.isdir(args.trace_dir):
        return _fail(f"no such trace directory: {args.trace_dir}")
    report = build_report(args.trace_dir, journal_path=args.journal,
                          workload=args.workload)
    if not report["runs"] and not report.get("journal"):
        return _fail(f"no run manifests (*.run.json) or journal found in "
                     f"{args.trace_dir}")
    print(render_report(report, fmt=args.format))
    if not all(r["consistent"] for r in report["runs"]):
        return _fail("episode sums do not match run aggregates (corrupt "
                     "or stale trace?)")
    return 0


def add_compile(sub) -> None:
    compile_ = sub.add_parser("compile",
                              help="compile minicc source to assembly")
    compile_.add_argument("source", help="minicc source file")
    compile_.add_argument("-o", "--output", default=None,
                          help="write assembly here (default: stdout)")
    compile_.set_defaults(handler=cmd_compile)


def cmd_compile(args) -> int:
    from repro.minicc import CompileError, compile_source
    from repro.minicc.lexer import LexerError
    from repro.minicc.parser import ParseError
    try:
        with open(args.source) as fh:
            assembly = compile_source(fh.read())
    except (CompileError, LexerError, ParseError, OSError) as exc:
        return _fail(exc)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(assembly)
    else:
        print(assembly, end="")
    return 0

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

``sweep``, ``sample``, ``predict`` and ``compare --jobs`` run through the
experiment engine (:mod:`repro.engine`), which caches finished results
content-addressed under ``.repro-cache/`` (``--cache-dir`` or
``REPRO_CACHE_DIR``).  With ``--daemon SOCKET`` they (and ``fuzz``)
submit to the ``serve`` daemon (:mod:`repro.service`) instead, and fall
back to the embedded engine when none is listening.  ``--trace DIR``
writes one episode trace per simulation (:mod:`repro.obs`) for ``report
DIR`` to rebuild Tables II/III from; on the engine paths it implies
``--refresh``, since a cache hit simulates nothing.  Exit status is
non-zero on simulation and compilation errors, abandoned engine attempts
(stuck workers) and traces that fail the lossless-decomposition
cross-check, so the CLI can be scripted.

Each command lives in the module of its group, which adds the
command's subparser and sets its handler: :mod:`.simulate` (list, run,
compare, report, compile), :mod:`.sweep` (sweep, sample), :mod:`.serve`
(serve, cache), :mod:`.fuzz` and :mod:`.surrogate` (surrogate, predict).
This module builds the parser from them and runs a command
(:func:`main`).  It holds the ``_add_*`` helper of every option two or
more commands read with one meaning, and the engine, daemon-client and
result-store builders.  Handlers import what they run when they run, so
``import repro.cli`` leaves the workload registry unloaded.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import List, Optional


def _add_workload_input(parser, scale: str = "small",
                        max_instructions: Optional[int] = None) -> None:
    """What each simulation of run, compare, sweep, sample and predict
    reads.  ``--full-config`` parses straight into ``args.base_config``
    (``"scaled"`` or ``"full"``)."""
    parser.add_argument("--scale", default=scale,
                        choices=("tiny", "small", "medium"),
                        help=f"workload input scale (default: {scale})")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload data seed")
    parser.add_argument("--max-instructions", type=int,
                        default=max_instructions,
                        help="stop each simulation after N instructions "
                             f"(default: {max_instructions or 'uncapped'}; "
                             "0 = uncapped)")
    parser.add_argument("--full-config", dest="base_config",
                        action="store_const", const="full", default="scaled",
                        help="use the full-scale Table I configuration "
                             "instead of the downscaled one")


def _add_grid_axes(parser, unset: Optional[str] = None) -> None:
    """``--workloads`` and ``--techniques``.  A grid (sweep, sample)
    defaults to gap x all and takes ``--set`` config points; surrogate
    and predict default both to None, which means ``unset``."""
    parser.add_argument("--workloads", default=None if unset else "gap",
                        help="comma list of workload names, short names "
                             "(bfs -> gap.bfs) or groups (gap, spec, "
                             "spec.int, spec.fp, all); default: "
                             f"{unset or 'gap'}")
    parser.add_argument("--techniques", default=None if unset else "all",
                        help="comma list of techniques or 'all' "
                             f"(default: {unset or 'all'})")
    if unset is None:
        parser.add_argument("--set", action="append", metavar="K=V[,K=V...]",
                            help="one CoreConfig override point per flag; "
                                 "repeat to add a config axis to the grid "
                                 "(e.g. --set rob_size=128 --set "
                                 "rob_size=512)")


def _grid_axes(args) -> tuple:
    """``--workloads`` and ``--techniques`` resolved to names, None
    where unset."""
    from repro.engine.grid import resolve_techniques, resolve_workloads
    return (None if args.workloads is None
            else resolve_workloads(args.workloads.split(",")),
            None if args.techniques is None
            else resolve_techniques(args.techniques.split(",")))


def _add_cache_dir(parser) -> None:
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result cache root (default: $REPRO_CACHE_DIR "
                             "or .repro-cache)")


def _add_pool_and_store(parser) -> None:
    """The worker pool and result store of an engine or the daemon."""
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes (default: os.cpu_count(); "
                             "the embedded engine runs 1 serially "
                             "in-process)")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-attempt job timeout in seconds (worker "
                             "pool only)")
    parser.add_argument("--retries", type=int, default=1, metavar="N",
                        help="extra attempts per failed job; a job whose "
                             "worker died beside other jobs gets one more, "
                             "alone (default: 1)")
    _add_cache_dir(parser)
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result store entirely "
                             "(results are never cached)")


def _add_daemon(parser) -> None:
    parser.add_argument("--daemon", default=None, metavar="SOCKET",
                        help="submit through the sweep daemon listening on "
                             "this Unix socket (repro serve); falls back to "
                             "the embedded engine when no daemon is running")


def _add_engine(parser) -> None:
    """Pool, store, ``--refresh`` and ``--daemon``: the options of a
    command that runs through :func:`_make_engine`."""
    _add_pool_and_store(parser)
    parser.add_argument("--refresh", action="store_true",
                        help="ignore cached results (still writes fresh "
                             "ones back)")
    _add_daemon(parser)


def _add_trace(parser) -> None:
    parser.add_argument("--trace", default=None, metavar="DIR",
                        help="write per-episode wrong-path traces into DIR "
                             "(inspect with 'repro report DIR'); on the "
                             "engine path this implies --refresh")


def _fail(message) -> int:
    """Print ``error: <message>`` on stderr; returns the exit status."""
    print(f"error: {message}", file=sys.stderr)
    return 1


def _store(args, honour_no_cache: bool = True):
    """The result store at ``--cache-dir``, or None under ``--no-cache``
    (``predict --budget`` harvests its training set there even so)."""
    if honour_no_cache and getattr(args, "no_cache", False):
        return None
    from repro.engine import ResultStore
    return ResultStore(args.cache_dir)


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
    if args.daemon:
        client = _daemon_client(args)
        if client is not None:
            return client
    from repro.engine import ExperimentEngine
    return ExperimentEngine(store=_store(args), jobs=args.jobs,
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


def make_parser() -> argparse.ArgumentParser:
    # Imported here, not at the top: the command modules import this
    # package's helpers.
    from repro.cli import fuzz, serve, simulate, surrogate, sweep
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Wrong-path modeling in decoupled functional-first "
                    "simulation (ISPASS 2023 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)
    # In ``repro --help`` order.
    for add in (simulate.add_list, simulate.add_run, simulate.add_compare,
                sweep.add_sweep, sweep.add_sample, simulate.add_report,
                simulate.add_compile, fuzz.add_fuzz, serve.add_serve,
                surrogate.add_surrogate, surrogate.add_predict,
                serve.add_cache):
        add(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    if getattr(args, "max_instructions", None) == 0:
        args.max_instructions = None    # 0 means uncapped
    with contextlib.ExitStack() as resources:
        # What a command opens through ``args.resources`` (a daemon
        # client) closes when the command returns.
        args.resources = resources
        try:
            return args.handler(args)
        except (KeyError, ValueError) as exc:
            # An unknown workload or technique name, a bad --set
            # override or config value.
            return _fail(exc)

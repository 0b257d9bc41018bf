"""``fuzz``: differential fuzzing of random programs and configs
across the four techniques (:mod:`repro.fuzz`)."""

from __future__ import annotations

import os
import sys

from repro.cli import _add_daemon, _daemon_client, _fail


def add_fuzz(sub) -> None:
    fuzz_ = sub.add_parser(
        "fuzz",
        help="differential fuzzing: random programs + configs through all "
             "four techniques with cross-checking oracles",
        description="Generate seeded random (program, config) cases, run "
                    "each under nowp/instrec/conv/wpemul, and cross-check "
                    "architectural equivalence, metamorphic properties and "
                    "serialization round-trips (repro.fuzz).  Failures are "
                    "delta-debug shrunk to minimal repros in the corpus "
                    "directory; replay one byte-identically with --replay "
                    "FILE.  Exit status is 1 when any case fails.")
    fuzz_.add_argument("--seed", type=int, default=0,
                       help="master seed (default: 0); the whole run is "
                            "deterministic given (seed, budget, frontend)")
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
                       metavar="S", help="time-box case execution (checked "
                       "between engine chunks)")
    fuzz_.add_argument("--replay", default=None, metavar="FILE",
                       help="re-run one saved corpus case through the "
                            "oracle battery and exit")
    fuzz_.add_argument("--quiet", action="store_true",
                       help="suppress the progress line on stderr")
    _add_daemon(fuzz_)
    fuzz_.set_defaults(handler=cmd_fuzz)


def cmd_fuzz(args) -> int:
    from repro.fuzz import fuzz, replay_path

    if args.replay:
        if not os.path.isfile(args.replay):
            return _fail(f"no such corpus file: {args.replay}")
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

    engine = _daemon_client(args) if args.daemon else None
    report = fuzz(seed=args.seed, budget=args.budget,
                  jobs=args.jobs or 1, frontend=args.frontend,
                  corpus_dir=args.corpus, shrink=not args.no_shrink,
                  max_seconds=args.max_seconds, engine=engine,
                  # main() maps 0 -> None; fuzz always caps, so fall
                  # back to the default there.
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
            shrunk_lines = len(failure["shrunk"]["source"].splitlines())
            line += (f" (shrunk to {shrunk_lines} lines, "
                     f"{failure['shrink_evals']} evals)")
        print(line)
        print(f"    corpus: {failure['corpus_path']}")
    if report.stopped_early:
        print(f"note: time box hit after {report.cases} cases",
              file=sys.stderr)
    return 0 if report.ok else 1

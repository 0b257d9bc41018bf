"""``serve`` and ``cache``: the sweep daemon, and the result store it
and the engine share."""

from __future__ import annotations

from repro.analysis.report import render_table
from repro.cli import _add_cache_dir, _add_pool_and_store, _fail, _store


def add_serve(sub) -> None:
    serve = sub.add_parser(
        "serve",
        help="run the sweep daemon: a shared warm cache + worker pool "
             "serving many concurrent clients over a Unix socket",
        description="Start the long-running simulation service "
                    "(repro.service). Clients submit sweep/compare/fuzz jobs "
                    "over a newline-JSON Unix-socket protocol (sweep/"
                    "compare/fuzz --daemon SOCKET); identical in-flight "
                    "jobs are deduplicated by their content-addressed key "
                    "so N clients share one execution, and results land in "
                    "the shared content-addressed cache. Stop with Ctrl-C, "
                    "SIGTERM, or a client 'shutdown' request.")
    serve.add_argument("--socket", required=True, metavar="PATH",
                       help="Unix socket path to listen on")
    serve.add_argument("--http", type=int, default=None, metavar="PORT",
                       help="also serve a localhost HTTP front on this "
                            "port (0 = pick a free port): GET /healthz, "
                            "GET /status, POST /submit")
    _add_pool_and_store(serve)
    serve.set_defaults(handler=cmd_serve)


def cmd_serve(args) -> int:
    from repro.service import ServiceDaemon
    store = _store(args)
    try:
        daemon = ServiceDaemon(args.socket, store=store,
                               workers=args.jobs, timeout=args.timeout,
                               retries=args.retries,
                               http_port=args.http)
    except OSError as exc:
        return _fail(exc)

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
        return _fail(exc)
    return 0


def add_cache(sub) -> None:
    cache = sub.add_parser(
        "cache",
        help="inspect or garbage-collect a result store (stats / gc "
             "--max-bytes N)",
        description="Operate on a content-addressed result cache directly "
                    "on disk. 'stats' reports entries, bytes and shard "
                    "fill; 'gc' evicts least-recently-used entries (per the "
                    "store index) down to a byte budget.")
    cache.add_argument("action", choices=("stats", "gc"))
    cache.add_argument("--max-bytes", type=int, default=None, metavar="N",
                       help="gc: evict LRU entries until the store holds "
                            "at most N bytes")
    _add_cache_dir(cache)
    cache.set_defaults(handler=cmd_cache)


def _human_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" \
                else f"{int(value)} B"
        value /= 1024
    return f"{value:.1f} GiB"   # pragma: no cover


def cmd_cache(args) -> int:
    store = _store(args)
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
        return _fail("cache gc needs --max-bytes N")
    summary = store.gc(args.max_bytes)
    print(f"evicted {summary['evicted']} entries "
          f"({_human_bytes(summary['freed_bytes'])}); "
          f"kept {summary['kept']} "
          f"({_human_bytes(summary['bytes'])})")
    return 0

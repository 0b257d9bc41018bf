"""Line-JSON wire protocol between sweep daemon and clients.

One message per line, UTF-8 JSON, ``\\n``-terminated.  Requests carry an
``op`` and a client-chosen ``id``; every response/event carries the
``id`` it answers (broadcast events carry none).  The protocol is
deliberately version-tagged and forgiving: unknown fields are ignored,
malformed lines get an ``error`` event and the connection survives.

Requests (client -> daemon)::

    {"op": "ping", "id": 1}
    {"op": "status", "id": 2}
    {"op": "submit", "id": 3, "jobs": [{"kind": "sim", "job": {...}}],
     "fresh": false, "store": true}
    {"op": "cache", "id": 4, "action": "stats"}
    {"op": "cache", "id": 5, "action": "gc", "max_bytes": 1000000}
    {"op": "subscribe", "id": 6}        # journal event stream
    {"op": "shutdown", "id": 7}

Responses / events (daemon -> client)::

    {"event": "hello", "version": 1}                    # on connect
    {"event": "pong", "id": 1, "version": 1}
    {"event": "status", "id": 2, "stats": {...}}
    {"event": "job", "id": 3, "seq": 0, "key": "ab34…",
     "status": "ok", "cached": false, "attempts": 1,
     "wall_seconds": 0.52, "error": null, "result": {...}}
    {"event": "done", "id": 3, "summary": {...}, "abandoned": [...]}
    {"event": "cache", "id": 4, "stats": {...}}
    {"event": "journal", "record": {...}}               # subscribed only
    {"event": "error", "id": 3, "message": "..."}

A submit's ``store`` field (default true) lets a request run
storeless; with it true, the daemon's store serves and keeps only jobs
whose kind defines ``spec()`` (:func:`repro.engine.job.cacheable`).

``job`` events stream in *completion* order; ``seq`` is the job's index
in the submitted list, so clients reassemble input order.  ``status``
mirrors the journal vocabulary: ``hit`` (served from the store), ``ok``
(executed), ``shared`` (attached to another client's in-flight
execution of the same key), ``failed``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

#: Bumped on incompatible wire changes; daemon and client both check.
PROTOCOL_VERSION = 1

#: Upper bound on one message line — a sweep submission of a few
#: thousand jobs fits comfortably; anything larger is a framing bug.
MAX_LINE_BYTES = 64 * 1024 * 1024

#: Ops a daemon accepts, and the fields each requires beyond "op"/"id".
REQUEST_OPS = ("ping", "status", "submit", "cache", "subscribe",
               "shutdown")


class ProtocolError(ValueError):
    """Malformed frame or request; the connection survives it."""


def encode(message: Dict[str, Any]) -> bytes:
    """One message as a compact JSON line (the only wire form)."""
    return (json.dumps(message, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")


def decode(line: bytes) -> Dict[str, Any]:
    """Parse one received line; raises :class:`ProtocolError` on junk."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"message exceeds {MAX_LINE_BYTES} bytes")
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"not a JSON line: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError("message must be a JSON object")
    return message


def validate_request(message: Dict[str, Any]) -> Dict[str, Any]:
    """Check a decoded request's shape; returns it normalized.

    Raises :class:`ProtocolError` naming the problem — the daemon turns
    that into an ``error`` event rather than dropping the connection.
    """
    op = message.get("op")
    if op not in REQUEST_OPS:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of {', '.join(REQUEST_OPS)}")
    if "id" in message and not isinstance(message["id"], (int, str)):
        raise ProtocolError("request id must be an int or a string")
    if op == "submit":
        jobs = message.get("jobs")
        if not isinstance(jobs, list) or not jobs:
            raise ProtocolError("submit needs a non-empty 'jobs' list")
        for i, item in enumerate(jobs):
            if not isinstance(item, dict) or \
                    not isinstance(item.get("kind"), str) or \
                    not isinstance(item.get("job"), dict):
                raise ProtocolError(
                    f"jobs[{i}] must be a transport dict "
                    f"{{'kind': str, 'job': {{...}}}}")
        if not isinstance(message.get("fresh", False), bool):
            raise ProtocolError("'fresh' must be a boolean")
        if not isinstance(message.get("store", True), bool):
            raise ProtocolError("'store' must be a boolean")
    elif op == "cache":
        action = message.get("action")
        if action not in ("stats", "gc"):
            raise ProtocolError(
                f"unknown cache action {action!r}; expected stats or gc")
        if action == "gc" and \
                not isinstance(message.get("max_bytes"), int):
            raise ProtocolError("cache gc needs an integer 'max_bytes'")
    return message


def hello() -> Dict[str, Any]:
    return {"event": "hello", "version": PROTOCOL_VERSION}


def error_event(request_id: Optional[Any], message: str) -> Dict[str, Any]:
    event: Dict[str, Any] = {"event": "error", "message": message}
    if request_id is not None:
        event["id"] = request_id
    return event

"""Synchronous thin client for the sweep daemon.

:class:`ServiceClient` speaks the line-JSON protocol over the daemon's
Unix socket.  Its :meth:`~ServiceClient.run` is **engine-shaped** — it
takes a job list and returns
:class:`~repro.engine.executor.JobOutcome` objects in input order, with
results rehydrated through the registered job kind's
``result_from_dict`` — so the CLI (and ``compare_workload``/``fuzz``)
swap a daemon in for an embedded
:class:`~repro.engine.executor.ExperimentEngine` without touching their
rendering or error paths.  ``store``/``journal`` are None and
``abandoned`` mirrors the engine attribute (filled from the daemon's
``done`` event), which is all those callers probe.

:func:`connect_or_none` is the fallback seam: it returns a connected
client or None, so ``repro sweep --daemon SOCKET`` degrades to the
embedded engine when nothing is listening.
"""

from __future__ import annotations

import socket
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.engine.executor import JobOutcome
from repro.engine.job import job_to_transport
from repro.service import protocol
from repro.service.protocol import ProtocolError


class ServiceError(RuntimeError):
    """Daemon-side error or a connection that died mid-conversation."""


class ServiceUnavailable(ServiceError):
    """No daemon is listening on the socket."""


def connect_or_none(socket_path: str,
                    connect_timeout: float = 5.0
                    ) -> Optional["ServiceClient"]:
    """A connected client, or None when no daemon is listening —
    the transparent-fallback seam for the CLI."""
    try:
        return ServiceClient(socket_path,
                             connect_timeout=connect_timeout)
    except ServiceUnavailable:
        return None


class ServiceClient:
    """One line-JSON connection to a sweep daemon."""

    #: Engine-API mirrors, so CLI code probes one shape for both paths.
    store = None
    journal = None

    def __init__(self, socket_path: str, connect_timeout: float = 5.0,
                 io_timeout: Optional[float] = None):
        self.socket_path = socket_path
        self.abandoned: List[dict] = []
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(connect_timeout)
        try:
            self._sock.connect(socket_path)
        except OSError as exc:
            self._sock.close()
            raise ServiceUnavailable(
                f"no daemon listening on {socket_path}: {exc}") from None
        self._sock.settimeout(io_timeout)
        self._file = self._sock.makefile("rwb")
        hello = self._recv()
        if hello.get("event") != "hello":
            self.close()
            raise ServiceError(f"unexpected greeting: {hello!r}")
        if hello.get("version") != protocol.PROTOCOL_VERSION:
            self.close()
            raise ServiceError(
                f"protocol version mismatch: daemon speaks "
                f"{hello.get('version')!r}, client speaks "
                f"{protocol.PROTOCOL_VERSION}")
        self._next_id = 0

    # -- wire --------------------------------------------------------------------

    def _send(self, message: Dict[str, Any]) -> None:
        try:
            self._file.write(protocol.encode(message))
            self._file.flush()
        except (OSError, ValueError) as exc:
            raise ServiceError(f"daemon connection lost: {exc}") from None

    def _recv(self) -> Dict[str, Any]:
        try:
            line = self._file.readline()
        except OSError as exc:
            raise ServiceError(f"daemon connection lost: {exc}") from None
        if not line:
            raise ServiceError("daemon closed the connection")
        try:
            return protocol.decode(line)
        except ProtocolError as exc:
            raise ServiceError(f"garbled daemon message: {exc}") from None

    def _request(self, message: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
        """Send one request; yield its responses (matching ``id``) until
        the caller stops.  Broadcast events (no ``id``) are skipped."""
        self._next_id += 1
        rid = self._next_id
        message = dict(message, id=rid)
        self._send(message)
        while True:
            event = self._recv()
            if event.get("event") == "error" \
                    and event.get("id") in (rid, None):
                # id-less errors are connection-level (e.g. a garbled
                # line): fatal for whatever request is outstanding.
                raise ServiceError(event.get("message", "daemon error"))
            if event.get("id") != rid:
                continue            # broadcast / stale: not ours
            yield event

    def _one(self, message: Dict[str, Any]) -> Dict[str, Any]:
        for event in self._request(message):
            return event
        raise ServiceError("no response")   # pragma: no cover

    # -- simple ops --------------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        return self._one({"op": "ping"})

    def status(self) -> Dict[str, Any]:
        return self._one({"op": "status"})["stats"]

    def cache_stats(self) -> Dict[str, Any]:
        return self._one({"op": "cache", "action": "stats"})["stats"]

    def cache_gc(self, max_bytes: int) -> Dict[str, Any]:
        return self._one({"op": "cache", "action": "gc",
                          "max_bytes": max_bytes})["stats"]

    def shutdown(self) -> None:
        """Ask the daemon to exit; the connection dies with it."""
        try:
            self._one({"op": "shutdown"})
        finally:
            self.close()

    def journal_events(self) -> Iterator[dict]:
        """Subscribe and yield journal records as the daemon writes
        them.  Dedicates this connection to the stream."""
        self._next_id += 1
        self._send({"op": "subscribe", "id": self._next_id})
        while True:
            event = self._recv()
            if event.get("event") == "journal":
                yield event["record"]

    # -- engine-shaped execution -------------------------------------------------

    def run(self, jobs: Sequence[Any],
            fresh: bool = False) -> List[JobOutcome]:
        """Submit ``jobs``; outcomes come back in input order, shaped
        exactly like :meth:`ExperimentEngine.run` outcomes.  The daemon
        decides per job whether its store is used, by the same
        :func:`~repro.engine.job.cacheable` rule as the embedded
        engine."""
        jobs = list(jobs)
        self.abandoned = []
        if not jobs:
            return []
        request = {"op": "submit",
                   "jobs": [job_to_transport(job) for job in jobs],
                   "fresh": bool(fresh)}
        outcomes: List[Optional[JobOutcome]] = [None] * len(jobs)
        for event in self._request(request):
            kind = event.get("event")
            if kind == "job":
                seq = event["seq"]
                job = jobs[seq]
                payload = event.get("result")
                result = None
                if payload is not None:
                    result = type(job).result_from_dict(payload)
                outcomes[seq] = JobOutcome(
                    job, result, event["status"],
                    event.get("wall_seconds", 0.0),
                    event.get("attempts", 0), event.get("error"))
            elif kind == "done":
                self.abandoned = list(event.get("abandoned", ()))
                break
        missing = [jobs[i].label for i, o in enumerate(outcomes)
                   if o is None]
        if missing:
            raise ServiceError(
                f"daemon finished without outcomes for: "
                f"{', '.join(missing)}")
        return outcomes  # type: ignore[return-value]

    def run_one(self, job: Any, fresh: bool = False) -> JobOutcome:
        return self.run([job], fresh=fresh)[0]

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"<ServiceClient {self.socket_path}>"

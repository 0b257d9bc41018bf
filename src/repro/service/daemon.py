"""The sweep daemon: asyncio front end over the :class:`Scheduler`.

One daemon owns one cache root, one journal, and one process pool, and
serves any number of concurrent clients:

* **Unix socket** (always): the line-JSON protocol of
  :mod:`repro.service.protocol`.  Each connection gets a ``hello``,
  then processes requests in order; ``submit`` streams one ``job``
  event per finished job (completion order, ``seq`` restores input
  order) and a terminal ``done``.  Subscribed connections additionally
  receive every journal record as it is written — the live view of
  what the daemon executes, shares and abandons.

* **localhost HTTP** (optional, ``http_port=``): the same requests for
  curl-ability — ``GET /healthz``, ``GET /status``, ``POST /submit``
  (non-streaming: the response body carries every outcome in input
  order).  Bound to 127.0.0.1 only; this is an operator convenience,
  not a remote API.

Start blocking with :meth:`ServiceDaemon.run` (the ``repro serve``
command), or in a background thread with
:meth:`ServiceDaemon.start_in_thread` (tests).  Shutdown — a client's
``shutdown`` op, SIGINT/SIGTERM, or :meth:`request_stop` — closes the
listeners, cancels in-flight work, tears down the pool and removes the
socket file.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.engine.job import job_from_transport
from repro.engine.journal import RunJournal
from repro.engine.store import ResultStore
from repro.service import protocol
from repro.service.protocol import ProtocolError
from repro.service.scheduler import Scheduler

_HTTP_STATUS = {200: "OK", 400: "Bad Request", 404: "Not Found",
                405: "Method Not Allowed", 500: "Internal Server Error"}

#: Keys of a scheduler outcome dict that go into a ``job`` wire event.
_JOB_EVENT_KEYS = ("key", "label", "kind", "status", "cached",
                   "attempts", "wall_seconds", "error", "result")


class ServiceDaemon:
    """Long-running sweep service on a Unix socket (+ optional HTTP)."""

    def __init__(self, socket_path: str,
                 store: Optional[ResultStore] = None,
                 journal: Optional[RunJournal] = None,
                 workers: Optional[int] = None,
                 timeout: Optional[float] = None,
                 retries: int = 1,
                 http_port: Optional[int] = None,
                 http_host: str = "127.0.0.1"):
        self.socket_path = os.path.abspath(socket_path)
        self.scheduler = Scheduler(store=store, journal=journal,
                                   workers=workers, timeout=timeout,
                                   retries=retries)
        self.http_port = http_port          # requested (0 = ephemeral)
        self.http_host = http_host
        self.http_bound: Optional[int] = None   # actual port once up
        self._stop: Optional["asyncio.Event"] = None
        self._loop: Optional["asyncio.AbstractEventLoop"] = None
        #: Live connection handlers: (task, writer) pairs, drained on
        #: shutdown so the loop never cancels a blocked readline.
        self._connections: List[Tuple["asyncio.Task",
                                      "asyncio.StreamWriter"]] = []

    # -- lifecycle ---------------------------------------------------------------

    async def serve(self, ready: Optional[Callable[[], None]] = None) -> None:
        """Listen until stopped; ``ready()`` fires once listening."""
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        # The claim probe does a synchronous connect() to detect a live
        # daemon on the socket; keep it off the event loop (SC007).
        await asyncio.to_thread(self._claim_socket_path)
        server = await asyncio.start_unix_server(
            self._on_connect, path=self.socket_path,
            limit=protocol.MAX_LINE_BYTES)
        http_server = None
        if self.http_port is not None:
            http_server = await asyncio.start_server(
                self._on_http, self.http_host, self.http_port,
                limit=protocol.MAX_LINE_BYTES)
            self.http_bound = http_server.sockets[0].getsockname()[1]
        if ready is not None:
            ready()
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            if http_server is not None:
                http_server.close()
                await http_server.wait_closed()
                self.http_bound = None
            await self._drain_connections()
            await self.scheduler.close()
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass

    def run(self, ready: Optional[Callable[[], None]] = None) -> None:
        """Blocking entry point (``repro serve``): serve until
        SIGINT/SIGTERM or a client ``shutdown``."""
        import signal

        async def main() -> None:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(sig, self.request_stop)
                except (NotImplementedError, RuntimeError):
                    pass
            await self.serve(ready=ready)

        asyncio.run(main())

    def start_in_thread(self) -> threading.Thread:
        """Run the daemon in a daemon thread; returns once listening.
        Stop it with :meth:`request_stop` + ``thread.join()``."""
        listening = threading.Event()
        failure: List[BaseException] = []

        def target() -> None:
            try:
                asyncio.run(self.serve(ready=listening.set))
            except BaseException as exc:  # noqa: BLE001 — surfaced to starter
                failure.append(exc)
                listening.set()

        thread = threading.Thread(target=target, daemon=True,
                                  name="repro-service")
        thread.start()
        listening.wait(timeout=30.0)
        if failure:
            raise RuntimeError(
                f"daemon failed to start: {failure[0]}") from failure[0]
        return thread

    def request_stop(self) -> None:
        """Thread/signal-safe shutdown request."""
        loop, stop = self._loop, self._stop
        if loop is None or stop is None:
            return
        try:
            loop.call_soon_threadsafe(stop.set)
        except RuntimeError:
            pass    # loop already closed — the daemon is down

    async def _drain_connections(self) -> None:
        """Close every live connection and wait for its handler to
        finish normally — cancelling a handler blocked in ``readline``
        makes the stream machinery log spurious tracebacks."""
        pairs = list(self._connections)
        for _, writer in pairs:
            writer.close()
        tasks = [task for task, _ in pairs if not task.done()]
        if tasks:
            await asyncio.wait(tasks, timeout=5.0)

    def _claim_socket_path(self) -> None:
        """Remove a stale socket file; refuse to evict a live daemon."""
        parent = os.path.dirname(self.socket_path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        if not os.path.exists(self.socket_path):
            return
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        probe.settimeout(0.25)
        try:
            probe.connect(self.socket_path)
        except OSError:
            os.unlink(self.socket_path)     # stale leftover
        else:
            raise RuntimeError(
                f"another daemon is already listening on "
                f"{self.socket_path}")
        finally:
            probe.close()

    # -- line-JSON connections ---------------------------------------------------

    async def _on_connect(self, reader: "asyncio.StreamReader",
                          writer: "asyncio.StreamWriter") -> None:
        entry = (asyncio.current_task(), writer)
        self._connections.append(entry)
        lock = asyncio.Lock()

        async def send(message: Dict[str, Any]) -> None:
            async with lock:
                writer.write(protocol.encode(message))
                await writer.drain()

        queue: Optional["asyncio.Queue"] = None
        pump: Optional["asyncio.Task"] = None
        try:
            await send(protocol.hello())
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    await send(protocol.error_event(
                        None, "message line too long"))
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    message = protocol.decode(line)
                except ProtocolError as exc:
                    await send(protocol.error_event(None, str(exc)))
                    continue
                rid = message.get("id")
                if not isinstance(rid, (int, str)):
                    rid = None
                try:
                    message = protocol.validate_request(message)
                except ProtocolError as exc:
                    await send(protocol.error_event(rid, str(exc)))
                    continue
                op = message["op"]
                if op == "ping":
                    await send({"event": "pong", "id": rid,
                                "version": protocol.PROTOCOL_VERSION})
                elif op == "status":
                    await send({"event": "status", "id": rid,
                                "stats": self._status()})
                elif op == "subscribe":
                    if queue is None:
                        queue = self.scheduler.subscribe()
                        pump = asyncio.get_running_loop().create_task(
                            self._pump(queue, send))
                    await send({"event": "subscribed", "id": rid})
                elif op == "cache":
                    await send(await self._cache_op(message))
                elif op == "shutdown":
                    await send({"event": "bye", "id": rid})
                    if self._stop is not None:
                        self._stop.set()
                    break
                elif op == "submit":
                    await self._handle_submit(message, send)
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        finally:
            if entry in self._connections:
                self._connections.remove(entry)
            if queue is not None:
                self.scheduler.unsubscribe(queue)
            if pump is not None:
                pump.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    @staticmethod
    async def _pump(queue: "asyncio.Queue",
                    send: Callable[..., Any]) -> None:
        """Forward broadcast journal events to one connection."""
        try:
            while True:
                await send(await queue.get())
        except (asyncio.CancelledError, ConnectionResetError,
                BrokenPipeError, OSError):
            return

    async def _handle_submit(self, message: Dict[str, Any],
                             send: Callable[..., Any]) -> None:
        rid = message.get("id")
        try:
            jobs = [job_from_transport(item)
                    for item in message["jobs"]]
        except Exception as exc:  # noqa: BLE001 — client data is the fault
            await send(protocol.error_event(rid, f"bad job spec: {exc}"))
            return
        fresh = bool(message.get("fresh", False))
        use_store = bool(message.get("store", True))
        outcomes = [None] * len(jobs)   # type: List[Optional[dict]]

        async def one(seq: int, job: Any) -> Tuple[int, dict]:
            return seq, await self.scheduler.submit(
                job, fresh=fresh, use_store=use_store)

        tasks = [asyncio.ensure_future(one(i, job))
                 for i, job in enumerate(jobs)]
        abandoned: List[dict] = []
        try:
            for future in asyncio.as_completed(tasks):
                seq, outcome = await future
                outcomes[seq] = outcome
                abandoned.extend(outcome.get("abandoned", ()))
                event = {k: outcome[k] for k in _JOB_EVENT_KEYS}
                event.update({"event": "job", "id": rid, "seq": seq})
                await send(event)
        finally:
            for task in tasks:
                task.cancel()
        summary = {
            "total": len(outcomes),
            "hits": sum(1 for o in outcomes
                        if o and o["status"] == "hit"),
            "executed": sum(1 for o in outcomes
                            if o and o["status"] == "ok"),
            "shared": sum(1 for o in outcomes
                          if o and o["status"] == "shared"),
            "failed": sum(1 for o in outcomes
                          if o and o["status"] == "failed"),
        }
        await send({"event": "done", "id": rid, "summary": summary,
                    "abandoned": abandoned})

    async def _cache_op(self, message: Dict[str, Any]) -> Dict[str, Any]:
        rid = message.get("id")
        store = self.scheduler.store
        if store is None:
            return protocol.error_event(rid, "daemon runs storeless "
                                             "(--no-cache)")
        action = message["action"]
        if action == "stats":
            stats = await asyncio.to_thread(store.stats)
        else:   # gc
            stats = await asyncio.to_thread(store.gc,
                                            message["max_bytes"])
        return {"event": "cache", "id": rid, "action": action,
                "stats": stats}

    def _status(self) -> dict:
        stats = self.scheduler.status()
        stats["socket"] = self.socket_path
        stats["http_port"] = self.http_bound
        return stats

    # -- HTTP front --------------------------------------------------------------

    async def _on_http(self, reader: "asyncio.StreamReader",
                       writer: "asyncio.StreamWriter") -> None:
        entry = (asyncio.current_task(), writer)
        self._connections.append(entry)
        try:
            request_line = await reader.readline()
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                return
            method, target = parts[0].upper(), parts[1]
            headers: Dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            body = b""
            try:
                length = int(headers.get("content-length", "0") or "0")
            except ValueError:
                length = 0
            if length > 0:
                body = await reader.readexactly(
                    min(length, protocol.MAX_LINE_BYTES))
            status, payload = await self._http_route(method, target, body)
            data = json.dumps(payload, sort_keys=True).encode("utf-8")
            head = (f"HTTP/1.1 {status} {_HTTP_STATUS[status]}\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(data)}\r\n"
                    f"Connection: close\r\n\r\n").encode("latin-1")
            writer.write(head + data)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        finally:
            if entry in self._connections:
                self._connections.remove(entry)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _http_route(self, method: str, target: str,
                          body: bytes) -> Tuple[int, Dict[str, Any]]:
        target = target.split("?", 1)[0]
        if target == "/healthz":
            if method != "GET":
                return 405, {"error": "GET only"}
            return 200, {"ok": True,
                         "version": protocol.PROTOCOL_VERSION}
        if target == "/status":
            if method != "GET":
                return 405, {"error": "GET only"}
            return 200, self._status()
        if target == "/submit":
            if method != "POST":
                return 405, {"error": "POST only"}
            try:
                message = protocol.decode(body if body.endswith(b"\n")
                                          else body + b"\n")
                message.setdefault("op", "submit")
                message = protocol.validate_request(message)
                jobs = [job_from_transport(item)
                        for item in message["jobs"]]
            except ProtocolError as exc:
                return 400, {"error": str(exc)}
            except Exception as exc:  # noqa: BLE001 — client data is the fault
                return 400, {"error": f"bad job spec: {exc}"}
            outcomes = await asyncio.gather(*[
                self.scheduler.submit(
                    job, fresh=bool(message.get("fresh", False)),
                    use_store=bool(message.get("store", True)))
                for job in jobs])
            return 200, {
                "jobs": [{k: o[k] for k in _JOB_EVENT_KEYS}
                         for o in outcomes],
                "abandoned": [a for o in outcomes
                              for a in o.get("abandoned", ())],
            }
        return 404, {"error": f"no such endpoint {target}"}

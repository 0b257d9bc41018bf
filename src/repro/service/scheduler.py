"""Async scheduler: dedupe by content key, execute on a shared pool.

One long-lived :class:`Scheduler` serves every connection of a daemon.
Each *unique* job key in flight owns exactly one asyncio task; clients
submitting that key while it runs attach to the task and share its
outcome (``status="shared"``), so N identical sweeps from N clients cost
one execution.  Store hits short-circuit before the dedupe map and never
touch the pool.

Execution goes through the identical worker entry the embedded engine
uses (:func:`repro.engine.executor._execute_payload` dispatching via the
``JOB_KINDS`` registry), so a daemon-run job is bit-identical to an
embedded-engine run of the same spec.  The PR-2 failure semantics are
preserved in async form:

* per-attempt wall-clock ``timeout``; an expired attempt whose worker
  cannot be cancelled forces a pool replacement and is journaled
  ``"abandoned"`` (the attempt may still succeed on retry),
* a killed/crashed worker (``BrokenProcessPool``) replaces the pool and
  retries within the budget — client connections never drop,
* other jobs' attempts still queued in a replaced pool move to the new
  pool with their attempt counts unchanged,
* ``retries`` extra attempts per job, then a ``"failed"`` outcome.

Outcomes are plain dicts in the wire shape (``status``/``cached``/
``attempts``/``wall_seconds``/``error``/``result`` payload), the same
serialized form the store and the journal use.  Every outcome is
journaled; subscribed clients receive each journal record as a live
event.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.executor import _execute_payload
from repro.engine.job import cacheable, job_to_transport
from repro.engine.journal import RunJournal
from repro.engine.store import ResultStore


def _consume(wrapped: "asyncio.Future") -> None:
    """Swallow the eventual result of an abandoned future so the event
    loop never logs 'exception was never retrieved'."""
    if not wrapped.cancelled():
        wrapped.exception()


class Scheduler:
    """Deduplicating dispatcher over one shared process pool."""

    def __init__(self, store: Optional[ResultStore] = None,
                 journal: Optional[RunJournal] = None,
                 workers: Optional[int] = None,
                 timeout: Optional[float] = None,
                 retries: int = 1):
        self.store = store
        if journal is None and store is not None:
            journal = RunJournal(store.journal_path)
        self.journal = journal
        self.workers = max(1, workers) if workers else None
        self.timeout = timeout
        self.retries = max(0, retries)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._in_flight: Dict[str, "asyncio.Task"] = {}
        #: Journal-event subscriber queues (one per subscribed client).
        self._subscribers: List["asyncio.Queue"] = []
        self.counters = {"submitted": 0, "hits": 0, "executed": 0,
                         "shared": 0, "failed": 0, "abandoned": 0,
                         "pool_replacements": 0}
        # Daemon uptime/event stamps are operator observability, never
        # simulated data (results come whole from the workers).
        self.started = time.time()  # simcheck: allow=SC001 daemon uptime stamp, not simulated data

    # -- public API --------------------------------------------------------------

    async def submit(self, job: Any, fresh: bool = False,
                     use_store: bool = True) -> dict:
        """Resolve one job: store hit, attach to an in-flight twin, or
        execute.  Always returns an outcome dict, never raises for
        job-level failures.  The store is read and written only for
        :func:`~repro.engine.job.cacheable` jobs, and not at all when
        ``use_store`` is false."""
        self.counters["submitted"] += 1
        start = time.perf_counter()
        store = self.store if use_store and cacheable(job) else None
        if store is not None and not fresh:
            payload = await asyncio.to_thread(store.get_payload, job)
            if payload is not None:
                self.counters["hits"] += 1
                outcome = self._outcome(job, "hit", payload, cached=True,
                                        attempts=0,
                                        wall=time.perf_counter() - start)
                await self._journal(job, outcome)
                return outcome

        task = self._in_flight.get(job.key)
        if task is not None:
            # Attach: share the twin's execution.  shield() keeps a
            # disconnecting waiter from cancelling the shared work.
            self.counters["shared"] += 1
            base = await asyncio.shield(task)
            outcome = dict(base)
            if outcome["status"] == "ok":
                outcome["status"] = "shared"
            outcome["wall_seconds"] = time.perf_counter() - start
            outcome["abandoned"] = []
            await self._journal(job, outcome)
            return outcome

        loop = asyncio.get_running_loop()
        task = loop.create_task(self._run_job(job, store))
        self._in_flight[job.key] = task

        def _cleanup(done_task: "asyncio.Task", key: str = job.key) -> None:
            if self._in_flight.get(key) is done_task:
                del self._in_flight[key]

        task.add_done_callback(_cleanup)
        # shield(): a disconnecting submitter must not kill an execution
        # other clients may be attached to (or about to attach to).
        return await asyncio.shield(task)

    def status(self) -> dict:
        """Daemon-level stats for the ``status`` op."""
        stats = {
            "version": 1,
            "uptime_seconds": time.time() - self.started,  # simcheck: allow=SC001 daemon uptime stamp, not simulated data
            "in_flight": len(self._in_flight),
            "subscribers": len(self._subscribers),
            "workers": self.workers,
            "timeout": self.timeout,
            "retries": self.retries,
            "counters": dict(self.counters),
            "store": None,
        }
        if self.store is not None:
            stats["store"] = {"root": self.store.root,
                              "journal": self.store.journal_path}
        return stats

    def subscribe(self) -> "asyncio.Queue":
        queue: "asyncio.Queue" = asyncio.Queue()
        self._subscribers.append(queue)
        return queue

    def unsubscribe(self, queue: "asyncio.Queue") -> None:
        if queue in self._subscribers:
            self._subscribers.remove(queue)

    async def close(self) -> None:
        """Cancel in-flight work and tear down the pool."""
        for task in list(self._in_flight.values()):
            task.cancel()
        for task in list(self._in_flight.values()):
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self._in_flight.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    # -- execution ---------------------------------------------------------------

    async def _run_job(self, job: Any,
                       store: Optional[ResultStore]) -> dict:
        start = time.perf_counter()
        error: Optional[str] = None
        abandoned: List[dict] = []
        attempt = 0
        for attempt in range(1, self.retries + 2):
            try:
                future, wrapped = await self._dispatch(job)
            except OSError as exc:
                error = f"cannot create worker pool: {exc}"
                continue
            if not wrapped.done():
                error = f"timeout after {self.timeout:.1f}s"
                wrapped.add_done_callback(_consume)
                if not future.cancel():
                    # The worker is still executing the expired attempt
                    # and would hold its slot forever: replace the pool,
                    # as the embedded engine's executor does.
                    abandoned.append(await self._abandon(job, attempt, start))
                    self._replace_pool()
                continue
            try:
                # The future is done: await resolves immediately,
                # without .result()'s blocking API.
                payload = await wrapped
            except BrokenProcessPool:
                # A worker died mid-attempt (OOM-kill, crash).  The pool
                # is unusable; replace it and retry within the budget.
                error = "worker process died (BrokenProcessPool)"
                self._replace_pool()
                continue
            except Exception as exc:  # noqa: BLE001 — job is the fault unit
                error = f"{type(exc).__name__}: {exc}"
                continue

            if store is not None:
                await asyncio.to_thread(store.put_payload, job, payload)
            self.counters["executed"] += 1
            outcome = self._outcome(job, "ok", payload, cached=False,
                                    attempts=attempt,
                                    wall=time.perf_counter() - start,
                                    abandoned=abandoned)
            await self._journal(job, outcome)
            return outcome

        self.counters["failed"] += 1
        outcome = self._outcome(job, "failed", None, cached=False,
                                attempts=attempt,
                                wall=time.perf_counter() - start,
                                error=error, abandoned=abandoned)
        await self._journal(job, outcome)
        return outcome

    async def _dispatch(self, job: Any) -> "Tuple[Future, asyncio.Future]":
        """Submit one attempt and wait for it, up to the timeout.

        Returns the pool future and its asyncio wrapper, which is done
        unless the attempt timed out.  ``asyncio.wait`` hands back a
        wrapper that was cancelled under it instead of raising, so a
        ``CancelledError`` here is always this task's own.  A cancelled
        wrapper means a pool replacement (for another job's stuck or
        dead worker) cancelled the attempt while it was still queued:
        it never ran, so it goes to the new pool as the same attempt.
        """
        while True:
            future = self._submit_to_pool(job)
            wrapped = asyncio.wrap_future(future)
            try:
                await asyncio.wait({wrapped}, timeout=self.timeout)
            except asyncio.CancelledError:
                future.cancel()
                raise
            if not wrapped.cancelled():
                return future, wrapped

    # -- pool plumbing -----------------------------------------------------------

    def _make_pool(self) -> ProcessPoolExecutor:
        """Pool factory; a seam for tests to substitute fakes."""
        return ProcessPoolExecutor(max_workers=self.workers)

    def _submit_to_pool(self, job: Any) -> "Future":
        """Submit one job to the shared pool (creating or replacing the
        pool as needed); a seam for tests."""
        if self._pool is None:
            self._pool = self._make_pool()
        payload = job_to_transport(job)
        try:
            return self._pool.submit(_execute_payload, payload)
        except (BrokenProcessPool, RuntimeError):
            # Pool broke between attempts; one replacement, then let
            # errors surface to the retry loop.
            self._replace_pool()
            assert self._pool is not None
            return self._pool.submit(_execute_payload, payload)

    def _replace_pool(self) -> None:
        self.counters["pool_replacements"] += 1
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = self._make_pool()

    async def _abandon(self, job: Any, attempt: int,
                       start: float) -> dict:
        """Journal one abandoned attempt (stuck worker past timeout)."""
        self.counters["abandoned"] += 1
        event = {"job": job.label, "key": job.key, "attempts": attempt}
        await self._record(
            key=job.key, job=job.label, status="abandoned",
            cached=False, attempts=attempt,
            wall_seconds=time.perf_counter() - start,
            error=f"attempt abandoned: still running after "
                  f"{self.timeout:.1f}s timeout")
        return event

    # -- store / journal ---------------------------------------------------------

    @staticmethod
    def _outcome(job: Any, status: str, payload: Optional[dict], *,
                 cached: bool, attempts: int, wall: float,
                 error: Optional[str] = None,
                 abandoned: Optional[List[dict]] = None) -> dict:
        return {
            "key": job.key,
            "label": job.label,
            "kind": job.kind,
            "status": status,
            "cached": cached,
            "attempts": attempts,
            "wall_seconds": wall,
            "error": error,
            "result": payload,
            "abandoned": list(abandoned or []),
        }

    async def _journal(self, job: Any, outcome: dict) -> None:
        payload = outcome.get("result") or {}
        sim_wall = payload.get("wall_seconds")
        instructions = payload.get("instructions")
        if instructions is None:
            stats = payload.get("stats")
            if isinstance(stats, dict):
                instructions = stats.get("instructions")
        await self._record(
            key=outcome["key"], job=outcome["label"],
            status=outcome["status"], cached=outcome["cached"],
            attempts=outcome["attempts"],
            wall_seconds=outcome["wall_seconds"],
            sim_wall_seconds=sim_wall if isinstance(sim_wall, float)
            else None,
            instructions=instructions
            if isinstance(instructions, int) else None,
            error=outcome["error"])

    async def _record(self, **kwargs: Any) -> None:
        if self.journal is not None:
            # The journal appends with synchronous os.write (O_APPEND
            # keeps lines atomic); hop onto an executor thread so the
            # event loop never blocks on disk (SC007).
            entry = await asyncio.to_thread(self.journal.record,
                                            **kwargs)
        else:
            entry = dict(kwargs)
            entry["ts"] = time.time()  # simcheck: allow=SC001 journal-event timestamp, not simulated data
        for queue in list(self._subscribers):
            queue.put_nowait({"event": "journal", "record": entry})

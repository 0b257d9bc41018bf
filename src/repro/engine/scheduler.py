"""The pool attempt loop: dedupe by content key, run on a process pool.

Every job that runs on a worker process goes through a
:class:`Scheduler`: :class:`~repro.engine.executor.ExperimentEngine`
builds one per pool run, and the ``repro serve`` daemon keeps one for
its lifetime.  Each *unique* job key in flight owns exactly one asyncio
task; a submission of a key already running attaches to it and shares
its outcome (``status="shared"``).  Store hits short-circuit before the
dedupe map; a stored payload the job's kind cannot read back is a miss,
as for :meth:`~repro.engine.store.ResultStore.get`.  Attempts run
:func:`repro.engine.executor._execute_payload`, the one worker entry.

Failure semantics (DESIGN.md §6):

* the pool gets at most one attempt per worker, so an attempt starts on
  a free worker and its ``timeout`` measures its run, not a queue wait;
* an expired attempt whose worker cannot be cancelled replaces the pool
  and is journaled ``"abandoned"``; an attempt still queued in the old
  pool never ran, so it moves to the new pool as the same attempt;
* a dead worker (``BrokenProcessPool``) replaces the pool once, however
  many attempts died with it, and each of their jobs retries alone on
  the pool, so a worker that dies again takes no other job's attempt;
* a death is charged to a job's retry budget only when the job may be
  its cause: an attempt that died on a pool of several workers, with
  other jobs in flight beside it, may have died for another job's
  worker, so its job gets one free re-run, alone;
* ``retries`` extra attempts per job, then a ``"failed"`` outcome, so
  a job runs at most ``retries + 2`` times.

Outcomes are plain dicts in the wire shape (``status``/``cached``/
``attempts``/``wall_seconds``/``error``/``result`` payload).  Every
outcome is journaled; subscribed clients receive each journal record as
a live event.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, AsyncIterator, Dict, List, Optional, Tuple

# The worker entry is read off its module at submit time: workers
# unpickle it by that name, so a pool initializer can rebind it there.
from repro.engine import executor
from repro.engine.job import cacheable, job_to_transport
from repro.engine.journal import RunJournal
from repro.engine.store import ResultStore, read_result


class Scheduler:
    """Deduplicating dispatcher over one process pool at a time."""

    def __init__(self, store: Optional[ResultStore] = None,
                 journal: Optional[RunJournal] = None,
                 workers: Optional[int] = None,
                 timeout: Optional[float] = None,
                 retries: int = 1):
        self.store = store
        if journal is None and store is not None:
            journal = RunJournal(store.journal_path)
        self.journal = journal
        self.workers = max(1, workers or os.cpu_count() or 1)
        self.timeout = timeout
        self.retries = max(0, retries)
        self._pool: Optional[ProcessPoolExecutor] = None
        #: One slot per pool worker, and the lock an attempt that must
        #: run alone holds while it gathers every slot (see _slot).
        self._gate: Optional[Tuple[asyncio.Semaphore, asyncio.Lock]] = None
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
        ``use_store`` is false; ``fresh`` skips the read."""
        self.counters["submitted"] += 1
        start = time.perf_counter()
        key = job.key
        store = self.store if use_store and cacheable(job) else None
        if store is not None and not fresh:
            payload = await asyncio.to_thread(store.get_payload, job)
            if payload is not None and \
                    read_result(job, payload) is not None:
                self.counters["hits"] += 1
                outcome = self._outcome(job, key, "hit", payload,
                                        cached=True, attempts=0,
                                        wall=time.perf_counter() - start)
                await self._journal(outcome)
                return outcome

        task = self._in_flight.get(key)
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
            await self._journal(outcome)
            return outcome

        loop = asyncio.get_running_loop()
        task = loop.create_task(self._run_job(job, key, store))
        self._in_flight[key] = task

        def _cleanup(done_task: "asyncio.Task", key: str = key) -> None:
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

    async def _run_job(self, job: Any, key: str,
                       store: Optional[ResultStore]) -> dict:
        start = 0.0
        error: Optional[str] = None
        abandoned: List[dict] = []
        alone = False
        attempt = 0
        runs = self.retries + 1
        while attempt < runs:
            attempt += 1
            async with self._slot(alone):
                if attempt == 1:
                    # The job's wall time starts with its first attempt
                    # on a free worker, not with its wait for one.
                    start = time.perf_counter()
                try:
                    pool, future, wrapped = await self._dispatch(job)
                except OSError as exc:
                    error = f"cannot create worker pool: {exc}"
                    continue
                if not wrapped.done():
                    error = f"timeout after {self.timeout:.1f}s"
                    # Detached, a late result never reaches this loop,
                    # which may be closed by then.
                    wrapped.cancel()
                    if not future.cancel():
                        # The worker is still executing the expired
                        # attempt and would hold its slot forever.
                        self._replace_pool(pool)
                        abandoned.append(
                            await self._abandon(job, key, attempt, start))
                    continue
                try:
                    # The future is done: await resolves immediately,
                    # without .result()'s blocking API.
                    payload = await wrapped
                except BrokenProcessPool:
                    # A worker died mid-attempt (OOM-kill, crash), and
                    # every attempt on its pool died with it.  An
                    # attempt that had the pool to itself is the
                    # culprit; one that may have shared it with another
                    # job re-runs alone without using the budget, which
                    # happens at most once per job.
                    error = "worker process died (BrokenProcessPool)"
                    self._replace_pool(pool)
                    if not alone and self.workers > 1 \
                            and len(self._in_flight) > 1:
                        runs += 1
                    alone = True
                    continue
                except Exception as exc:  # noqa: BLE001 — job is the fault unit
                    error = f"{type(exc).__name__}: {exc}"
                    continue

            # The worker is free again: the store write and the journal
            # record below do not hold its slot.
            if store is not None:
                await asyncio.to_thread(store.put_payload, job, payload)
            self.counters["executed"] += 1
            outcome = self._outcome(job, key, "ok", payload, cached=False,
                                    attempts=attempt,
                                    wall=time.perf_counter() - start,
                                    abandoned=abandoned)
            await self._journal(outcome)
            return outcome

        self.counters["failed"] += 1
        outcome = self._outcome(job, key, "failed", None, cached=False,
                                attempts=attempt,
                                wall=time.perf_counter() - start,
                                error=error, abandoned=abandoned)
        await self._journal(outcome)
        return outcome

    @contextlib.asynccontextmanager
    async def _slot(self, alone: bool) -> AsyncIterator[None]:
        """Hold one pool worker for an attempt, or every worker when the
        attempt must run ``alone``."""
        if self._gate is None:
            # Made inside the loop that uses them: Python 3.9 binds
            # asyncio primitives to a loop when they are constructed.
            self._gate = (asyncio.Semaphore(self.workers), asyncio.Lock())
        slots, gathering = self._gate
        held = 0
        try:
            if alone:
                # One attempt gathers slots at a time: two that each
                # held some would wait for each other forever.
                async with gathering:
                    for _ in range(self.workers):
                        await slots.acquire()
                        held += 1
            else:
                await slots.acquire()
                held = 1
            yield
        finally:
            for _ in range(held):
                slots.release()

    async def _dispatch(self, job: Any) -> Tuple[
            Optional[ProcessPoolExecutor], "Future", "asyncio.Future"]:
        """Submit one attempt and wait for it, up to the timeout.

        Returns the pool the attempt ran on, the pool future and its
        asyncio wrapper, which is done unless the attempt timed out.
        ``asyncio.wait`` hands back a wrapper that was cancelled under
        it instead of raising, so a ``CancelledError`` here is always
        this task's own.  A cancelled wrapper means a pool replacement
        (for another job's stuck or dead worker) cancelled the attempt
        while it was still queued: it never ran, so it goes to the new
        pool as the same attempt.
        """
        while True:
            future = self._submit_to_pool(job)
            pool = self._pool
            wrapped = asyncio.wrap_future(future)
            try:
                await asyncio.wait({wrapped}, timeout=self.timeout)
            except asyncio.CancelledError:
                wrapped.cancel()
                future.cancel()
                raise
            if not wrapped.cancelled():
                return pool, future, wrapped

    # -- pool plumbing -----------------------------------------------------------

    def _make_pool(self) -> ProcessPoolExecutor:
        """Pool factory; a seam for tests to substitute fakes."""
        return ProcessPoolExecutor(max_workers=self.workers)

    def _submit_to_pool(self, job: Any) -> "Future":
        """Submit one attempt to the current pool, making one first if
        there is none; a seam for tests."""
        payload = job_to_transport(job)
        if self._pool is None:
            self._pool = self._make_pool()
        try:
            return self._pool.submit(executor._execute_payload, payload)
        except (BrokenProcessPool, RuntimeError):
            # The pool broke since the last attempt: one replacement,
            # then let errors surface to the retry loop.
            self._replace_pool(self._pool)
            self._pool = self._make_pool()
            return self._pool.submit(executor._execute_payload, payload)

    def _replace_pool(self, pool: Optional[ProcessPoolExecutor]) -> None:
        """Shut ``pool`` down so the next attempt gets a fresh one, unless
        it is gone already: every attempt that died with a pool calls
        this, and the pool is replaced once."""
        if pool is not self._pool:
            return
        self.counters["pool_replacements"] += 1
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        self._pool = None

    async def _abandon(self, job: Any, key: str, attempt: int,
                       start: float) -> dict:
        """Journal one abandoned attempt (stuck worker past timeout)."""
        self.counters["abandoned"] += 1
        event = {"job": job.label, "key": key, "attempts": attempt}
        await self._record(
            key=key, job=job.label, status="abandoned",
            cached=False, attempts=attempt,
            wall_seconds=time.perf_counter() - start,
            error=f"attempt abandoned: still running after "
                  f"{self.timeout:.1f}s timeout")
        return event

    # -- store / journal ---------------------------------------------------------

    @staticmethod
    def _outcome(job: Any, key: str, status: str, payload: Optional[dict],
                 *, cached: bool, attempts: int, wall: float,
                 error: Optional[str] = None,
                 abandoned: Optional[List[dict]] = None) -> dict:
        return {
            "key": key,
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

    async def _journal(self, outcome: dict) -> None:
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

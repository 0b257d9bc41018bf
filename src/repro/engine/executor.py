"""Experiment engine: run a list of jobs against the result store.

The engine resolves each job against the content-addressed store first
(hits cost one JSON read).  It runs the misses in-process when it has
one worker or one miss, and otherwise on a process pool through the
pool attempt loop, :class:`~repro.engine.scheduler.Scheduler`, the same
loop the ``repro serve`` daemon runs.  Jobs cross the process boundary
as plain dicts and results come back as
:meth:`SimulationResult.to_dict` blobs — the same serialized form the
store uses, so parallel execution and caching exercise one code path
and one determinism contract.

Failure handling is the loop's: a per-attempt ``timeout`` from the
attempt's start on a free worker, ``retries`` extra attempts per job,
and a pool replacement for a stuck or dead worker (see
:mod:`repro.engine.scheduler`).  A crashing job therefore ends as a
``"failed"`` outcome; it never runs in, or takes down, the calling
process.  The engine adds one fallback: when a pool cannot be created
(``OSError``), the misses run in-process, where a timeout cannot be
enforced.  Jobs with the same key in one batch run once; the twin's
outcome reads ``"shared"``.

Every outcome — hit, fresh run, or failure — is journaled (JSONL) with
wall time and host instructions/sec; see :mod:`repro.engine.journal`.
"""

from __future__ import annotations

import asyncio
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Coroutine, List, Optional, Sequence

from repro.engine.job import cacheable, job_from_transport
from repro.engine.journal import RunJournal
from repro.engine.scheduler import Scheduler
from repro.engine.store import ResultStore


def _execute_payload(payload: dict) -> dict:
    """Worker-side entry point (module-level so it pickles): a job in
    its transport form (:func:`~repro.engine.job.job_to_transport`) in,
    its result's ``to_dict()`` out."""
    return job_from_transport(payload).run().to_dict()


class JobOutcome:
    """What happened to one job: result + provenance.

    ``job`` and ``result`` are duck-typed to the registered job kind
    (``SimJob``/``SimulationResult`` for simulations): the engine only
    needs ``key``/``label`` on the job and ``wall_seconds``/
    ``instructions`` on the result.
    """

    __slots__ = ("job", "result", "status", "wall_seconds", "attempts",
                 "error")

    def __init__(self, job: Any, result: Optional[Any],
                 status: str, wall_seconds: float, attempts: int,
                 error: Optional[str] = None):
        self.job = job
        self.result = result
        self.status = status        # "hit" | "ok" | "shared" | "failed"
        self.wall_seconds = wall_seconds
        self.attempts = attempts
        self.error = error

    @classmethod
    def from_dict(cls, job: Any, outcome: dict) -> "JobOutcome":
        """The outcome of ``job`` from the loop's outcome dict (or the
        daemon's ``job`` event that carries it), its result payload read
        back through the job's kind."""
        payload = outcome.get("result")
        result = None if payload is None else \
            type(job).result_from_dict(payload)
        return cls(job, result, outcome["status"],
                   outcome.get("wall_seconds", 0.0),
                   outcome.get("attempts", 0), outcome.get("error"))

    @property
    def ok(self) -> bool:
        return self.result is not None

    @property
    def cached(self) -> bool:
        return self.status == "hit"

    def __repr__(self) -> str:
        return (f"<JobOutcome {self.job.label} {self.status} "
                f"{self.wall_seconds:.2f}s>")


class _EngineScheduler(Scheduler):
    """The loop for one pool run of an engine: every pool it uses, the
    first and each replacement, comes from the engine's ``_make_pool``."""

    def __init__(self, engine: "ExperimentEngine",
                 pool: ProcessPoolExecutor, workers: int):
        super().__init__(store=engine.store, journal=engine.journal,
                         workers=workers, timeout=engine.timeout,
                         retries=engine.retries)
        self._engine = engine
        self._pool = pool

    def _make_pool(self) -> ProcessPoolExecutor:
        return self._engine._make_pool(self.workers)


def _run_coroutine(coro: Coroutine[Any, Any, Any]) -> Any:
    """``asyncio.run(coro)``, also when the calling thread already runs
    an event loop (a notebook, say): ``coro`` then gets a loop of its
    own on a helper thread."""
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return asyncio.run(coro)
    with ThreadPoolExecutor(max_workers=1) as helper:
        return helper.submit(asyncio.run, coro).result()


class ExperimentEngine:
    """Runs job lists against a result store with process-level
    parallelism.

    ``jobs`` is the worker-process count (default ``os.cpu_count()``);
    ``jobs=1`` runs everything serially in-process.  ``timeout`` bounds
    each attempt's wall time in pool mode; ``retries`` bounds extra
    attempts after a failure or timeout.
    """

    def __init__(self, store: Optional[ResultStore] = None,
                 journal: Optional[RunJournal] = None,
                 jobs: Optional[int] = None,
                 timeout: Optional[float] = None,
                 retries: int = 1):
        self.store = store
        if journal is None and store is not None:
            journal = RunJournal(store.journal_path)
        self.journal = journal
        self.max_workers = max(1, jobs if jobs else (os.cpu_count() or 1))
        self.timeout = timeout
        self.retries = max(0, retries)
        #: Abandoned-attempt events from the most recent :meth:`run` —
        #: expired attempts whose worker could not be cancelled (the
        #: journal records them as ``status="abandoned"``).  A job can
        #: be abandoned and still succeed on retry, so callers that must
        #: surface stuck workers (``cmd_sweep``/``cmd_compare``) check
        #: this list rather than the outcomes.
        self.abandoned: List[dict] = []

    # -- public API --------------------------------------------------------------

    def run(self, jobs: Sequence[Any],
            fresh: bool = False) -> List[JobOutcome]:
        """Execute ``jobs``; outcomes come back in input order.

        ``fresh=True`` skips cache *reads* (every job simulates) but
        still records results to the store, so a fresh run refreshes the
        cache rather than forking from it.  Only :func:`cacheable` jobs
        touch the store at all.
        """
        jobs = list(jobs)
        self.abandoned = []
        outcomes: List[Optional[JobOutcome]] = [None] * len(jobs)
        misses: List[int] = []
        for idx, job in enumerate(jobs):
            start = time.perf_counter()
            result = None
            if not fresh and self.store is not None and cacheable(job):
                result = self.store.get(job)
            if result is None:
                misses.append(idx)
                continue
            hit = JobOutcome(job, result, "hit",
                             time.perf_counter() - start, 0)
            self._journal(hit)
            outcomes[idx] = hit

        pooled = None
        if self.max_workers > 1 and len(misses) > 1:
            pooled = self._run_on_pool([jobs[idx] for idx in misses])
        for n, idx in enumerate(misses):
            outcomes[idx] = pooled[n] if pooled is not None \
                else self._run_serial(jobs[idx])
        return outcomes  # type: ignore[return-value]

    def run_one(self, job: Any, fresh: bool = False) -> JobOutcome:
        return self.run([job], fresh=fresh)[0]

    @staticmethod
    def summarize(outcomes: Sequence[JobOutcome]) -> dict:
        """Aggregate counts the CLI and benches report.  ``"shared"``
        outcomes (a job coalesced onto an in-flight execution of the
        same key, in one batch or from another daemon client) count as
        simulated: the work ran live, just once for everyone."""
        hits = sum(1 for o in outcomes if o.status == "hit")
        simulated = sum(1 for o in outcomes
                        if o.status in ("ok", "shared"))
        failed = sum(1 for o in outcomes if o.status == "failed")
        sim_wall = sum(o.result.wall_seconds for o in outcomes
                       if o.status in ("ok", "shared"))
        return {"total": len(outcomes), "hits": hits,
                "simulated": simulated, "failed": failed,
                "sim_wall_seconds": sim_wall}

    # -- serial path -------------------------------------------------------------

    def _run_serial(self, job: Any) -> JobOutcome:
        """Run ``job`` in-process, up to ``retries + 1`` attempts."""
        start = time.perf_counter()
        error = None
        attempt = 0
        for attempt in range(1, self.retries + 2):
            try:
                result = job.run()
            except Exception as exc:  # noqa: BLE001 — job is the fault unit
                error = f"{type(exc).__name__}: {exc}"
                continue
            if self.store is not None and cacheable(job):
                self.store.put(job, result)
            outcome = JobOutcome(job, result, "ok",
                                 time.perf_counter() - start, attempt)
            break
        else:
            outcome = JobOutcome(job, None, "failed",
                                 time.perf_counter() - start, attempt,
                                 error)
        self._journal(outcome)
        return outcome

    # -- pool path ---------------------------------------------------------------

    def _make_pool(self, workers: int) -> ProcessPoolExecutor:
        """Pool factory; a seam for tests to substitute fakes."""
        return ProcessPoolExecutor(max_workers=workers)

    def _run_on_pool(self, jobs: List[Any]) -> Optional[List[JobOutcome]]:
        """Run ``jobs`` through the loop, which journals their outcomes,
        on one pool of up to ``max_workers`` workers; None when the pool
        cannot be created."""
        workers = min(self.max_workers, len(jobs))
        try:
            pool = self._make_pool(workers)
        except OSError:
            return None
        scheduler = _EngineScheduler(self, pool, workers)

        async def submit_all() -> List[dict]:
            try:
                # run() has read the store for these jobs: the loop
                # only writes it.
                return await asyncio.gather(
                    *(scheduler.submit(job, fresh=True) for job in jobs))
            finally:
                await scheduler.close()

        results = _run_coroutine(submit_all())
        self.abandoned = [event for outcome in results
                          for event in outcome["abandoned"]]
        return [JobOutcome.from_dict(job, outcome)
                for job, outcome in zip(jobs, results)]

    # -- plumbing ----------------------------------------------------------------

    def _journal(self, outcome: JobOutcome) -> None:
        if self.journal is None:
            return
        result = outcome.result
        self.journal.record(
            key=outcome.job.key,
            job=outcome.job.label,
            status=outcome.status,
            cached=outcome.cached,
            attempts=outcome.attempts,
            wall_seconds=outcome.wall_seconds,
            sim_wall_seconds=result.wall_seconds if result else None,
            instructions=result.instructions if result else None,
            error=outcome.error)

"""Parallel executor: fan a list of :class:`SimJob` out over processes.

The engine resolves each job against the content-addressed store first
(hits cost one JSON read), then fans the misses out over a
``ProcessPoolExecutor``.  Jobs cross the process boundary as plain dicts
and results come back as :meth:`SimulationResult.to_dict` blobs — the
same serialized form the store uses, so parallel execution and caching
exercise one code path and one determinism contract.

Failure handling:

* per-job timeout (``timeout=`` seconds per attempt, measured from the
  attempt's actual submission; expired jobs are abandoned and retried
  or failed — only enforceable in pool mode, since a serial in-process
  simulation cannot be interrupted).  ``Future.cancel()`` cannot stop
  an attempt that is already *running*, so expiring one replaces the
  whole pool (journaled as ``status="abandoned"``) and re-submits the
  surviving in-flight jobs with their attempt counts intact,
* bounded retry (``retries=`` extra attempts per job, default 1) for
  transient worker failures; the budget is shared with the serial
  fallback path — attempts consumed in the pool are not granted again,
* graceful degradation — if the pool cannot be created or dies
  (``BrokenProcessPool``: OOM-killed worker, interpreter crash), the
  unfinished jobs fall back to serial in-process execution rather than
  failing the run.

Every outcome — hit, fresh run, or failure — is journaled (JSONL) with
wall time and host instructions/sec; see :mod:`repro.engine.journal`.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, List, Optional, Sequence

from repro.engine.job import cacheable, job_from_transport, job_to_transport
from repro.engine.journal import RunJournal
from repro.engine.store import ResultStore

# Kept as the executor's vocabulary (and the sweep daemon's): a job
# crosses process/socket boundaries as {"kind": ..., "job": {...}}.
_transport = job_to_transport


def _execute_payload(payload: dict) -> dict:
    """Worker-side entry point (module-level so it pickles)."""
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
        self.status = status            # "hit" | "ok" | "failed"
        self.wall_seconds = wall_seconds
        self.attempts = attempts
        self.error = error

    @property
    def ok(self) -> bool:
        return self.result is not None

    @property
    def cached(self) -> bool:
        return self.status == "hit"

    def __repr__(self) -> str:
        return (f"<JobOutcome {self.job.label} {self.status} "
                f"{self.wall_seconds:.2f}s>")


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

        pending: List[tuple] = []
        for idx, job in enumerate(jobs):
            start = time.perf_counter()
            result = None
            if not fresh and self.store is not None and cacheable(job):
                result = self.store.get(job)
            if result is not None:
                outcomes[idx] = JobOutcome(
                    job, result, "hit", time.perf_counter() - start, 0)
            else:
                pending.append((idx, job))

        if pending:
            if self.max_workers > 1 and len(pending) > 1:
                leftover = self._run_pool(pending, outcomes)
            else:
                leftover = [(idx, job, 0) for idx, job in pending]
            for idx, job, consumed in leftover:
                outcomes[idx] = self._run_serial(job, consumed)

        for idx, job in enumerate(jobs):
            if outcomes[idx] is None:
                # Defensive: a pool-path bug (e.g. pool replacement dying
                # mid-flight) must surface as a failed outcome, not a
                # None that crashes journaling.
                outcomes[idx] = JobOutcome(
                    job, None, "failed", 0.0, 0,
                    "engine error: job finished without an outcome")
        for outcome in outcomes:
            self._journal(outcome)
        return outcomes  # type: ignore[return-value]

    def run_one(self, job: Any, fresh: bool = False) -> JobOutcome:
        return self.run([job], fresh=fresh)[0]

    @staticmethod
    def summarize(outcomes: Sequence[JobOutcome]) -> dict:
        """Aggregate counts the CLI and benches report.  ``"shared"``
        outcomes (a sweep daemon coalescing this submission onto another
        client's in-flight execution of the same key) count as
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

    def _run_serial(self, job: Any, consumed: int = 0) -> JobOutcome:
        """Run ``job`` in-process.  ``consumed`` is the number of attempts
        the job already burned in pool mode (e.g. an attempt that died with
        a broken pool) — the retry budget is shared across both paths, so
        serial fallback continues the count instead of restarting it."""
        start = time.perf_counter()
        error = "process pool failed before any serial attempt" \
            if consumed else None
        attempt = consumed
        for attempt in range(consumed + 1, self.retries + 2):
            try:
                result = job.run()
            except Exception as exc:  # noqa: BLE001 — job is the fault unit
                error = f"{type(exc).__name__}: {exc}"
                continue
            self._store(job, result)
            return JobOutcome(job, result, "ok",
                              time.perf_counter() - start, attempt)
        return JobOutcome(job, None, "failed",
                          time.perf_counter() - start,
                          max(attempt, consumed), error)

    # -- pool path ---------------------------------------------------------------

    def _make_pool(self, workers: int) -> ProcessPoolExecutor:
        """Pool factory; a seam for tests to substitute fakes."""
        return ProcessPoolExecutor(max_workers=workers)

    def _run_pool(self, pending: List[tuple],
                  outcomes: List[Optional[JobOutcome]]) -> List[tuple]:
        """Run ``(idx, job)`` pairs in a process pool, filling
        ``outcomes``.  Returns ``(idx, job, consumed_attempts)`` triples
        that should fall back to serial execution (pool creation failed
        or the pool broke)."""
        try:
            pool = self._make_pool(min(self.max_workers, len(pending)))
        except OSError:
            return [(idx, job, 0) for idx, job in pending]

        in_flight = {}
        try:
            for idx, job in pending:
                future = pool.submit(_execute_payload, _transport(job))
                in_flight[future] = (idx, job, 1, time.perf_counter())
            while in_flight:
                pool = self._collect(pool, in_flight, outcomes)
        except (BrokenProcessPool, OSError):
            # The in-flight attempts died with the pool: they count
            # against each job's retry budget in the serial fallback.
            leftover = [(idx, job, attempt) for idx, job, attempt, _ in
                        in_flight.values()]
            pool.shutdown(wait=False, cancel_futures=True)
            return leftover
        pool.shutdown(wait=False, cancel_futures=True)
        return []

    def _collect(self, pool, in_flight, outcomes):
        """One wait cycle: harvest finished futures, expire overdue ones,
        resubmit retryable failures.  Returns the pool to keep using —
        a *new* pool when expiry had to abandon running workers."""
        wait_timeout = None
        if self.timeout is not None:
            soonest = min(start for _, _, _, start in in_flight.values())
            wait_timeout = max(0.0,
                               soonest + self.timeout - time.perf_counter())
        done, _ = wait(set(in_flight), timeout=wait_timeout,
                       return_when=FIRST_COMPLETED)

        now = time.perf_counter()
        if not done:
            expired = []
            for future in list(in_flight):
                start = in_flight[future][3]
                if now - start >= (self.timeout or float("inf")):
                    expired.append((future, in_flight.pop(future)))
            abandoned = []
            for future, entry in expired:
                if not future.cancel():
                    # cancel() is a no-op on a *running* future: the
                    # worker is still executing the expired attempt and
                    # would keep its slot indefinitely.  Replace the pool.
                    abandoned.append(entry)
            if abandoned:
                pool = self._replace_pool(pool, in_flight, abandoned)
            for _, (idx, job, attempt, start) in expired:
                self._retry_or_fail(
                    pool, in_flight, outcomes, idx, job, attempt, start,
                    f"timeout after {self.timeout:.1f}s")
            return pool

        for future in done:
            idx, job, attempt, start = in_flight.pop(future)
            try:
                payload = future.result()
            except BrokenProcessPool:
                in_flight[future] = (idx, job, attempt, start)
                raise
            except Exception as exc:  # noqa: BLE001 — worker-side failure
                self._retry_or_fail(pool, in_flight, outcomes, idx, job,
                                    attempt, start,
                                    f"{type(exc).__name__}: {exc}")
                continue
            result = type(job).result_from_dict(payload)
            self._store(job, result)
            outcomes[idx] = JobOutcome(job, result, "ok",
                                       now - start, attempt)
        return pool

    def _replace_pool(self, pool, in_flight, abandoned):
        """Tear down ``pool`` (some workers are stuck on expired attempts
        that ``cancel()`` could not stop) and move the surviving in-flight
        jobs onto a fresh pool with their attempt counts intact."""
        for idx, job, attempt, start in abandoned:
            self.abandoned.append({
                "job": job.label, "key": job.key, "attempts": attempt})
            if self.journal is not None:
                self.journal.record(
                    key=job.key, job=job.label, status="abandoned",
                    cached=False, attempts=attempt,
                    wall_seconds=time.perf_counter() - start,
                    error=f"attempt abandoned: still running after "
                          f"{self.timeout:.1f}s timeout")
        survivors = list(in_flight.values())
        in_flight.clear()
        pool.shutdown(wait=False, cancel_futures=True)
        new_pool = self._make_pool(
            min(self.max_workers, max(1, len(survivors) + len(abandoned))))
        for idx, job, attempt, _ in survivors:
            future = new_pool.submit(_execute_payload, _transport(job))
            in_flight[future] = (idx, job, attempt, time.perf_counter())
        return new_pool

    def _retry_or_fail(self, pool, in_flight, outcomes, idx, job,
                       attempt, start, error) -> None:
        if attempt <= self.retries:
            future = pool.submit(_execute_payload, _transport(job))
            in_flight[future] = (idx, job, attempt + 1,
                                 time.perf_counter())
        else:
            outcomes[idx] = JobOutcome(
                job, None, "failed",
                time.perf_counter() - start, attempt, error)

    # -- plumbing ----------------------------------------------------------------

    def _store(self, job: Any, result: Any) -> None:
        if self.store is not None and cacheable(job):
            self.store.put(job, result)

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

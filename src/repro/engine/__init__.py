"""repro.engine — parallel experiment engine with a content-addressed
result cache.

Every paper artifact is a grid of (workload × technique × config)
simulations; this package turns that grid into data and executes it
fast.

**Job identity** (job.py).  A :class:`SimJob` is one simulation as
plain data: workload registry name, scale and data seed, technique,
instruction cap, and the fully resolved
:class:`~repro.core.config.CoreConfig`.  Its :attr:`~SimJob.key` is a
SHA-256 over that spec *plus a fingerprint of the repro source tree*
(:func:`code_fingerprint`), so two jobs share a key only when
re-simulating is guaranteed to reproduce the stored result
bit-identically — any source change invalidates the whole cache
automatically.  Non-semantic knobs (currently only
:attr:`~SimJob.trace_dir`, the observability trace destination) are
excluded from the key: they change what gets written beside the run,
never the result.  Every job kind with a ``spec()`` derives its key the
same way (:func:`~repro.engine.job.content_key`), and only such kinds
are cached (:func:`~repro.engine.job.cacheable`): ``sim``, ``sample``
and ``predict`` jobs, never ``fuzz`` cases.

**Store** (store.py).  :class:`ResultStore` maps job keys to
``SimulationResult.to_dict()`` JSON blobs under ``.repro-cache/``
(override with ``REPRO_CACHE_DIR``), written atomically so crashed or
concurrent runs never leave truncated entries; unreadable blobs read
as misses.

**Journal** (journal.py).  :class:`RunJournal` appends one JSONL record
per finished job — status (``hit``/``ok``/``failed``/``abandoned``),
attempts, wall time, host instructions/sec — to ``<cache>/
journal.jsonl``.  It is the audit trail ``repro report`` summarizes.

**Executor and pool attempt loop** (executor.py, scheduler.py).
:class:`ExperimentEngine` resolves jobs against the store and runs the
misses in-process when it has one worker or one miss; otherwise it
runs them on a ``ProcessPoolExecutor`` through :class:`Scheduler`, the
one loop that runs jobs on worker processes (the ``repro serve``
daemon runs it too):

* the pool gets at most one attempt per worker, so each attempt's
  ``timeout`` runs from its start on a free worker; an expired attempt
  whose worker cannot be cancelled forces a *pool replacement* and is
  journaled ``"abandoned"`` and recorded on
  :attr:`ExperimentEngine.abandoned` (the CLI exits nonzero on these
  even when the retry later succeeds),
* a dead worker (``BrokenProcessPool``) replaces the pool once, and its
  jobs retry within ``retries`` alone on the pool: a crashing job fails
  without taking the caller or other jobs down,
* jobs with one key in flight run once; the twins read ``"shared"``,
* every job ends with a journaled :class:`JobOutcome`.

Only a pool that cannot be created (``OSError``) sends the misses back
in-process.

:func:`expand_grid` (grid.py) is the sweep vocabulary that builds job
lists from workload/technique/config axes.

Quickstart::

    from repro.engine import ExperimentEngine, ResultStore, expand_grid

    jobs = expand_grid(["gap.bfs", "gap.pr"], ["nowp", "conv"],
                       scale="medium", max_instructions=250_000)
    engine = ExperimentEngine(store=ResultStore(), jobs=4)
    for outcome in engine.run(jobs):
        print(outcome.job.label, outcome.status, outcome.result.ipc)
"""

from repro.engine.executor import ExperimentEngine, JobOutcome
from repro.engine.grid import (expand_grid, parse_overrides,
                               resolve_techniques, resolve_workload,
                               resolve_workloads)
from repro.engine.job import (JOB_KINDS, SimJob, code_fingerprint,
                              job_class, job_from_transport,
                              job_to_transport, register_job_kind)
from repro.engine.journal import RunJournal
from repro.engine.scheduler import Scheduler
from repro.engine.store import ResultStore, StoreIndex

__all__ = [
    "ExperimentEngine", "JobOutcome", "Scheduler", "SimJob",
    "code_fingerprint", "ResultStore", "RunJournal", "StoreIndex",
    "expand_grid",
    "parse_overrides", "resolve_techniques", "resolve_workload",
    "resolve_workloads", "JOB_KINDS", "job_class", "job_from_transport",
    "job_to_transport", "register_job_kind",
]

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

**Executor failure semantics** (executor.py).
:class:`ExperimentEngine` resolves jobs against the store, then fans
misses out over a ``ProcessPoolExecutor``:

* each attempt gets a wall-clock ``timeout`` (pool mode only); an
  expired attempt whose worker cannot be cancelled forces a *pool
  replacement* — the stuck attempt is journaled ``"abandoned"`` and
  recorded on :attr:`ExperimentEngine.abandoned` (the CLI exits
  nonzero on these even when the retry later succeeds),
* failures retry up to ``retries`` extra attempts; the budget is
  shared with the serial fallback, so pool attempts are not granted
  again after a fallback,
* a broken or uncreatable pool degrades to serial in-process
  execution instead of failing the run,
* every job always ends with a :class:`JobOutcome`; outcomes are
  journaled in input order.

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
from repro.engine.store import ResultStore, StoreIndex

__all__ = [
    "ExperimentEngine", "JobOutcome", "SimJob", "code_fingerprint",
    "ResultStore", "RunJournal", "StoreIndex", "expand_grid",
    "parse_overrides", "resolve_techniques", "resolve_workload",
    "resolve_workloads", "JOB_KINDS", "job_class", "job_from_transport",
    "job_to_transport", "register_job_kind",
]

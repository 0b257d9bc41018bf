"""Label harvesting: the result store is the training set.

Every ``kind="sim"`` blob in ``.repro-cache/`` is a ground-truth
``(job spec, measured IPC)`` pair the engine already paid for —
:func:`harvest` walks the store (index first, via
:meth:`~repro.engine.store.StoreIndex.entries`; full tree scan as the
fallback for index-less caches) and turns each one into a
:class:`LabeledPoint`.  Blobs that are not sim jobs, reference
workloads no longer in the registry, or fail to rehydrate are skipped
silently: a cache is allowed to hold foreign/stale entries, and the
harvester's contract is "every label it returns is real", not "it
returns every blob".

Harvesting reads blobs with :meth:`ResultStore.read_blob` rather than
:meth:`ResultStore.get_blob`, so a training pass never perturbs the
store's LRU recency order and never reads through to other roots.

:func:`split` is the seeded holdout partition the differential
guardrail tests and ``repro surrogate train --holdout`` evaluate on.
"""

from __future__ import annotations

import dataclasses
import json
import random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.engine.job import SimJob
from repro.engine.store import ResultStore
from repro.simulator.simulation import SimulationResult

_SIM_JOB_FIELDS = frozenset(
    f.name for f in dataclasses.fields(SimJob))


@dataclasses.dataclass
class LabeledPoint:
    """One harvested ``(sim-job spec, measured IPC)`` training pair."""

    key: str                 # the store's content hash for the job
    job_dict: Dict           # SimJob.to_dict() form, trace_dir stripped
    ipc: float               # ground-truth label from the stored result

    def __post_init__(self):
        self.job_dict = dict(self.job_dict)
        self.job_dict["trace_dir"] = None

    def job(self) -> SimJob:
        """The live job this point was measured from."""
        return SimJob.from_dict(self.job_dict)

    @property
    def workload(self) -> str:
        return self.job_dict["workload"]

    @property
    def technique(self) -> str:
        return self.job_dict["technique"]

    def to_dict(self) -> dict:
        return {"key": self.key, "job_dict": dict(self.job_dict),
                "ipc": self.ipc}

    @classmethod
    def from_dict(cls, data: dict) -> "LabeledPoint":
        return cls(key=data["key"], job_dict=data["job_dict"],
                   ipc=data["ipc"])

    def __repr__(self) -> str:
        return (f"<LabeledPoint {self.workload}/{self.technique} "
                f"ipc={self.ipc:.4f} [{self.key[:12]}]>")


def _point_from_blob(blob: dict,
                     known_workloads: frozenset
                     ) -> Optional[LabeledPoint]:
    job_dict = blob.get("job")
    payload = blob.get("result")
    if not isinstance(job_dict, dict) or not isinstance(payload, dict):
        return None
    if set(job_dict) != _SIM_JOB_FIELDS:
        return None     # some other job kind's blob (fuzz/sample/...)
    try:
        job = SimJob.from_dict(job_dict)
    except (TypeError, ValueError):
        return None
    if job.workload not in known_workloads:
        return None     # featurization could never rebuild the program
    try:
        result = SimulationResult.from_dict(payload)
    except (KeyError, TypeError, ValueError):
        return None
    if not result.instructions or not result.cycles:
        return None
    return LabeledPoint(key=blob["key"], job_dict=job.to_dict(),
                        ipc=float(result.ipc))


def iter_store_keys(store: ResultStore) -> Iterator[str]:
    """Every blob key: the recency index when it has one, else the
    (slower) full tree scan."""
    seen = set()
    for key, _ in store.index.entries():
        seen.add(key)
        yield key
    for key in store.keys():
        if key not in seen:
            yield key


def harvest(store: ResultStore,
            workloads: Optional[Sequence[str]] = None,
            techniques: Optional[Sequence[str]] = None
            ) -> List[LabeledPoint]:
    """Every usable sim result in ``store``, as labeled points.

    Optional ``workloads``/``techniques`` restrict the harvest (e.g.
    train a per-suite model).  Points come back sorted by key, so the
    harvest is a pure function of store *content*, not of index
    recency order.

    Points are deduplicated by **job spec**, not by store key: a
    long-lived cache accumulates the same simulation input under
    several keys as the code fingerprint drifts across source changes,
    and letting those spec-twins through would seed both sides of a
    train/holdout :func:`split` with the same point — silently
    flattering every differential error bound.  Among spec-twins the
    lowest key wins, deterministically.
    """
    from repro.workloads import workload_names
    known = frozenset(workload_names())
    wanted_w = frozenset(workloads) if workloads else None
    wanted_t = frozenset(techniques) if techniques else None
    points: Dict[str, LabeledPoint] = {}
    by_spec: Dict[str, str] = {}
    for key in iter_store_keys(store):
        if key in points:
            continue
        blob = store.read_blob(key)
        if blob is None:
            continue
        point = _point_from_blob(blob, known)
        if point is None:
            continue
        if wanted_w is not None and point.workload not in wanted_w:
            continue
        if wanted_t is not None and point.technique not in wanted_t:
            continue
        spec = json.dumps(point.job().spec(), sort_keys=True)
        twin = by_spec.get(spec)
        if twin is not None:
            if key >= twin:
                continue
            points.pop(twin, None)
        by_spec[spec] = key
        points[key] = point
    return [points[key] for key in sorted(points)]


def split(points: Sequence[LabeledPoint], holdout: float = 0.25,
          seed: int = 0) -> Tuple[List[LabeledPoint],
                                  List[LabeledPoint]]:
    """Seeded ``(train, held_out)`` partition.

    Canonical key order is shuffled by ``random.Random(seed)``, so the
    partition depends only on ``(point set, holdout, seed)`` — never on
    harvest order.  With at least two points, both sides are non-empty
    whenever ``0 < holdout < 1``.
    """
    if not 0.0 <= holdout < 1.0:
        raise ValueError(f"holdout must be in [0, 1), got {holdout}")
    ordered = sorted(points, key=lambda p: p.key)
    random.Random(seed).shuffle(ordered)
    n_held = int(round(len(ordered) * holdout))
    if holdout > 0.0 and len(ordered) >= 2:
        n_held = min(max(n_held, 1), len(ordered) - 1)
    held = ordered[:n_held]
    train = ordered[n_held:]
    return (sorted(train, key=lambda p: p.key),
            sorted(held, key=lambda p: p.key))

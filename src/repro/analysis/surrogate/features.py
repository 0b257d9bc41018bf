"""Feature pipeline: (config, technique, workload, trace stats) → vector.

Everything the engine's cache key treats as simulation input is folded
into one fixed-width numeric vector:

* **Config features** — every numeric :class:`CoreConfig` field in
  dataclass declaration order, passed through a sign-preserving
  ``log2(1+|x|)`` (cache sizes span 1 KiB..3 MiB; latencies 1..300 —
  log space keeps one axis from drowning the rest), plus one-hots for
  the two categorical axes (``predictor_kind``, ``l2_prefetcher``) and
  an ordinal "predictor strength" rank.
* **Technique one-hot** over the four wrong-path models.
* **Job shape** — instruction cap and workload scale ordinal.
* **Workload static features** — instruction mix fractions and data
  footprint read off the built :class:`~repro.isa.program.Program`.
* **Trace statistics** — the order-invariant episode aggregates of
  :mod:`repro.obs.features`, zeros (plus a ``has_trace=0`` indicator)
  when the workload was never traced.

The vector is **always finite**: every input passes through
:func:`_finite` (NaN/inf clamp to 0) before any transform — a
hypothesis-tested property, since a single NaN would silently poison a
trained model.  Width and ordering are fixed by :func:`feature_names`;
:class:`FeaturePipeline` adds the per-workload caches (built programs,
trace profiles) that make batch featurization cheap.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import CoreConfig
from repro.obs.features import TRACE_STAT_FIELDS
from repro.simulator.simulation import ALL_TECHNIQUES

#: Categorical CoreConfig axes (everything else is numeric).
PREDICTOR_KINDS = ("bimodal", "gshare", "tournament", "tage", "perfect")
PREFETCHER_KINDS = (None, "next_line", "stride")

#: Ordinal accuracy rank per predictor kind — gives the regressor a
#: monotone axis the one-hots alone cannot express.  The rank order is
#: the empirical accuracy order on this repo's workloads; ``perfect``
#: is definitionally last.
PREDICTOR_RANK = {"bimodal": 0.0, "gshare": 1.0, "tournament": 2.0,
                  "tage": 3.0, "perfect": 4.0}

#: Workload scale ordinal (matches repro.workloads.base.SCALES order).
SCALE_RANK = {"tiny": 0.0, "small": 1.0, "medium": 2.0}

def _registry_workloads() -> Tuple[str, ...]:
    from repro.workloads import workload_names
    return tuple(sorted(workload_names()))


#: The workload registry, frozen at import into a one-hot block.
#: Workload identity is the single largest IPC variance component —
#: instruction-mix fractions alone cannot separate two kernels with
#: similar mixes but different locality.  Unknown (future) workloads
#: read as all-zeros, which is safe: the block degrades to "no
#: identity evidence", and the mix/trace features still apply.
WORKLOAD_NAMES = _registry_workloads()

#: Static program-mix statistics, in canonical (vector) order.
PROGRAM_STAT_FIELDS = (
    "static_instructions", "branch_fraction", "indirect_fraction",
    "load_fraction", "store_fraction", "control_fraction",
    "call_fraction", "data_words",
)


def _numeric_config_fields() -> Tuple[str, ...]:
    names = []
    for field in dataclasses.fields(CoreConfig):
        if field.name in ("predictor_kind", "l2_prefetcher"):
            continue
        names.append(field.name)
    return tuple(names)


_CONFIG_NUMERIC = _numeric_config_fields()


def _finite(value: object) -> float:
    """Coerce to a finite float; NaN/inf/non-numbers read as 0."""
    try:
        out = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return 0.0
    return out if math.isfinite(out) else 0.0


def _squash(value: object) -> float:
    """Sign-preserving log2 compression of one numeric input."""
    out = _finite(value)
    return math.copysign(math.log2(1.0 + abs(out)), out)


def feature_names() -> Tuple[str, ...]:
    """Canonical feature ordering; ``len()`` of this is the vector
    width every pipeline output matches."""
    names: List[str] = [f"cfg.{name}" for name in _CONFIG_NUMERIC]
    names += [f"cfg.predictor_kind={kind}" for kind in PREDICTOR_KINDS]
    names.append("cfg.predictor_rank")
    names += [f"cfg.l2_prefetcher={kind or 'none'}"
              for kind in PREFETCHER_KINDS]
    names += [f"technique={tech}" for tech in ALL_TECHNIQUES]
    names += [f"wl.{name}" for name in WORKLOAD_NAMES]
    names += ["job.max_instructions", "job.scale_rank"]
    names += [f"prog.{name}" for name in PROGRAM_STAT_FIELDS]
    names.append("trace.has_trace")
    names += [f"trace.{name}" for name in TRACE_STAT_FIELDS]
    return tuple(names)


FEATURE_NAMES = feature_names()


def program_statistics(program) -> Dict[str, float]:
    """Static instruction-mix statistics off a built program."""
    instrs = program.instructions
    total = len(instrs)
    counts = {"branch": 0, "indirect": 0, "load": 0, "store": 0,
              "control": 0, "call": 0}
    for instr in instrs:
        counts["branch"] += instr.is_branch
        counts["indirect"] += instr.is_indirect
        counts["load"] += instr.is_load
        counts["store"] += instr.is_store
        counts["control"] += instr.is_control
        counts["call"] += instr.is_call
    data_words = sum(len(words) for _, words in program.data)

    def frac(name: str) -> float:
        return counts[name] / total if total else 0.0

    return {
        "static_instructions": float(total),
        "branch_fraction": frac("branch"),
        "indirect_fraction": frac("indirect"),
        "load_fraction": frac("load"),
        "store_fraction": frac("store"),
        "control_fraction": frac("control"),
        "call_fraction": frac("call"),
        "data_words": float(data_words),
    }


def feature_vector(config: CoreConfig, technique: str,
                   program_stats: Dict[str, float],
                   trace_stats: Optional[Dict[str, float]] = None,
                   scale: str = "small",
                   max_instructions: Optional[int] = None,
                   workload: Optional[str] = None) -> np.ndarray:
    """One fixed-width float64 vector in :data:`FEATURE_NAMES` order.

    ``trace_stats`` may be ``None`` (untraced workload), partial, or
    carry junk values — unknown keys are ignored, missing keys read as
    0, and non-finite values clamp to 0, so the output is always
    finite and always ``len(FEATURE_NAMES)`` wide.
    """
    values: List[float] = []
    for name in _CONFIG_NUMERIC:
        values.append(_squash(getattr(config, name)))
    kind = config.predictor_kind
    values += [1.0 if kind == k else 0.0 for k in PREDICTOR_KINDS]
    values.append(PREDICTOR_RANK.get(kind, 0.0))
    pf = config.l2_prefetcher
    values += [1.0 if pf == k else 0.0 for k in PREFETCHER_KINDS]
    values += [1.0 if technique == t else 0.0 for t in ALL_TECHNIQUES]
    values += [1.0 if workload == w else 0.0 for w in WORKLOAD_NAMES]
    values.append(_squash(max_instructions or 0))
    values.append(SCALE_RANK.get(scale, 0.0))
    for name in PROGRAM_STAT_FIELDS:
        raw = (program_stats or {}).get(name, 0.0)
        if name in ("static_instructions", "data_words"):
            values.append(_squash(raw))
        else:
            values.append(_finite(raw))
    values.append(1.0 if trace_stats else 0.0)
    for name in TRACE_STAT_FIELDS:
        raw = (trace_stats or {}).get(name, 0.0)
        if name in ("episodes", "mean_window_limit", "mean_wp_fetched",
                    "mean_wp_executed", "mean_resolution_latency",
                    "mean_conv_distance"):
            values.append(_squash(raw))
        else:
            values.append(_finite(raw))
    return np.asarray(values, dtype=np.float64)


class FeaturePipeline:
    """Batch featurizer with per-workload caches.

    Building a workload (minicc compile + data injection) is the
    expensive part of featurization, and it only depends on
    ``(workload, scale, seed)`` — so built-program statistics are
    memoized here.  ``trace_profiles`` maps workload name → episode
    statistics dict (what a trained model carries in its artifact so
    predict-time needs no trace directory on disk).
    """

    def __init__(self, trace_profiles: Optional[
            Dict[str, Dict[str, float]]] = None):
        self.trace_profiles = dict(trace_profiles or {})
        self._program_stats: Dict[tuple, Dict[str, float]] = {}

    def program_stats(self, workload: str, scale: str,
                      seed: Optional[int]) -> Dict[str, float]:
        cache_key = (workload, scale, seed)
        stats = self._program_stats.get(cache_key)
        if stats is None:
            from repro.engine.job import build_job_workload
            stats = program_statistics(
                build_job_workload(workload, scale, seed).program)
            self._program_stats[cache_key] = stats
        return stats

    def job_vector(self, job) -> np.ndarray:
        """Feature vector for one :class:`~repro.engine.job.SimJob`."""
        return feature_vector(
            job.config(), job.technique,
            self.program_stats(job.workload, job.scale, job.seed),
            self.trace_profiles.get(job.workload),
            scale=job.scale, max_instructions=job.max_instructions,
            workload=job.workload)

    def matrix(self, jobs: Sequence) -> np.ndarray:
        """Feature matrix, one row per job."""
        if not jobs:
            return np.empty((0, len(FEATURE_NAMES)), dtype=np.float64)
        return np.stack([self.job_vector(job) for job in jobs])

"""Sampled simulation: detailed intervals restored from a functional pass.

The paper simulates "a single 1 billion instruction sample per
benchmark-input pair, gathered using the SimPoint method" — detailed
simulation of selected slices rather than whole programs.  This module
provides the equivalent capability at our scale, in two steps:

1. A fast **functional pass** (:func:`functional_pass`) — no timing
   model at all — warms private cache/TLB/predictor/code-cache images
   uniformly over the whole stream and freezes a
   :class:`~repro.simulator.snapshot.SimSnapshot` at each
   detailed-interval boundary.  Warming is technique-blind, so one pass
   serves all four techniques.
2. Each **detailed interval** restores its snapshot into fresh
   components, runs ``length`` instructions of full detail with the
   configured wrong-path technique and returns a
   :class:`SampleIntervalResult`.

Because intervals share no mutable state, they are independent jobs:
:func:`simulate_sampled` runs them in-process one after another, and
:func:`sample_workload` can instead dispatch them as
:class:`SampleIntervalJob` jobs (``kind="sample"`` in the engine's
``JOB_KINDS`` registry) across the experiment engine's process pool or
the sweep daemon, cached content-addressed.  The aggregate
:meth:`SampledResult.digest` is identical for any ``--jobs`` count or
dispatch path.  The cost is the standard checkpointed-sampling
approximation: wrong-path cache pollution from one detailed interval
does not carry into the next interval's warm state (DESIGN.md §11
records its measured effect).

The reported IPC extrapolates from the detailed intervals.  Wrong-path
reconstruction works unchanged inside detailed intervals: the code cache
fills during warming too (every instruction's decode info is seen), and
the runahead queue keeps supplying convergence-peek windows.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from typing import Dict, List, Optional, Tuple

from repro.branch.predictors import BranchPredictorUnit
from repro.cache.hierarchy import CacheHierarchy
from repro.core.config import CoreConfig
from repro.core.ooo import OoOCore
from repro.core.stats import CoreStats
from repro.frontend.code_cache import CodeCache
from repro.frontend.queue import RunaheadQueue, runahead_depth
from repro.functional.frontend import FunctionalFrontend
from repro.functional.memory import Memory
from repro.isa.program import Program
from repro.simulator.simulation import TECHNIQUES, build_frontend
from repro.simulator.snapshot import SimSnapshot

#: Instructions produced per direct ``produce_batch`` call while warming
#: (amortizes the call overhead without growing working memory).
_WARM_CHUNK = 4096


class SampledResult:
    """Outcome of a sampled simulation.

    Round-trips through :meth:`to_dict`/:meth:`from_dict` like the other
    result types; :meth:`digest` hashes everything except wall-clock
    times, so two runs of the same sampling plan — serial, ``--jobs 8``,
    or through the daemon — compare equal byte-for-byte.
    """

    #: Bump when the serialized shape changes; ``from_dict`` rejects
    #: blobs from other schema versions.
    SCHEMA = 1

    #: The one sampling mode.  :meth:`to_dict` keeps the field, so
    #: sampled digests recorded earlier still match.
    mode = "checkpoint"

    def __init__(self, name: str, technique: str,
                 detailed_instructions: int, detailed_cycles: int,
                 warmed_instructions: int, intervals: int,
                 wall_seconds: float, stats,
                 interval_results: Optional[List[dict]] = None):
        self.name = name
        self.technique = technique
        self.detailed_instructions = detailed_instructions
        self.detailed_cycles = detailed_cycles
        self.warmed_instructions = warmed_instructions
        self.intervals = intervals
        self.wall_seconds = wall_seconds
        self.stats = stats
        #: Per-interval ``SampleIntervalResult`` payloads in interval
        #: order.
        self.interval_results = list(interval_results or [])

    @property
    def total_instructions(self) -> int:
        return self.detailed_instructions + self.warmed_instructions

    @property
    def ipc(self) -> float:
        if not self.detailed_cycles:
            return 0.0
        return self.detailed_instructions / self.detailed_cycles

    @property
    def detail_fraction(self) -> float:
        total = self.total_instructions
        return self.detailed_instructions / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "schema": self.SCHEMA,
            "name": self.name,
            "technique": self.technique,
            "detailed_instructions": self.detailed_instructions,
            "detailed_cycles": self.detailed_cycles,
            "warmed_instructions": self.warmed_instructions,
            "intervals": self.intervals,
            "wall_seconds": self.wall_seconds,
            "stats": self.stats.counters(),
            "mode": self.mode,
            "interval_results": [dict(r) for r in self.interval_results],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SampledResult":
        if data.get("schema") != cls.SCHEMA:
            raise ValueError(
                f"sampled-result schema {data.get('schema')!r} != "
                f"{cls.SCHEMA}")
        return cls(
            name=data["name"],
            technique=data["technique"],
            detailed_instructions=data["detailed_instructions"],
            detailed_cycles=data["detailed_cycles"],
            warmed_instructions=data["warmed_instructions"],
            intervals=data["intervals"],
            wall_seconds=data["wall_seconds"],
            stats=CoreStats.from_counters(data["stats"]),
            interval_results=[dict(r)
                              for r in data["interval_results"]],
        )

    def digest(self) -> str:
        """SHA-256 over the wall-clock-free serialized form — the
        parallel-dispatch parity check (``tools/sample_smoke.py``)."""
        data = self.to_dict()
        data.pop("wall_seconds")
        for interval in data["interval_results"]:
            interval.pop("wall_seconds", None)
        blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def __repr__(self) -> str:
        return (f"<SampledResult {self.name}/{self.technique} "
                f"IPC={self.ipc:.3f} intervals={self.intervals} "
                f"detail={self.detail_fraction * 100:.0f}% "
                f"mode={self.mode}>")


def _warm(batch, cur_line: int, line_shift: int, hierarchy, bpu,
          code_cache) -> int:
    """Functionally warm the code cache, caches/TLB and branch predictor
    with ``batch`` (no timing model).  ``cur_line`` is the I-cache line
    fetched last before the batch; returns the last one after it."""
    insert = code_cache.insert
    access_instr = hierarchy.access_instr
    access_data = hierarchy.data_fastpath
    predict = bpu.predict_and_update
    for di in batch:
        instr = di.instr
        insert(instr)
        line = di.pc >> line_shift
        if line != cur_line:
            cur_line = line
            access_instr(di.pc)
        if instr.is_mem:
            access_data(di.mem_addr, instr.is_store, di.pc)
        if instr.is_control:
            predict(instr, di.taken, di.next_pc)
    return cur_line


class SamplePlan:
    """Output of the functional pass: snapshots plus interval lengths."""

    def __init__(self, intervals: List[Tuple[SimSnapshot, int]],
                 total_instructions: int, exhausted: bool):
        self.intervals = intervals
        self.total_instructions = total_instructions
        self.exhausted = exhausted

    def __repr__(self) -> str:
        return (f"<SamplePlan {len(self.intervals)} intervals over "
                f"{self.total_instructions} instructions>")


def functional_pass(program: Program, config: Optional[CoreConfig] = None,
                    detail_length: int = 10_000,
                    fastforward_length: int = 40_000,
                    max_instructions: Optional[int] = None) -> SamplePlan:
    """Warm the long-lived structures over the whole stream — no timing
    model — and snapshot at every detailed-interval boundary.

    Warming is technique-blind (no wrong paths exist without a timing
    model to mispredict), so the resulting snapshots serve any
    technique.  Every instruction is warmed, including the detailed
    regions: interval N+1's snapshot must reflect the correct-path
    effects of interval N's instructions.
    """
    if detail_length < 1 or fastforward_length < 0:
        raise ValueError("need detail_length >= 1 and "
                         "fastforward_length >= 0")
    cfg = config if config is not None else CoreConfig()
    frontend = FunctionalFrontend(program, Memory())
    hierarchy = CacheHierarchy.from_config(cfg)
    bpu = BranchPredictorUnit.from_config(cfg)
    code_cache = CodeCache()
    line_shift = cfg.line_size.bit_length() - 1
    cur_line = -1

    def consume(count: int) -> int:
        """Warm up to ``count`` instructions; returns how many ran."""
        nonlocal cur_line
        done = 0
        while done < count:
            want = min(_WARM_CHUNK, count - done)
            batch = frontend.produce_batch(want)
            cur_line = _warm(batch, cur_line, line_shift, hierarchy, bpu,
                             code_cache)
            done += len(batch)
            if len(batch) < want:
                break
        return done

    intervals: List[Tuple[SimSnapshot, int]] = []
    position = 0
    exhausted = False
    index = 0
    limit = max_instructions
    while not exhausted and (limit is None or position < limit):
        budget = fastforward_length if limit is None \
            else min(fastforward_length, limit - position)
        got = consume(budget)
        position += got
        if got < budget or frontend.emulator.halted:
            exhausted = True
            break
        if limit is not None and position >= limit:
            break
        budget = detail_length if limit is None \
            else min(detail_length, limit - position)
        snap = SimSnapshot.capture(index, frontend, hierarchy, bpu,
                                   code_cache)
        intervals.append((snap, budget))
        got = consume(budget)
        position += got
        if got < budget:
            exhausted = True
        index += 1
    return SamplePlan(intervals, position, exhausted)


class SampleIntervalResult:
    """Detailed-simulation outcome of one restored interval."""

    SCHEMA = 1

    def __init__(self, workload: str, technique: str, index: int,
                 position: int, requested: int, stats,
                 wall_seconds: float):
        self.workload = workload
        self.technique = technique
        self.index = index              # interval number within the plan
        self.position = position        # stream position at interval start
        self.requested = requested      # planned length (actual: stats)
        self.stats = stats
        self.wall_seconds = wall_seconds

    @property
    def instructions(self) -> int:
        return self.stats.instructions

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    def to_dict(self) -> dict:
        return {
            "schema": self.SCHEMA,
            "workload": self.workload,
            "technique": self.technique,
            "index": self.index,
            "position": self.position,
            "requested": self.requested,
            "stats": self.stats.counters(),
            "wall_seconds": self.wall_seconds,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SampleIntervalResult":
        if data.get("schema") != cls.SCHEMA:
            raise ValueError(
                f"interval-result schema {data.get('schema')!r} != "
                f"{cls.SCHEMA}")
        return cls(
            workload=data["workload"],
            technique=data["technique"],
            index=data["index"],
            position=data["position"],
            requested=data["requested"],
            stats=CoreStats.from_counters(data["stats"]),
            wall_seconds=data["wall_seconds"],
        )

    def __repr__(self) -> str:
        return (f"<SampleIntervalResult {self.workload}/{self.technique} "
                f"#{self.index} @{self.position} "
                f"IPC={self.stats.ipc:.3f}>")


def _run_interval(program: Program, cfg: CoreConfig, technique: str,
                  snapshot: SimSnapshot, length: int,
                  workload: str = "program") -> SampleIntervalResult:
    """Restore ``snapshot`` into fresh components and run ``length``
    instructions of detailed simulation."""
    start = time.perf_counter()
    frontend = build_frontend(program, cfg, technique)
    queue = RunaheadQueue(frontend.produce_batch, depth=runahead_depth(cfg))
    hierarchy = CacheHierarchy.from_config(cfg)
    timing_bpu = BranchPredictorUnit.from_config(cfg)
    code_cache = CodeCache()
    # One restore covers both predictor copies (frontend + timing), so
    # wpemul intervals start in lockstep by construction.
    snapshot.restore(frontend, hierarchy=hierarchy, bpu=timing_bpu,
                     code_cache=code_cache)
    core = OoOCore(cfg, hierarchy, timing_bpu, TECHNIQUES[technique](),
                   code_cache=code_cache, queue=queue)
    core.drain(queue, length)
    stats = core.finalize()
    wall = time.perf_counter() - start
    return SampleIntervalResult(workload, technique, snapshot.index,
                                snapshot.position, length, stats, wall)


@dataclasses.dataclass
class SampleIntervalJob:
    """One detailed interval as an executor job (``kind="sample"``).

    Carries the full serialized snapshot (so pool workers and the sweep
    daemon need no shared filesystem state) but keys the cache on its
    digest — two plans that reach a boundary in identical state share
    interval results across runs.
    """

    kind = "sample"

    #: Cache-key partition (simcheck SC004): every field determines the
    #: simulated outcome, so everything is keyed — the snapshot via its
    #: content digest.
    KEYED_FIELDS = frozenset({
        "workload", "technique", "scale", "seed", "base_config",
        "config_overrides", "index", "length", "snapshot",
    })
    KEY_EXCLUDED_FIELDS = frozenset(())

    workload: str                       # registry name, e.g. "gap.bfs"
    technique: str = "nowp"
    scale: str = "small"
    seed: Optional[int] = None
    base_config: str = "scaled"
    config_overrides: Dict = dataclasses.field(default_factory=dict)
    index: int = 0
    length: int = 10_000
    snapshot: Dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        from repro.engine.job import check_base_config
        check_base_config(self.base_config)
        self.config_overrides = dict(self.config_overrides)

    def config(self) -> CoreConfig:
        """The fully resolved core configuration (same presets as
        :class:`~repro.engine.job.SimJob`)."""
        from repro.engine.job import resolve_config
        return resolve_config(self.base_config, self.config_overrides)

    def spec(self) -> dict:
        """Hash basis: parameters plus the snapshot's content digest."""
        snapshot_blob = json.dumps(self.snapshot, sort_keys=True,
                                   separators=(",", ":"))
        return {
            "workload": self.workload,
            "technique": self.technique,
            "scale": self.scale,
            "seed": self.seed,
            "base_config": self.base_config,
            "config": dataclasses.asdict(self.config()),
            "index": self.index,
            "length": self.length,
            "snapshot_digest": hashlib.sha256(
                snapshot_blob.encode()).hexdigest(),
        }

    @property
    def key(self) -> str:
        from repro.engine.job import content_key
        return content_key(self.spec())

    @property
    def label(self) -> str:
        return f"{self.workload}/{self.technique}#{self.index}"

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "technique": self.technique,
            "scale": self.scale,
            "seed": self.seed,
            "base_config": self.base_config,
            "config_overrides": dict(self.config_overrides),
            "index": self.index,
            "length": self.length,
            "snapshot": self.snapshot,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SampleIntervalJob":
        return cls(**data)

    @staticmethod
    def result_from_dict(payload: dict) -> SampleIntervalResult:
        return SampleIntervalResult.from_dict(payload)

    def run(self) -> SampleIntervalResult:
        from repro.engine.job import build_job_workload
        cfg = self.config()
        cfg.validate()
        workload = build_job_workload(self.workload, self.scale, self.seed)
        snap = SimSnapshot.from_dict(self.snapshot)
        return _run_interval(workload.program, cfg, self.technique, snap,
                             self.length, workload=workload.name)

    def __repr__(self) -> str:
        return f"<SampleIntervalJob {self.label} [{self.key[:12]}]>"


def _aggregate(name: str, technique: str,
               results: List[SampleIntervalResult],
               total_instructions: int, wall: float) -> SampledResult:
    detailed = sum(r.stats.instructions for r in results)
    detailed_cycles = sum(r.stats.cycles for r in results)
    intervals = sum(1 for r in results if r.stats.instructions)
    totals: Dict[str, int] = {}
    for r in results:
        for field, value in r.stats.counters().items():
            totals[field] = totals.get(field, 0) + value
    return SampledResult(
        name, technique, detailed, detailed_cycles,
        total_instructions - detailed, intervals, wall, CoreStats.from_counters(totals),
        interval_results=[r.to_dict() for r in results])


def simulate_sampled(program: Program, technique: str = "nowp",
                     config: Optional[CoreConfig] = None,
                     detail_length: int = 10_000,
                     fastforward_length: int = 40_000,
                     max_instructions: Optional[int] = None,
                     name: str = "program") -> SampledResult:
    """Sample ``program`` in-process: a functional pass, then every
    detailed interval restored from its snapshot and simulated in turn.

    The stream starts with a fast-forward (warming) interval, then
    alternates.  ``detail_length``/``fastforward_length`` set the duty
    cycle (the defaults simulate 20% of the stream in detail).  The
    total instruction count never exceeds ``max_instructions``: each
    interval is clamped to the remaining budget.
    (:func:`sample_workload` samples a registry workload and can
    dispatch the intervals as engine jobs.)
    """
    if technique not in TECHNIQUES:
        raise ValueError(f"unknown technique {technique!r}")
    cfg = config if config is not None else CoreConfig()
    start = time.perf_counter()
    plan = functional_pass(program, cfg, detail_length=detail_length,
                           fastforward_length=fastforward_length,
                           max_instructions=max_instructions)
    results = [_run_interval(program, cfg, technique, snap, length,
                             workload=name)
               for snap, length in plan.intervals]
    wall = time.perf_counter() - start
    return _aggregate(name, technique, results, plan.total_instructions,
                      wall)


def sample_workload(workload: str, technique: str = "nowp",
                    scale: str = "small", seed: Optional[int] = None,
                    base_config: str = "scaled",
                    config_overrides: Optional[Dict] = None,
                    detail_length: int = 10_000,
                    fastforward_length: int = 40_000,
                    max_instructions: Optional[int] = None,
                    engine=None, fresh: bool = False) -> SampledResult:
    """Checkpointed sampling of a registry workload.

    With ``engine`` (an :class:`~repro.engine.executor.ExperimentEngine`
    or an engine-shaped service client), the detailed intervals dispatch
    as ``kind="sample"`` jobs — parallel across the pool or the daemon,
    cached content-addressed.  Without one they run in-process.  Either
    path produces a digest-identical :class:`SampledResult`.
    """
    if technique not in TECHNIQUES:
        raise ValueError(f"unknown technique {technique!r}")
    from repro.engine.job import build_job_workload, resolve_config
    overrides = dict(config_overrides or {})
    cfg = resolve_config(base_config, overrides)
    cfg.validate()
    start = time.perf_counter()
    built = build_job_workload(workload, scale, seed)
    if engine is None:
        return simulate_sampled(built.program, technique, cfg,
                                detail_length, fastforward_length,
                                max_instructions, name=built.name)
    plan = functional_pass(built.program, cfg,
                           detail_length=detail_length,
                           fastforward_length=fastforward_length,
                           max_instructions=max_instructions)
    jobs = [SampleIntervalJob(
        workload=workload, technique=technique, scale=scale, seed=seed,
        base_config=base_config, config_overrides=overrides,
        index=snap.index, length=length, snapshot=snap.to_dict())
        for snap, length in plan.intervals]
    outcomes = engine.run(jobs, fresh=fresh)
    failed = [o for o in outcomes if o.result is None]
    if failed:
        details = "; ".join(
            f"{o.job.label}: {o.error}" for o in failed[:3])
        raise RuntimeError(
            f"{len(failed)} interval job(s) failed ({details})")
    results = [o.result for o in outcomes]
    wall = time.perf_counter() - start
    return _aggregate(built.name, technique, results,
                      plan.total_instructions, wall)

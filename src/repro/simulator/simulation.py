"""User-facing composition: one decoupled functional-first simulation.

:class:`Simulator` wires together the functional frontend, the runahead
queue, the branch predictor(s), the cache hierarchy, the out-of-order core
and one of the four wrong-path models, runs the workload, and returns a
:class:`SimulationResult`.

>>> from repro import Simulator, assemble
>>> program = assemble('''
...     li a0, 0
...     li a7, 93
...     ecall
... ''')
>>> result = Simulator(program, technique="conv").run()
>>> result.instructions
3
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, Optional, Type

from repro.branch.predictors import BranchPredictorUnit
from repro.cache.hierarchy import CacheHierarchy
from repro.core.config import CoreConfig
from repro.core.ooo import OoOCore
from repro.core.stats import CoreStats
from repro.frontend.queue import RunaheadQueue, runahead_depth
from repro.functional.frontend import FunctionalFrontend
from repro.functional.memory import Memory
from repro.isa.program import Program
from repro.wrongpath.base import WrongPathModel
from repro.wrongpath.convergence import ConvergenceExploitation
from repro.wrongpath.emulation import WrongPathEmulation
from repro.wrongpath.instrec import InstructionReconstruction
from repro.wrongpath.nowp import NoWrongPath

#: The four simulator versions of Section IV.
TECHNIQUES: Dict[str, Type[WrongPathModel]] = {
    NoWrongPath.name: NoWrongPath,
    InstructionReconstruction.name: InstructionReconstruction,
    ConvergenceExploitation.name: ConvergenceExploitation,
    WrongPathEmulation.name: WrongPathEmulation,
}

#: Evaluation order used throughout the benches (reference last).
ALL_TECHNIQUES = ("nowp", "instrec", "conv", "wpemul")


def build_frontend(program: Program, cfg: CoreConfig,
                   technique: str) -> FunctionalFrontend:
    """The functional frontend for one run of ``technique``.

    Under wpemul it emulates each mispredict's wrong path, steered by
    its own copy of the branch predictor.  Every technique gets the
    same wrong-path budget: the ROB plus the frontend buffer.
    """
    return FunctionalFrontend(
        program, Memory(),
        predictor=BranchPredictorUnit.from_config(cfg)
        if technique == WrongPathEmulation.name else None,
        wp_limit=cfg.rob_size + cfg.wp_frontend_buffer)


class SimulationResult:
    """Outcome of one simulation run.

    Everything the benches and the experiment engine consume is plain
    data (counter dicts, the config dataclass, the output list), so a
    result round-trips losslessly through :meth:`to_dict` /
    :meth:`from_dict` — the invariant the engine's content-addressed
    cache and cross-process executor rely on.  A deserialized result is
    *detached*: ``bpu`` is ``None`` but every stat and derived metric is
    identical to the live run's.
    """

    #: Bump when the serialized shape changes; ``from_dict`` rejects
    #: blobs from other schema versions so stale caches read as misses.
    SCHEMA = 1

    #: Attributes deliberately absent from :meth:`to_dict` (simcheck
    #: SC005 audits the rest).  ``bpu`` is the live predictor object;
    #: its serializable summary travels as ``bpu_stats`` and a
    #: deserialized result is detached (``bpu is None``).
    ROUNDTRIP_EXCLUDE = ("bpu",)

    def __init__(self, name: str, technique: str, config: CoreConfig,
                 stats: CoreStats, hierarchy: CacheHierarchy,
                 bpu: BranchPredictorUnit, output: list,
                 exit_code: Optional[int], wall_seconds: float,
                 frontend: FunctionalFrontend):
        self.name = name
        self.technique = technique
        self.config = config
        self.stats = stats
        self.cache_stats = hierarchy.stats()
        self.bpu = bpu
        self.bpu_stats = {
            "kind": bpu.kind,
            "cond_count": bpu.cond_count,
            "cond_mispredicts": bpu.cond_mispredicts,
            "indirect_count": bpu.indirect_count,
            "indirect_mispredicts": bpu.indirect_mispredicts,
        }
        self.output = output
        self.exit_code = exit_code
        self.wall_seconds = wall_seconds
        self.wp_emulations = frontend.wp_emulations

    @property
    def instructions(self) -> int:
        return self.stats.instructions

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    @property
    def branch_mpki(self) -> float:
        if not self.stats.instructions:
            return 0.0
        mispredicts = (self.bpu_stats["cond_mispredicts"]
                       + self.bpu_stats["indirect_mispredicts"])
        return 1000.0 * mispredicts / self.stats.instructions

    # -- serialization (engine cache / cross-process transport) ------------------

    def to_dict(self) -> dict:
        """Plain-data form: JSON-safe and deterministic for a given run."""
        return {
            "schema": self.SCHEMA,
            "name": self.name,
            "technique": self.technique,
            "config": dataclasses.asdict(self.config),
            "stats": self.stats.counters(),
            "cache_stats": self.cache_stats,
            "bpu": dict(self.bpu_stats),
            "output": list(self.output),
            "exit_code": self.exit_code,
            "wall_seconds": self.wall_seconds,
            "wp_emulations": self.wp_emulations,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationResult":
        """Rebuild a detached result from :meth:`to_dict` output."""
        if data.get("schema") != cls.SCHEMA:
            raise ValueError(
                f"result schema {data.get('schema')!r} != {cls.SCHEMA}")
        result = cls.__new__(cls)
        result.name = data["name"]
        result.technique = data["technique"]
        result.config = CoreConfig(**data["config"])
        result.stats = CoreStats.from_counters(data["stats"])
        result.cache_stats = data["cache_stats"]
        result.bpu = None
        result.bpu_stats = dict(data["bpu"])
        result.output = list(data["output"])
        result.exit_code = data["exit_code"]
        result.wall_seconds = data["wall_seconds"]
        result.wp_emulations = data["wp_emulations"]
        return result

    def error_vs(self, reference: "SimulationResult") -> float:
        """Relative IPC error against a reference run (the paper's error
        metric, with ``wpemul`` as reference)."""
        if reference.ipc == 0:
            return 0.0
        return (self.ipc - reference.ipc) / reference.ipc

    def summary(self) -> str:
        stats = self.stats
        return (f"{self.name}/{self.technique}: {stats.instructions} instrs,"
                f" {stats.cycles} cycles, IPC={stats.ipc:.3f}, "
                f"bMPKI={self.branch_mpki:.2f}, "
                f"wp_exec={stats.wp_executed}")

    def __repr__(self) -> str:
        return f"<SimulationResult {self.summary()}>"


class Simulator:
    """One functional-first simulation of a program."""

    def __init__(self, program: Program,
                 config: Optional[CoreConfig] = None,
                 technique: str = "nowp",
                 max_instructions: Optional[int] = None,
                 queue_depth: Optional[int] = None,
                 name: str = "program",
                 obs=None):
        if technique not in TECHNIQUES:
            raise ValueError(
                f"unknown technique {technique!r}; "
                f"choose from {sorted(TECHNIQUES)}")
        self.program = program
        self.config = config if config is not None else CoreConfig()
        self.technique = technique
        self.max_instructions = max_instructions
        if queue_depth is None:
            queue_depth = runahead_depth(self.config)
        self.queue_depth = queue_depth
        self.name = name
        # Optional repro.obs.Observability (duck-typed so the simulator
        # has no import-time dependency on the obs package): attached to
        # every component at run start, finalized with the result.
        self.obs = obs
        # Populated by run(): the live components, kept so post-run
        # inspection (the differential-fuzz oracles read final frontend
        # architectural state) does not need to re-plumb them out through
        # the result object.
        self.frontend: Optional[FunctionalFrontend] = None
        self.core: Optional[OoOCore] = None
        self.hierarchy: Optional[CacheHierarchy] = None
        self.bpu: Optional[BranchPredictorUnit] = None

    def run(self) -> SimulationResult:
        cfg = self.config
        start = time.perf_counter()

        timing_bpu = BranchPredictorUnit.from_config(cfg)
        wp_model = TECHNIQUES[self.technique]()
        frontend = build_frontend(self.program, cfg, self.technique)
        queue = RunaheadQueue(frontend.produce_batch, depth=self.queue_depth)
        hierarchy = CacheHierarchy.from_config(cfg)
        core = OoOCore(cfg, hierarchy, timing_bpu, wp_model, queue=queue)
        self.frontend = frontend
        self.core = core
        self.hierarchy = hierarchy
        self.bpu = timing_bpu
        obs = self.obs
        if obs is not None:
            obs.attach(frontend=frontend, queue=queue, core=core,
                       hierarchy=hierarchy, bpu=timing_bpu)

        core.drain(queue, self.max_instructions)
        stats = core.finalize()

        wall = time.perf_counter() - start
        result = SimulationResult(self.name, self.technique, cfg, stats,
                                  hierarchy, timing_bpu,
                                  frontend.output,
                                  frontend.emulator.exit_code, wall,
                                  frontend)
        if obs is not None:
            obs.finalize(result)
        return result


def simulate(program: Program, technique: str = "nowp",
             config: Optional[CoreConfig] = None,
             max_instructions: Optional[int] = None,
             name: str = "program") -> SimulationResult:
    """One-call convenience wrapper around :class:`Simulator`."""
    return Simulator(program, config=config, technique=technique,
                     max_instructions=max_instructions, name=name).run()

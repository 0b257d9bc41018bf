"""Multicore decoupled functional-first simulation with a shared LLC.

Section VI-B: "Sendag et al. find that in a multicore processor,
wrong-path cache accesses can have an even larger impact by interfering in
the cache coherence policy ... We have only evaluated single core
execution, but our wrong-path simulation techniques also apply to
multicore simulation."  This package takes that step for the shared-cache
part of the story: N cores, each a complete decoupled pipeline (functional
frontend, runahead queue, predictors, private L1I/L1D/L2, its own
wrong-path model instance), all backed by one shared LLC and memory — so
one core's wrong-path fills and evictions perturb its neighbours' hit
rates, in both directions.

Modeling notes:

* Cores are advanced in retirement order (the core with the earliest
  last-retire cycle processes its next instruction), which interleaves
  shared-LLC accesses in approximate global-time order.
* Workloads are independent processes on disjoint address spaces offset
  per core (no sharing), so no coherence protocol is required; coherence-
  traffic effects from Sendag et al. are out of scope and documented as
  such.
* Per-core wrong-path LLC accesses are measurable via the shared LLC's
  ``wp_accesses``/``wp_misses`` counters plus per-core L2 statistics.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from repro.branch.predictors import BranchPredictorUnit
from repro.cache.cache import Cache, MainMemory
from repro.cache.hierarchy import CacheHierarchy
from repro.core.config import CoreConfig
from repro.core.ooo import OoOCore
from repro.frontend.queue import RunaheadQueue, runahead_depth
from repro.isa.program import Program
from repro.simulator.simulation import TECHNIQUES, build_frontend


class CoreContext:
    """Everything belonging to one core."""

    def __init__(self, index: int, program: Program, cfg: CoreConfig,
                 technique: str, shared_llc: Cache,
                 shared_memory: MainMemory):
        self.index = index
        self.frontend = build_frontend(program, cfg, technique)
        self.queue = RunaheadQueue(self.frontend.produce_batch,
                                   depth=runahead_depth(cfg))
        self.hierarchy = CacheHierarchy.from_config(cfg, shared_llc,
                                                    shared_memory)
        self.core = OoOCore(cfg, self.hierarchy,
                            BranchPredictorUnit.from_config(cfg),
                            TECHNIQUES[technique](), queue=self.queue)
        self.processed = 0

    @property
    def last_retire(self) -> int:
        return self.core.last_retire

    def step(self) -> bool:
        """Process one instruction; returns False when the stream ends.

        One instruction per step keeps the shared LLC seeing the cores'
        accesses in retirement order.  The queue refills only once it is
        empty, so each refill hands the frontend a whole queue depth and
        its compiled superblocks still fit.
        """
        queue = self.queue
        if not len(queue) and not queue.prepare():
            return False
        self.core.process_batch(queue, 1)
        self.processed += 1
        return True


class MulticoreResult:
    """Results of one multicore simulation."""

    def __init__(self, technique: str, cores: List[CoreContext],
                 shared_llc: Cache, shared_memory: MainMemory,
                 wall_seconds: float):
        self.technique = technique
        self.core_stats = [ctx.core.finalize() for ctx in cores]
        self.outputs = [ctx.frontend.output for ctx in cores]
        self.llc_stats = shared_llc.stats
        self.memory_accesses = shared_memory.stats.accesses
        self.wall_seconds = wall_seconds

    @property
    def num_cores(self) -> int:
        return len(self.core_stats)

    def ipc(self, core: int) -> float:
        return self.core_stats[core].ipc

    @property
    def aggregate_ipc(self) -> float:
        return sum(s.ipc for s in self.core_stats)

    @property
    def llc_wp_miss_fraction(self) -> float:
        """Fraction of shared-LLC misses caused by wrong paths — the
        cross-core interference channel."""
        if not self.llc_stats.misses:
            return 0.0
        return self.llc_stats.wp_misses / self.llc_stats.misses

    def __repr__(self) -> str:
        per_core = ", ".join(f"{s.ipc:.2f}" for s in self.core_stats)
        return (f"<MulticoreResult {self.technique} cores={self.num_cores}"
                f" IPC=[{per_core}]>")


class MulticoreSimulator:
    """N independent workloads over one shared LLC."""

    def __init__(self, programs: Sequence[Program],
                 config: Optional[CoreConfig] = None,
                 technique: str = "nowp",
                 max_instructions_per_core: Optional[int] = None):
        if not programs:
            raise ValueError("need at least one program")
        if technique not in TECHNIQUES:
            raise ValueError(f"unknown technique {technique!r}")
        self.programs = list(programs)
        self.config = config if config is not None else CoreConfig()
        self.technique = technique
        self.max_instructions = max_instructions_per_core

    def run(self) -> MulticoreResult:
        cfg = self.config
        start = time.perf_counter()
        shared_memory = MainMemory(cfg.mem_latency)
        shared_llc = Cache("LLC", cfg.llc_size, cfg.llc_assoc,
                           cfg.line_size, cfg.llc_latency, shared_memory)
        cores = [CoreContext(i, program, cfg, self.technique, shared_llc,
                             shared_memory)
                 for i, program in enumerate(self.programs)]
        cap = self.max_instructions
        active = list(cores)
        while active:
            # Advance the core that is furthest behind in retired time, so
            # shared-LLC accesses interleave in approximate time order.
            ctx = min(active, key=lambda c: c.last_retire)
            if (cap is not None and ctx.processed >= cap) \
                    or not ctx.step():
                active.remove(ctx)
        wall = time.perf_counter() - start
        return MulticoreResult(self.technique, cores, shared_llc,
                               shared_memory, wall)

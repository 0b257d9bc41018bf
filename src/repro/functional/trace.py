"""Trace-based functional frontend.

Functional-first simulators commonly support pre-recorded instruction
traces instead of live emulation (Section II: "a trace interpreter (for
pre-recorded instruction traces)").  The paper makes a specific point about
them: *"the functional simulation frontend needs to support this feature
[wrong-path emulation].  For example, a trace frontend cannot implement
this, because the trace only contains correct-path instructions."*

This module provides that frontend so the claim is demonstrable in this
codebase: record a trace once (live emulation), then replay it any number
of times — ``nowp``/``instrec``/``conv`` work unchanged (conv's runahead
peeks still see future correct-path instructions in the trace), while
requesting ``wpemul`` on a trace raises, because there is no machine state
to checkpoint and redirect.

Traces can be saved to and loaded from a compact binary file (one record
per dynamic instruction: text index, next pc, flags, memory address), so a
recorded workload can be replayed without rebuilding it.
"""

from __future__ import annotations

import struct
from typing import List, Optional

from repro.frontend.dyninstr import DynInstr
from repro.functional.emulator import Emulator
from repro.functional.memory import Memory
from repro.isa.program import Program

_MAGIC = b"RPTR"
_VERSION = 2
_RECORD = struct.Struct("<IIBI")  # pc, next_pc, flags, mem_addr
_FLAG_TAKEN = 1
_FLAG_HAS_MEM = 2


class TraceError(Exception):
    """Raised for malformed trace files or unsupported operations."""


class InstructionTrace:
    """A recorded correct-path instruction trace, bound to its program."""

    def __init__(self, program: Program,
                 records: Optional[List[tuple]] = None):
        self.program = program
        # (pc, next_pc, taken, mem_addr) per dynamic instruction.
        self.records: List[tuple] = records if records is not None else []

    def __len__(self) -> int:
        return len(self.records)

    # -- recording ------------------------------------------------------------

    @classmethod
    def record(cls, program: Program,
               max_instructions: int = 10_000_000) -> "InstructionTrace":
        """Run the program functionally and record its dynamic stream."""
        emulator = Emulator(program, Memory())
        trace = cls(program)
        append = trace.records.append
        for _ in range(max_instructions):
            step = emulator.step()
            if step is None:
                break
            _, pc, next_pc, taken, mem_addr = step
            append((pc, next_pc, taken, mem_addr))
        if not emulator.halted:
            raise TraceError(
                f"program did not exit within {max_instructions} "
                "instructions")
        return trace

    # -- (de)serialization -------------------------------------------------------

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<II", _VERSION, len(self.records)))
            pack = _RECORD.pack
            for pc, next_pc, taken, mem_addr in self.records:
                flags = (_FLAG_TAKEN if taken else 0) | \
                    (_FLAG_HAS_MEM if mem_addr is not None else 0)
                fh.write(pack(pc, next_pc, flags, mem_addr or 0))

    @classmethod
    def load(cls, path: str, program: Program) -> "InstructionTrace":
        with open(path, "rb") as fh:
            if fh.read(4) != _MAGIC:
                raise TraceError(f"{path}: not a trace file")
            version, count = struct.unpack("<II", fh.read(8))
            if version != _VERSION:
                raise TraceError(f"{path}: unsupported version {version}")
            data = fh.read(count * _RECORD.size)
        if len(data) != count * _RECORD.size:
            raise TraceError(f"{path}: truncated trace")
        records = []
        unpack = _RECORD.unpack_from
        for i in range(count):
            pc, next_pc, flags, mem = unpack(data, i * _RECORD.size)
            records.append((pc, next_pc, bool(flags & _FLAG_TAKEN),
                            mem if flags & _FLAG_HAS_MEM else None))
        return cls(program, records)


class TraceFrontend:
    """Replays a recorded trace as the functional-first frontend.

    Drop-in replacement for
    :class:`~repro.functional.frontend.FunctionalFrontend` for the
    techniques that do not require functional wrong-path emulation.
    """

    def __init__(self, trace: InstructionTrace):
        self.trace = trace
        self._cursor = 0
        self._seq = 0
        # Interface parity with FunctionalFrontend: a trace frontend can
        # never emulate wrong paths.
        self.wp_emulations = 0
        self.wp_instructions_emulated = 0

    def produce_batch(self, n: int) -> List[DynInstr]:
        """Up to ``n`` further records as DynInstrs; a short return means
        the trace ended (the runahead queue's producer contract)."""
        records = self.trace.records
        instruction_at = self.trace.program.instruction_at
        stop = min(self._cursor + n, len(records))
        out = []
        seq = self._seq
        for pc, next_pc, taken, mem_addr in records[self._cursor:stop]:
            instr = instruction_at(pc)
            if instr is None:
                raise TraceError(
                    f"trace references pc {pc:#x} outside the program "
                    "text (trace/program mismatch)")
            out.append(DynInstr(seq, instr, pc, next_pc, taken, mem_addr))
            seq += 1
        self._cursor = stop
        self._seq = seq
        return out

    def rewind(self) -> None:
        """Restart replay from the beginning."""
        self._cursor = 0
        self._seq = 0

    @property
    def instructions_produced(self) -> int:
        return self._seq

    @property
    def output(self) -> list:
        return []  # side effects happened at record time


def simulate_trace(trace: InstructionTrace, technique: str = "nowp",
                   config=None, max_instructions: Optional[int] = None,
                   name: str = "trace"):
    """Simulate a recorded trace under one wrong-path technique.

    ``wpemul`` is rejected — the paper's point: a trace frontend has no
    functional machine to redirect down the wrong path.
    """
    from repro.branch.predictors import BranchPredictorUnit
    from repro.cache.hierarchy import CacheHierarchy
    from repro.core.config import CoreConfig
    from repro.core.ooo import OoOCore
    from repro.frontend.queue import RunaheadQueue, runahead_depth
    from repro.simulator.simulation import (SimulationResult, TECHNIQUES)

    if technique == "wpemul":
        raise TraceError(
            "wpemul requires a live functional frontend: a trace contains "
            "only correct-path instructions (Section III-B)")
    if technique not in TECHNIQUES:
        raise ValueError(f"unknown technique {technique!r}")
    cfg = config if config is not None else CoreConfig()

    import time
    start = time.perf_counter()
    frontend = TraceFrontend(trace)
    queue = RunaheadQueue(frontend.produce_batch, depth=runahead_depth(cfg))
    bpu = BranchPredictorUnit.from_config(cfg)
    hierarchy = CacheHierarchy.from_config(cfg)
    core = OoOCore(cfg, hierarchy, bpu, TECHNIQUES[technique](),
                   queue=queue)
    core.drain(queue, max_instructions)
    stats = core.finalize()
    wall = time.perf_counter() - start
    return SimulationResult(name, technique, cfg, stats, hierarchy, bpu,
                            [], None, wall, frontend)

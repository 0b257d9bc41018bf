"""The functional-first frontend: runs the functional simulator ahead of the
timing model and produces :class:`DynInstr` records for the runahead queue.

In ``wpemul`` mode the frontend owns a *copy of the branch predictor*
(Section III-B: "the functional simulator contains a copy of the branch
predictor model and initiates a list of wrong-path instructions when a
misprediction is modeled").  For every dynamic control instruction it makes
the same ``predict_and_update`` call the timing model makes, in the same
program order, so both copies remain in lockstep; on a predicted-wrong
branch it emulates the wrong path (checkpoint -> redirect -> suppress ->
restore) for one ROB's worth of instructions plus the frontend buffers, and
attaches the recorded trace to the branch's DynInstr.
"""

from __future__ import annotations

from typing import List, Optional

from repro.branch.predictors import BranchPredictorUnit
from repro.frontend.dyninstr import DynInstr
from repro.functional.emulator import (_HANDLERS, EmulationFault, Emulator)
from repro.functional.memory import Memory
from repro.isa.program import Program


class FunctionalFrontend:
    """Produces the dynamic correct-path instruction stream.

    It emulates wrong paths if and only if it is given a ``predictor``
    copy, which :func:`repro.simulator.simulation.build_frontend` passes
    only for wpemul.  The copy sees every dynamic control instruction in
    program order, in lockstep with the timing model's copy, and each
    branch it predicts wrong carries an emulated wrong-path trace of up
    to ``wp_limit`` instructions.
    """

    def __init__(self, program: Program, memory: Optional[Memory] = None,
                 predictor: Optional[BranchPredictorUnit] = None,
                 wp_limit: int = 544):
        if wp_limit < 1:
            raise ValueError("wp_limit must be >= 1")
        self.emulator = Emulator(program, memory)
        self.predictor = predictor
        self.wp_limit = wp_limit
        self._seq = 0
        self.wp_emulations = 0
        self.wp_instructions_emulated = 0
        # Correct-path instructions produced through compiled
        # superhandler blocks (CI's silent-fallback guard reads this).
        self.superblock_instructions = 0
        # Observability hook (repro.obs); None-checked once per
        # ``produce_batch`` call, never inside the unrolled loop.
        self._obs = None

    # simcheck: hotpath
    def produce_batch(self, n: int) -> List[DynInstr]:
        """Up to ``n`` correct-path instructions in one call.

        The runahead queue's producer; a short return means the program
        exited.  The emulator's fetch/dispatch loop is unrolled into one
        frame *and* specialized per basic block: runs of straight-line
        code execute through compiled superhandlers
        (:mod:`repro.functional.superblock`) — one dispatch per block,
        constants baked, DynInstrs appended by the rendered code — with
        scalar per-instruction dispatch covering syscalls, text holes
        and block tails that no longer fit the batch.  Instruction
        semantics, predictor lockstep, wrong-path emulation triggering
        and the produced :class:`DynInstr` stream are identical on both
        paths (the superblock property suite pins this down).
        """
        out: List[DynInstr] = []
        emu = self.emulator
        if n <= 0 or emu.halted:
            return out
        append = out.append
        state = emu.state
        x = emu.x
        f = emu.f
        superblocks = emu.superblocks
        sb_get = superblocks._correct.get
        sb_compile = superblocks.compile_correct
        instr_at = emu._instr_at
        handlers_get = _HANDLERS.get
        predictor = self.predictor
        wp_limit = self.wp_limit
        new_di = DynInstr.__new__
        di_cls = DynInstr
        seq = self._seq
        end = seq + n
        sb_count = 0
        while seq < end:
            pc = state.pc
            entry = sb_get(pc)
            if entry is None:
                entry = sb_compile(pc)
            if entry and entry[1] <= end - seq:
                run = entry[0]
                next_pc = run(emu, x, f, append, seq)
                state.pc = next_pc
                length = entry[1]
                seq += length
                sb_count += length
                # A terminated block ends with its control instruction:
                # the predictor copy observes it exactly as the scalar
                # path would (lockstep contract), and a mispredict hangs
                # the emulated trace off the already-appended DynInstr.
                if entry[2] and predictor is not None:
                    di = out[-1]
                    prediction = predictor.predict_and_update(
                        di.instr, di.taken, next_pc)
                    if prediction != next_pc:
                        wp_trace = emu.emulate_wrong_path(prediction,
                                                          wp_limit)
                        self.wp_emulations += 1
                        self.wp_instructions_emulated += len(wp_trace)
                        di.wp_trace = wp_trace
                continue
            # Scalar path: syscalls, text holes (faults), unknown
            # opcodes, and compiled blocks longer than the batch room.
            instr = instr_at(pc)
            if instr is None:
                raise EmulationFault(pc, "pc outside text segment")
            emu._mem_addr = None
            emu._taken = False
            handler = instr.handler
            if handler is None:
                handler = handlers_get(instr.op)
                if handler is None:
                    raise EmulationFault(
                        pc, f"unimplemented opcode {instr.op}")
                instr.handler = handler
            next_pc = handler(emu, instr)
            state.pc = next_pc
            taken = emu._taken
            wp_trace = None
            if predictor is not None and instr.is_control:
                prediction = predictor.predict_and_update(instr, taken,
                                                          next_pc)
                if prediction != next_pc:
                    wp_trace = emu.emulate_wrong_path(prediction, wp_limit)
                    self.wp_emulations += 1
                    self.wp_instructions_emulated += len(wp_trace)
            # DynInstr built via __new__ + slot stores: same record as
            # DynInstr(...), minus one Python-level __init__ frame per
            # simulated instruction.
            di = new_di(di_cls)
            di.seq = seq
            di.instr = instr
            di.pc = pc
            di.next_pc = next_pc
            di.taken = taken
            di.mem_addr = emu._mem_addr
            di.wp_trace = wp_trace
            append(di)
            seq += 1
            if emu.halted:
                break
        emu.instret += seq - self._seq
        self.superblock_instructions += sb_count
        self._seq = seq
        if self._obs is not None:
            self._obs.frontend_batch(len(out))
        return out

    @property
    def instructions_produced(self) -> int:
        return self._seq

    @property
    def output(self) -> list:
        return self.emulator.output

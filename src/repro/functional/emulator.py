"""Functional emulator: executes programs and exposes the "Pin features"
needed by the paper's wrong-path emulation technique.

The emulator is the functional half of the decoupled simulator.  It executes
architecturally correct instructions one at a time (:meth:`Emulator.step`)
and additionally supports *redirected wrong-path execution*
(:meth:`Emulator.emulate_wrong_path`): checkpoint the register state, jump to
the mispredicted target, execute up to a bounded number of instructions with
stores and exceptions suppressed, stop on syscalls, then restore the
checkpoint — the direct analogue of the paper's use of ``PIN_ExecuteAt``.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional, Tuple

from repro.functional.memory import Memory, MemoryFault
from repro.functional.state import ArchState
from repro.functional.superblock import SuperblockCache
from repro.isa.instructions import Instruction, INSTRUCTION_SIZE
from repro.isa.program import Program

MASK = 0xFFFFFFFF
INT_MIN = 0x80000000

# Syscall numbers (in a7).
SYS_PRINT_INT = 1
SYS_PRINT_FLOAT = 2
SYS_PRINT_CHAR = 3
SYS_EXIT = 93


class EmulationFault(Exception):
    """A fault during functional execution (bad pc, misalignment, unknown
    syscall).  Fatal on the correct path; a stop condition on the wrong
    path."""

    def __init__(self, pc: int, reason: str):
        self.pc = pc
        self.reason = reason
        super().__init__(f"fault at pc={pc:#x}: {reason}")


def _s32(value: int) -> int:
    """Interpret a 32-bit unsigned value as signed."""
    return value - 0x100000000 if value & 0x80000000 else value


def _f32(value: float) -> float:
    """Round a float to single precision (applied at memory boundaries)."""
    return struct.unpack("<f", struct.pack("<f", value))[0]


# simcheck: per-instruction
class WrongPathRecord:
    """One instruction emulated down the wrong path."""

    __slots__ = ("instr", "pc", "mem_addr", "next_pc")

    def __init__(self, instr: Instruction, pc: int,
                 mem_addr: Optional[int], next_pc: int):
        self.instr = instr
        self.pc = pc
        self.mem_addr = mem_addr
        self.next_pc = next_pc

    def __repr__(self):
        return (f"WrongPathRecord({self.instr.op}, pc={self.pc:#x}, "
                f"mem_addr={self.mem_addr})")


StepResult = Tuple[Instruction, int, int, bool, Optional[int]]


class Emulator:
    """Architectural execution of one program over one memory."""

    def __init__(self, program: Program, memory: Optional[Memory] = None):
        self.program = program
        self.memory = memory if memory is not None else Memory()
        self.state = ArchState(entry=program.entry)
        # ``restore`` writes registers in place (``x[:] = ...``), so the
        # register lists' identity is stable for the whole run and handlers
        # can reach them through one attribute hop instead of two.
        self.x = self.state.x
        self.f = self.state.f
        self.halted = False
        self.exit_code: Optional[int] = None
        self.instret = 0
        self.output: List = []
        self._suppress_side_effects = False
        # Bound pc -> instruction map lookup (Program.instruction_at minus
        # the method hop — step() runs once per simulated instruction).
        self._instr_at = program.pc_index.get
        # Lazily compiled per-basic-block superhandlers (DESIGN.md "Hot
        # path architecture"); keyed over the immutable static text, so
        # snapshot restores never invalidate them.  Their code comes
        # from the process-wide block pool, so a block this process has
        # compiled before, for any program, is not compiled again.
        self.superblocks = SuperblockCache(program.pc_index)
        # Initialised data segments.
        for address, words in program.data:
            self.memory.write_words(address, words)

    # -- correct-path execution ----------------------------------------------

    def step(self) -> Optional[StepResult]:
        """Execute one instruction at the current pc.

        Returns ``(instr, pc, next_pc, taken, mem_addr)`` or ``None`` once
        the program has exited.  ``taken`` is only meaningful for
        conditional branches; ``mem_addr`` is the effective address for
        loads/stores and ``None`` otherwise.
        """
        if self.halted:
            return None
        state = self.state
        pc = state.pc
        instr = self._instr_at(pc)
        if instr is None:
            raise EmulationFault(pc, "pc outside text segment")
        self._mem_addr = None
        self._taken = False
        handler = instr.handler
        if handler is None:
            handler = _HANDLERS.get(instr.op)
            if handler is None:
                raise EmulationFault(pc, f"unimplemented opcode {instr.op}")
            instr.handler = handler   # cached for every later execution
        next_pc = handler(self, instr)
        state.pc = next_pc
        self.instret += 1
        return instr, pc, next_pc, self._taken, self._mem_addr

    def run(self, max_instructions: int = 10_000_000) -> int:
        """Run until exit (or the safety limit).  Returns retired count."""
        executed = 0
        while not self.halted and executed < max_instructions:
            self.step()
            executed += 1
        return executed

    # -- wrong-path emulation (the "Pin ExecuteAt" analogue) -----------------

    # simcheck: hotpath
    def emulate_wrong_path(self, start_pc: int,
                           max_instructions: int) -> List[WrongPathRecord]:
        """Emulate the wrong path starting at ``start_pc``.

        Register state is checkpointed and restored; stores are suppressed
        (their addresses are still recorded, as the timing model only needs
        addresses); syscalls and any fault terminate the walk, mirroring the
        paper's "we need to end the wrong path on system calls" and
        exception suppression.

        The walk consumes compiled wrong-path superblocks where they fit
        the remaining budget (one dispatch per straight-line run, records
        appended by the rendered code) and falls back to per-instruction
        handler dispatch for block tails, text holes, syscalls and
        unknown opcodes.  A fault inside a block keeps the records of
        the instructions that completed before it, exactly like the
        scalar walk.
        """
        snapshot = self.state.checkpoint()
        self._suppress_side_effects = True
        records: List[WrongPathRecord] = []
        try:
            pc = start_pc
            instr_at = self._instr_at
            append = records.append
            x = self.x
            f = self.f
            superblocks = self.superblocks
            sb_get = superblocks._wrong.get
            sb_compile = superblocks.compile_wrongpath
            budget = max_instructions
            while budget > 0:
                entry = sb_get(pc)
                if entry is None:
                    entry = sb_compile(pc)
                if entry and entry[1] <= budget:
                    try:
                        pc = entry[0](self, x, f, append)
                    except (MemoryFault, EmulationFault, OverflowError,
                            ValueError, ZeroDivisionError):
                        break
                    budget -= entry[1]
                    continue
                # Scalar fallback: block tails near the budget limit,
                # holes, syscalls, unhandled opcodes.
                instr = instr_at(pc)
                if instr is None:
                    break  # fetched into a hole: wild wrong path, stop
                if instr.is_syscall:
                    break  # kernel code cannot be instrumented
                handler = instr.handler
                if handler is None:
                    handler = _HANDLERS.get(instr.op)
                    if handler is None:
                        break
                    instr.handler = handler
                self._mem_addr = None
                self._taken = False
                try:
                    next_pc = handler(self, instr)
                except (MemoryFault, EmulationFault, OverflowError,
                        ValueError, ZeroDivisionError):
                    break  # exceptions are suppressed: stop the wrong path
                append(WrongPathRecord(instr, pc, self._mem_addr,
                                       next_pc))
                pc = next_pc
                budget -= 1
        finally:
            self._suppress_side_effects = False
            self.state.restore(snapshot)
        return records

    # -- instruction semantics -------------------------------------------------
    # Handlers return the next pc.  They are plain functions stored in a
    # module-level table so dispatch is a single dict lookup.

    def _syscall(self, instr: Instruction) -> int:
        num = self.state.x[17]  # a7
        if num == SYS_EXIT:
            self.halted = True
            self.exit_code = _s32(self.state.x[10])
        elif num == SYS_PRINT_INT:
            if not self._suppress_side_effects:
                self.output.append(_s32(self.state.x[10]))
        elif num == SYS_PRINT_FLOAT:
            if not self._suppress_side_effects:
                self.output.append(_f32(self.state.f[10]))
        elif num == SYS_PRINT_CHAR:
            if not self._suppress_side_effects:
                self.output.append(chr(self.state.x[10] & 0xFF))
        else:
            raise EmulationFault(instr.pc, f"unknown syscall {num}")
        return instr.pc + INSTRUCTION_SIZE


def _div(a: int, b: int) -> int:
    if b == 0:
        return MASK
    sa, sb = _s32(a), _s32(b)
    if sa == -INT_MIN and sb == -1:
        return INT_MIN
    q = abs(sa) // abs(sb)
    return q if (sa < 0) == (sb < 0) else -q


def _rem(a: int, b: int) -> int:
    if b == 0:
        return a
    sa, sb = _s32(a), _s32(b)
    if sa == -INT_MIN and sb == -1:
        return 0
    r = abs(sa) % abs(sb)
    return r if sa >= 0 else -r


def _build_handlers() -> Dict[str, Callable]:
    """Construct the opcode -> handler table.

    The integer ALU and branch handlers — the bulk of any dynamic
    instruction mix — are generated from source templates with the operator
    expression inlined, so executing one costs a single flat function call
    (no wrapper-around-lambda double dispatch).
    """
    h: Dict[str, Callable] = {}
    ns = {"MASK": MASK, "INT_MIN": INT_MIN, "_s32": _s32,
          "_div": _div, "_rem": _rem,
          "INSTRUCTION_SIZE": INSTRUCTION_SIZE}

    def gen(op, template, **subst):
        code = template.format(**subst)
        exec(compile(code, f"<handler:{op}>", "exec"), ns)
        h[op] = ns.pop("run")

    ALU = ("def run(emu, ins):\n"
           "    x = emu.x\n"
           "    a = x[ins.rs1]; b = x[ins.rs2]\n"
           "    value = ({expr}) & MASK\n"
           "    if ins.rd:\n"
           "        x[ins.rd] = value\n"
           "    return ins.pc + INSTRUCTION_SIZE\n")
    ALUI = ("def run(emu, ins):\n"
            "    x = emu.x\n"
            "    a = x[ins.rs1]; i = ins.imm\n"
            "    value = ({expr}) & MASK\n"
            "    if ins.rd:\n"
            "        x[ins.rd] = value\n"
            "    return ins.pc + INSTRUCTION_SIZE\n")

    def alu(op, expr):
        gen(op, ALU, expr=expr)

    def alui(op, expr):
        gen(op, ALUI, expr=expr)

    # Register-register ALU.
    alu("add", "a + b")
    alu("sub", "a - b")
    alu("and", "a & b")
    alu("or", "a | b")
    alu("xor", "a ^ b")
    alu("sll", "a << (b & 31)")
    alu("srl", "a >> (b & 31)")
    alu("sra", "_s32(a) >> (b & 31)")
    alu("slt", "int(_s32(a) < _s32(b))")
    alu("sltu", "int(a < b)")
    alu("min", "a if _s32(a) < _s32(b) else b")
    alu("max", "a if _s32(a) > _s32(b) else b")
    alu("mul", "a * b")
    alu("mulh", "(_s32(a) * _s32(b)) >> 32")
    alu("div", "_div(a, b)")
    alu("rem", "_rem(a, b)")
    alu("divu", "MASK if b == 0 else a // b")
    alu("remu", "a if b == 0 else a % b")

    # Immediate ALU.
    alui("addi", "a + i")
    alui("andi", "a & (i & MASK)")
    alui("ori", "a | (i & MASK)")
    alui("xori", "a ^ (i & MASK)")
    alui("slli", "a << (i & 31)")
    alui("srli", "a >> (i & 31)")
    alui("srai", "_s32(a) >> (i & 31)")
    alui("slti", "int(_s32(a) < i)")
    alui("sltiu", "int(a < (i & MASK))")

    def _li(emu, ins):
        if ins.rd:
            emu.x[ins.rd] = ins.imm & MASK
        return ins.pc + INSTRUCTION_SIZE
    h["li"] = _li

    # Floating point (internal FP indices are rs-32 within state.f).
    def fp(op, fn):
        def run(emu, ins):
            f = emu.f
            f[ins.rd - 32] = fn(f[ins.rs1 - 32], f[ins.rs2 - 32])
            return ins.pc + INSTRUCTION_SIZE
        h[op] = run

    fp("fadd", lambda a, b: a + b)
    fp("fsub", lambda a, b: a - b)
    fp("fmul", lambda a, b: a * b)
    fp("fmin", min)
    fp("fmax", max)

    def _fdiv(emu, ins):
        f = emu.f
        b = f[ins.rs2 - 32]
        f[ins.rd - 32] = f[ins.rs1 - 32] / b if b != 0.0 else float("inf")
        return ins.pc + INSTRUCTION_SIZE
    h["fdiv"] = _fdiv

    def _fsqrt(emu, ins):
        f = emu.f
        value = f[ins.rs1 - 32]
        f[ins.rd - 32] = value ** 0.5 if value >= 0.0 else float("nan")
        return ins.pc + INSTRUCTION_SIZE
    h["fsqrt"] = _fsqrt

    def fp2(op, fn):
        def run(emu, ins):
            f = emu.f
            f[ins.rd - 32] = fn(f[ins.rs1 - 32])
            return ins.pc + INSTRUCTION_SIZE
        h[op] = run

    def _fli(emu, ins):
        emu.f[ins.rd - 32] = _f32(ins.imm)
        return ins.pc + INSTRUCTION_SIZE
    h["fli"] = _fli

    fp2("fmv", lambda a: a)
    fp2("fneg", lambda a: -a)
    fp2("fabs", abs)

    def _fcvt_s_w(emu, ins):
        emu.f[ins.rd - 32] = float(_s32(emu.x[ins.rs1]))
        return ins.pc + INSTRUCTION_SIZE
    h["fcvt.s.w"] = _fcvt_s_w

    def _fcvt_w_s(emu, ins):
        value = emu.f[ins.rs1 - 32]
        if value != value or value in (float("inf"), float("-inf")):
            result = 0
        else:
            result = int(value)
        if ins.rd:
            emu.x[ins.rd] = result & MASK
        return ins.pc + INSTRUCTION_SIZE
    h["fcvt.w.s"] = _fcvt_w_s

    def fcmp(op, fn):
        def run(emu, ins):
            f = emu.f
            if ins.rd:
                emu.x[ins.rd] = int(fn(f[ins.rs1 - 32],
                                             f[ins.rs2 - 32]))
            return ins.pc + INSTRUCTION_SIZE
        h[op] = run

    fcmp("feq", lambda a, b: a == b)
    fcmp("flt", lambda a, b: a < b)
    fcmp("fle", lambda a, b: a <= b)

    # Memory.
    def _lw(emu, ins):
        addr = (emu.x[ins.rs1] + ins.imm) & MASK
        emu._mem_addr = addr
        if ins.rd:
            emu.x[ins.rd] = emu.memory.load_word(addr)
        else:
            emu.memory.load_word(addr)
        return ins.pc + INSTRUCTION_SIZE
    h["lw"] = _lw

    def _lb(emu, ins):
        addr = (emu.x[ins.rs1] + ins.imm) & MASK
        emu._mem_addr = addr
        value = emu.memory.load_byte(addr)
        if value & 0x80:
            value |= 0xFFFFFF00
        if ins.rd:
            emu.x[ins.rd] = value
        return ins.pc + INSTRUCTION_SIZE
    h["lb"] = _lb

    def _lbu(emu, ins):
        addr = (emu.x[ins.rs1] + ins.imm) & MASK
        emu._mem_addr = addr
        if ins.rd:
            emu.x[ins.rd] = emu.memory.load_byte(addr)
        return ins.pc + INSTRUCTION_SIZE
    h["lbu"] = _lbu

    def _flw(emu, ins):
        addr = (emu.x[ins.rs1] + ins.imm) & MASK
        emu._mem_addr = addr
        bits = emu.memory.load_word(addr)
        emu.f[ins.rd - 32] = struct.unpack(
            "<f", struct.pack("<I", bits))[0]
        return ins.pc + INSTRUCTION_SIZE
    h["flw"] = _flw

    def _sw(emu, ins):
        addr = (emu.x[ins.rs1] + ins.imm) & MASK
        emu._mem_addr = addr
        if emu._suppress_side_effects:
            if addr & 3:
                raise MemoryFault(addr)
        else:
            emu.memory.store_word(addr, emu.x[ins.rs2])
        return ins.pc + INSTRUCTION_SIZE
    h["sw"] = _sw

    def _sb(emu, ins):
        addr = (emu.x[ins.rs1] + ins.imm) & MASK
        emu._mem_addr = addr
        if not emu._suppress_side_effects:
            emu.memory.store_byte(addr, emu.x[ins.rs2])
        return ins.pc + INSTRUCTION_SIZE
    h["sb"] = _sb

    def _fsw(emu, ins):
        addr = (emu.x[ins.rs1] + ins.imm) & MASK
        emu._mem_addr = addr
        if emu._suppress_side_effects:
            if addr & 3:
                raise MemoryFault(addr)
        else:
            bits = struct.unpack(
                "<I", struct.pack("<f", _f32(emu.f[ins.rs2 - 32])))[0]
            emu.memory.store_word(addr, bits)
        return ins.pc + INSTRUCTION_SIZE
    h["fsw"] = _fsw

    # Control flow.
    BRANCH = ("def run(emu, ins):\n"
              "    x = emu.x\n"
              "    a = x[ins.rs1]; b = x[ins.rs2]\n"
              "    if {test}:\n"
              "        emu._taken = True\n"
              "        return ins.target\n"
              "    return ins.pc + INSTRUCTION_SIZE\n")

    def branch(op, test):
        gen(op, BRANCH, test=test)

    branch("beq", "a == b")
    branch("bne", "a != b")
    branch("blt", "_s32(a) < _s32(b)")
    branch("bge", "_s32(a) >= _s32(b)")
    branch("bltu", "a < b")
    branch("bgeu", "a >= b")

    def _jal(emu, ins):
        if ins.rd:
            emu.x[ins.rd] = (ins.pc + INSTRUCTION_SIZE) & MASK
        emu._taken = True
        return ins.target
    h["jal"] = _jal

    def _jalr(emu, ins):
        target = (emu.x[ins.rs1] + ins.imm) & MASK & ~1
        if ins.rd:
            emu.x[ins.rd] = (ins.pc + INSTRUCTION_SIZE) & MASK
        emu._taken = True
        return target
    h["jalr"] = _jalr

    h["ecall"] = Emulator._syscall
    return h


_HANDLERS = _build_handlers()

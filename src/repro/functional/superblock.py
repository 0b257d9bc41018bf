"""Per-basic-block superhandlers: compiled straight-line execution.

The emulator's per-opcode handlers (``emulator._build_handlers``) already
make one instruction cost a single flat call.  This module takes the next
step (DESIGN.md "Hot path architecture"): once a basic block — a
maximal straight-line run of compilable instructions ending at the
first control instruction — is warm (:func:`compile_when_warm`), it
renders *one* flat function for the whole block and caches it, so
steady-state execution pays one dispatch per block instead of one per
instruction.  Everything static about the block is baked into the
rendered source as literals: register indices, immediates, pcs,
fall-through/branch targets, and the per-instruction sequence-number
offsets of the :class:`~repro.frontend.dyninstr.DynInstr` records the
correct-path variant emits.

Three variants are rendered from the same template tables:

* **correct path** (``render_correct``) — executes the block
  architecturally and appends a ``DynInstr`` per instruction, exactly as
  :meth:`FunctionalFrontend.produce_batch` would have built them;
* **wrong path** (``render_wrongpath``) — store side effects suppressed
  (addresses still computed, alignment still faults, mirroring the
  ``_suppress_side_effects`` branches of the scalar handlers) and a
  :class:`~repro.functional.emulator.WrongPathRecord` appended per
  instruction;
* **replay items** (``render_items``) — no semantics at all, just the
  per-pc :class:`WPItem` records the code-cache reconstruction walk
  builds (the caller supplies the item class, keeping this module free
  of a ``repro.wrongpath`` import).

Equivalence contract: a block function must be *observationally
identical* to executing its instructions one-by-one through the scalar
handlers — same register/memory/fault effects, same records in the same
order, including the partial record stream left behind when an
instruction mid-block faults on the wrong path.  The determinism goldens
and the ``test_superblock`` hypothesis suite pin this down.

Audit contract (simcheck SC003): the rendered code is generated *only*
by substituting integer (or whitelisted-name) literals into the
module-level template tables below, and the one ``compile``/``exec``
site is :func:`_compile_block`, which every block layer (these three
variants, ``repro.core.timingblock`` and ``repro.wrongpath.streamblock``)
compiles through its one bounded code pool.  SC003 re-renders every
template with dummy substitutions and checks the result against an AST
whitelist, exactly as it audits the per-opcode handler templates.
"""

from __future__ import annotations

import contextlib
import struct
from typing import Dict, List, Optional, Tuple

from repro.frontend.dyninstr import DynInstr
from repro.functional.memory import MemoryFault, MisalignedAccess
from repro.isa.instructions import INSTRUCTION_SIZE, Instruction

#: Longest rendered block; long straight-line runs are split (the
#: produce_batch fit check makes over-long blocks fall back to scalar
#: dispatch near batch boundaries, so shorter blocks also batch better).
MAX_BLOCK = 64

_INF = float("inf")
_NINF = float("-inf")

# ---------------------------------------------------------------------------
# Template tables (audited by simcheck SC003).
#
# One entry per opcode; ``{name}`` placeholders are filled with literals
# by the renderer.  ``@x0``-suffixed variants cover integer destinations
# of register x0, where the write is dropped but address side effects
# (alignment faults, DynInstr.mem_addr) must survive.  Ops whose
# template writes ``x[{rd}]`` and have no ``@x0`` variant are pure
# computes: with rd == x0 they render to nothing at all.
# ---------------------------------------------------------------------------

CORRECT_TEMPLATES: Dict[str, str] = {
    # Register-register ALU.
    "add": "x[{rd}] = (x[{rs1}] + x[{rs2}]) & 4294967295",
    "sub": "x[{rd}] = (x[{rs1}] - x[{rs2}]) & 4294967295",
    "and": "x[{rd}] = x[{rs1}] & x[{rs2}]",
    "or": "x[{rd}] = x[{rs1}] | x[{rs2}]",
    "xor": "x[{rd}] = x[{rs1}] ^ x[{rs2}]",
    "sll": "x[{rd}] = (x[{rs1}] << (x[{rs2}] & 31)) & 4294967295",
    "srl": "x[{rd}] = x[{rs1}] >> (x[{rs2}] & 31)",
    "sra": "x[{rd}] = (_s32(x[{rs1}]) >> (x[{rs2}] & 31)) & 4294967295",
    "slt": "x[{rd}] = 1 if _s32(x[{rs1}]) < _s32(x[{rs2}]) else 0",
    "sltu": "x[{rd}] = 1 if x[{rs1}] < x[{rs2}] else 0",
    "min": "a = x[{rs1}]\n"
           "b = x[{rs2}]\n"
           "x[{rd}] = a if _s32(a) < _s32(b) else b",
    "max": "a = x[{rs1}]\n"
           "b = x[{rs2}]\n"
           "x[{rd}] = a if _s32(a) > _s32(b) else b",
    "mul": "x[{rd}] = (x[{rs1}] * x[{rs2}]) & 4294967295",
    "mulh": "x[{rd}] = ((_s32(x[{rs1}]) * _s32(x[{rs2}])) >> 32)"
            " & 4294967295",
    "div": "x[{rd}] = _div(x[{rs1}], x[{rs2}]) & 4294967295",
    "rem": "x[{rd}] = _rem(x[{rs1}], x[{rs2}]) & 4294967295",
    "divu": "b = x[{rs2}]\n"
            "x[{rd}] = 4294967295 if b == 0 else x[{rs1}] // b",
    "remu": "b = x[{rs2}]\n"
            "x[{rd}] = x[{rs1}] if b == 0 else x[{rs1}] % b",
    # Immediate ALU (immediates pre-masked/pre-clamped at render time).
    "addi": "x[{rd}] = (x[{rs1}] + {imm}) & 4294967295",
    "andi": "x[{rd}] = x[{rs1}] & {umm}",
    "ori": "x[{rd}] = x[{rs1}] | {umm}",
    "xori": "x[{rd}] = x[{rs1}] ^ {umm}",
    "slli": "x[{rd}] = (x[{rs1}] << {shamt}) & 4294967295",
    "srli": "x[{rd}] = x[{rs1}] >> {shamt}",
    "srai": "x[{rd}] = (_s32(x[{rs1}]) >> {shamt}) & 4294967295",
    "slti": "x[{rd}] = 1 if _s32(x[{rs1}]) < {imm} else 0",
    "sltiu": "x[{rd}] = 1 if x[{rs1}] < {umm} else 0",
    "li": "x[{rd}] = {umm}",
    # Floating point (f-file indices pre-shifted by -32 at render time).
    "fadd": "f[{fd}] = f[{fs1}] + f[{fs2}]",
    "fsub": "f[{fd}] = f[{fs1}] - f[{fs2}]",
    "fmul": "f[{fd}] = f[{fs1}] * f[{fs2}]",
    "fmin": "f[{fd}] = min(f[{fs1}], f[{fs2}])",
    "fmax": "f[{fd}] = max(f[{fs1}], f[{fs2}])",
    "fdiv": "b = f[{fs2}]\n"
            "f[{fd}] = f[{fs1}] / b if b != 0.0 else _INF",
    "fsqrt": "v = f[{fs1}]\n"
             "f[{fd}] = v ** 0.5 if v >= 0.0 else _NAN",
    "fli": "f[{fd}] = {fimm}",
    "fmv": "f[{fd}] = f[{fs1}]",
    "fneg": "f[{fd}] = -f[{fs1}]",
    "fabs": "f[{fd}] = abs(f[{fs1}])",
    "fcvt.s.w": "f[{fd}] = float(_s32(x[{rs1}]))",
    "fcvt.w.s": "v = f[{fs1}]\n"
                "if v != v or v == _INF or v == _NINF:\n"
                "    x[{rd}] = 0\n"
                "else:\n"
                "    x[{rd}] = int(v) & 4294967295",
    "feq": "x[{rd}] = 1 if f[{fs1}] == f[{fs2}] else 0",
    "flt": "x[{rd}] = 1 if f[{fs1}] < f[{fs2}] else 0",
    "fle": "x[{rd}] = 1 if f[{fs1}] <= f[{fs2}] else 0",
    # Loads (sparse-memory word dict pinned by PROLOGUE_MEM).
    "lw": "addr = (x[{rs1}] + {imm}) & 4294967295\n"
          "if addr & 3:\n"
          "    raise _MA(addr)\n"
          "x[{rd}] = mw_get(addr >> 2, 0)",
    "lw@x0": "addr = (x[{rs1}] + {imm}) & 4294967295\n"
             "if addr & 3:\n"
             "    raise _MA(addr)",
    "lb": "addr = (x[{rs1}] + {imm}) & 4294967295\n"
          "v = (mw_get(addr >> 2, 0) >> ((addr & 3) << 3)) & 255\n"
          "x[{rd}] = v | 4294967040 if v & 128 else v",
    "lb@x0": "addr = (x[{rs1}] + {imm}) & 4294967295",
    "lbu": "addr = (x[{rs1}] + {imm}) & 4294967295\n"
           "x[{rd}] = (mw_get(addr >> 2, 0) >> ((addr & 3) << 3)) & 255",
    "lbu@x0": "addr = (x[{rs1}] + {imm}) & 4294967295",
    "flw": "addr = (x[{rs1}] + {imm}) & 4294967295\n"
           "if addr & 3:\n"
           "    raise _MA(addr)\n"
           "f[{fd}] = _b2f(mw_get(addr >> 2, 0))",
    # Stores (correct path: the write happens).
    "sw": "addr = (x[{rs1}] + {imm}) & 4294967295\n"
          "if addr & 3:\n"
          "    raise _MA(addr)\n"
          "mw[addr >> 2] = x[{rs2}]",
    "sb": "addr = (x[{rs1}] + {imm}) & 4294967295\n"
          "sh = (addr & 3) << 3\n"
          "idx = addr >> 2\n"
          "mw[idx] = (mw_get(idx, 0) & ~(255 << sh))"
          " | ((x[{rs2}] & 255) << sh)",
    "fsw": "addr = (x[{rs1}] + {imm}) & 4294967295\n"
           "if addr & 3:\n"
           "    raise _MA(addr)\n"
           "mw[addr >> 2] = _f2b(f[{fs2}])",
    # Control-flow fragments (composed by the renderer: the link write
    # is shared by jal/jalr, the target compute is jalr-only).
    "jal": "x[{rd}] = {link}",
    "jalr": "t = (x[{rs1}] + {imm}) & 4294967294",
}

#: Wrong-path overrides: stores are suppressed — the effective address
#: is still computed (the timing model consumes it) and word stores
#: still fault on misalignment, matching the scalar handlers'
#: ``_suppress_side_effects`` branches — but memory is never written.
WP_STORE_TEMPLATES: Dict[str, str] = {
    "sw": "addr = (x[{rs1}] + {imm}) & 4294967295\n"
          "if addr & 3:\n"
          "    raise _MF(addr)",
    "sb": "addr = (x[{rs1}] + {imm}) & 4294967295",
    "fsw": "addr = (x[{rs1}] + {imm}) & 4294967295\n"
           "if addr & 3:\n"
           "    raise _MF(addr)",
}

WRONGPATH_TEMPLATES: Dict[str, str] = dict(CORRECT_TEMPLATES)
WRONGPATH_TEMPLATES.update(WP_STORE_TEMPLATES)

#: Conditional-branch tests (the renderer wraps them in ``if .. :``).
BRANCH_TESTS: Dict[str, str] = {
    "beq": "x[{rs1}] == x[{rs2}]",
    "bne": "x[{rs1}] != x[{rs2}]",
    "blt": "_s32(x[{rs1}]) < _s32(x[{rs2}])",
    "bge": "_s32(x[{rs1}]) >= _s32(x[{rs2}])",
    "bltu": "x[{rs1}] < x[{rs2}]",
    "bgeu": "x[{rs1}] >= x[{rs2}]",
}

#: Function prologue for blocks touching data memory: pin the sparse
#: word dict *per call* (snapshot restore replaces the dict object).
PROLOGUE_MEM = ("mw = emu.memory._words\n"
                "mw_get = mw.get")

#: Correct-path record: one DynInstr per instruction, built via
#: ``__new__`` + slot stores like produce_batch's scalar path.
DI_TAIL = ("di = _new(_DI)\n"
           "di.seq = seq + {k}\n"
           "di.instr = _I{i}\n"
           "di.pc = {pc}\n"
           "di.next_pc = {next}\n"
           "di.taken = {taken}\n"
           "di.mem_addr = {mem}\n"
           "di.wp_trace = None\n"
           "append(di)")

#: Wrong-path record (appended *after* the instruction's semantics, so
#: a faulting instruction leaves the same partial record stream as the
#: scalar walk).
WR_TAIL = ("r = _new(_WR)\n"
           "r.instr = _I{i}\n"
           "r.pc = {pc}\n"
           "r.mem_addr = {mem}\n"
           "r.next_pc = {next}\n"
           "append(r)")

#: Reconstruction replay item (no semantics; addresses unknown).
WP_ITEM_TAIL = ("it = _new(_WP)\n"
                "it.instr = _I{i}\n"
                "it.pc = {pc}\n"
                "it.mem_addr = None\n"
                "append(it)")

RETURN_NEXT = "return {next}"


def _bits_to_f32(bits: int) -> float:
    """Reinterpret a 32-bit word as an IEEE-754 single (flw)."""
    return struct.unpack("<f", struct.pack("<I", bits))[0]


def _f32_to_bits(value: float) -> int:
    """Round to single precision and reinterpret as a word (fsw);
    overflow raises like the scalar handler's ``_f32`` round-trip."""
    return struct.unpack("<I", struct.pack("<f", value))[0]


def _f32_round(value: float) -> float:
    return struct.unpack("<f", struct.pack("<f", value))[0]


# ---------------------------------------------------------------------------
# Block discovery.
# ---------------------------------------------------------------------------

def compilable(ins: Instruction) -> bool:
    """Can this instruction live inside a rendered block?

    Syscalls never can (they can halt or touch program output mid-block)
    and neither can opcodes without a template; ``fli`` of a non-finite
    immediate is excluded because its value cannot round-trip through a
    source literal.
    """
    op = ins.op
    if op in BRANCH_TESTS:
        return True
    if ins.is_syscall or op not in CORRECT_TEMPLATES:
        return False
    if op == "fli":
        try:
            value = _f32_round(ins.imm)
        except (OverflowError, TypeError, ValueError):
            return False
        return _NINF < value < _INF
    return True


def discover(pc_index, pc: int) -> Tuple[List[Instruction], bool]:
    """The compilable straight-line run starting at ``pc``.

    Returns ``(instructions, terminated)``; ``terminated`` is True when
    the run ends with its control instruction (included).  An empty run
    means ``pc`` is a text hole or starts with an uncompilable
    instruction — the caller falls back to scalar dispatch.
    """
    instrs: List[Instruction] = []
    append = instrs.append
    get = pc_index.get
    while len(instrs) < MAX_BLOCK:
        ins = get(pc)
        if ins is None or not compilable(ins):
            return instrs, False
        append(ins)
        if ins.is_control:
            return instrs, True
        pc += INSTRUCTION_SIZE
    return instrs, False


# ---------------------------------------------------------------------------
# Rendering.
# ---------------------------------------------------------------------------

def _subst(ins: Instruction, k: int) -> dict:
    imm = ins.imm if ins.imm is not None else 0
    target = ins.target if ins.target is not None else 0
    fall = ins.pc + INSTRUCTION_SIZE
    sub = {
        "rd": ins.rd, "rs1": ins.rs1, "rs2": ins.rs2,
        "fd": ins.rd - 32, "fs1": ins.rs1 - 32, "fs2": ins.rs2 - 32,
        "imm": imm, "pc": ins.pc, "next": fall, "target": target,
        "link": fall & 0xFFFFFFFF, "i": k, "k": k,
    }
    if ins.op == "fli":
        sub["fimm"] = repr(_f32_round(imm))
    else:
        sub["umm"] = imm & 0xFFFFFFFF
        sub["shamt"] = imm & 31
    return sub


def _emit(out: List[str], template: str, sub: dict, depth: int) -> None:
    pad = "    " * depth
    for line in template.format(**sub).split("\n"):
        out.append(pad + line)


def _semantic(ins: Instruction, templates: Dict[str, str]) -> str:
    """The semantic template for one non-control instruction; empty for
    pure computes whose x0 destination drops the result."""
    op = ins.op
    if ins.rd == 0:
        alt = templates.get(op + "@x0")
        if alt is not None:
            return alt
        tmpl = templates[op]
        if "x[{rd}]" in tmpl:
            return ""
        return tmpl
    return templates[op]


def _render_control(out: List[str], ins: Instruction, sub: dict,
                    tail: str, templates: Dict[str, str]) -> None:
    """Terminator: record + ``return next_pc`` on every arm."""
    op = ins.op
    sub["mem"] = "None"
    if op in BRANCH_TESTS:
        out.append("    if " + BRANCH_TESTS[op].format(**sub) + ":")
        taken = dict(sub, taken="True", next=sub["target"])
        _emit(out, tail, taken, 2)
        _emit(out, RETURN_NEXT, taken, 2)
        fall = dict(sub, taken="False")
        _emit(out, tail, fall, 1)
        _emit(out, RETURN_NEXT, fall, 1)
        return
    if op == "jalr":
        _emit(out, templates["jalr"], sub, 1)
        if ins.rd:
            _emit(out, templates["jal"], sub, 1)
        taken = dict(sub, taken="True", next="t")
    else:  # jal
        if ins.rd:
            _emit(out, templates["jal"], sub, 1)
        taken = dict(sub, taken="True", next=sub["target"])
    _emit(out, tail, taken, 1)
    _emit(out, RETURN_NEXT, taken, 1)


def render_correct(instrs: List[Instruction]) -> str:
    """Correct-path block: executes + appends one DynInstr per
    instruction; returns the next pc."""
    out = ["def run(emu, x, f, append, seq):"]
    if any(ins.is_mem for ins in instrs):
        _emit(out, PROLOGUE_MEM, {}, 1)
    last = len(instrs) - 1
    for k, ins in enumerate(instrs):
        sub = _subst(ins, k)
        if ins.is_control:
            _render_control(out, ins, sub, DI_TAIL, CORRECT_TEMPLATES)
            continue
        sem = _semantic(ins, CORRECT_TEMPLATES)
        if sem:
            _emit(out, sem, sub, 1)
        sub["taken"] = "False"
        sub["mem"] = "addr" if ins.is_mem else "None"
        _emit(out, DI_TAIL, sub, 1)
        if k == last:
            _emit(out, RETURN_NEXT, sub, 1)
    return "\n".join(out) + "\n"


def render_wrongpath(instrs: List[Instruction]) -> str:
    """Wrong-path block: suppressed stores + one WrongPathRecord per
    instruction; returns the next pc."""
    out = ["def run(emu, x, f, append):"]
    if any(ins.is_load for ins in instrs):
        _emit(out, PROLOGUE_MEM, {}, 1)
    last = len(instrs) - 1
    for k, ins in enumerate(instrs):
        sub = _subst(ins, k)
        if ins.is_control:
            _render_control(out, ins, sub, WR_TAIL, WRONGPATH_TEMPLATES)
            continue
        sem = _semantic(ins, WRONGPATH_TEMPLATES)
        if sem:
            _emit(out, sem, sub, 1)
        sub["mem"] = "addr" if ins.is_mem else "None"
        _emit(out, WR_TAIL, sub, 1)
        if k == last:
            _emit(out, RETURN_NEXT, sub, 1)
    return "\n".join(out) + "\n"


def render_items(instrs: List[Instruction]) -> str:
    """Replay-item block: appends one address-less item per pc."""
    out = ["def run(append):"]
    for k, ins in enumerate(instrs):
        _emit(out, WP_ITEM_TAIL, {"i": k, "pc": ins.pc}, 1)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Compilation (the second sanctioned exec site, with emulator's
# _build_handlers — simcheck SC003 audits both).
# ---------------------------------------------------------------------------

_BASE_NS = None

#: The one pool of compiled block code, shared by every layer: (layer
#: tag, content key) -> the code object ``compile()`` returned.  Dict
#: order is recency (a hit re-inserts its key), so the first key is the
#: least recently used one.  Not locked: a process simulates on one
#: thread (the engine and the daemon run jobs in worker processes).
_POOL: dict = {}

#: Most code objects :data:`_POOL` holds; a miss beyond it evicts the
#: least recently used entry.  Sized on perfbench ``serve`` (seed 1, a
#: 2-vCPU VM) when every layer compiled a block on its second visit:
#: its two daemon workers grew to about 2,700 and 3,800 entries
#: unbounded, and at 3072 its median request time matched the
#: unbounded pool's at 6-7% more peak RSS than per-job caching.  Not
#: re-measured for the break-even gate, under which far fewer blocks
#: compile.
POOL_LIMIT = 3072


def _base_ns() -> dict:
    global _BASE_NS
    if _BASE_NS is None:
        # Deferred: repro.functional.emulator imports this module.
        from repro.functional.emulator import _div, _rem, _s32
        _BASE_NS = {
            "_s32": _s32, "_div": _div, "_rem": _rem,
            "_MA": MisalignedAccess, "_MF": MemoryFault,
            "_INF": _INF, "_NINF": _NINF, "_NAN": float("nan"),
            "_b2f": _bits_to_f32, "_f2b": _f32_to_bits,
            # Rendered code may only reach these builtins.
            "__builtins__": {"int": int, "abs": abs, "min": min,
                             "max": max, "float": float},
        }
    return _BASE_NS


def block_key(instrs) -> tuple:
    """Everything :func:`render_correct`, :func:`render_wrongpath` and
    :func:`render_items` read from ``instrs``, for :data:`_POOL` keys.

    An ``fli`` immediate enters by ``repr``: ``0.0 == -0.0`` and the two
    hash alike, yet they render to different literals.
    """
    return tuple((ins.pc, ins.op, ins.rd, ins.rs1, ins.rs2,
                  repr(ins.imm) if ins.op == "fli" else ins.imm,
                  ins.target)
                 for ins in instrs)


def _compile_block(key: tuple, render, instrs, label: str,
                   extra: dict):
    """The ``run`` function of one block, compiled through the pool.

    ``key`` is the layer tag followed by the block's content key;
    ``render()`` makes the block's source only when :data:`_POOL`
    misses.  The code object is always ``exec``-ed into a fresh
    namespace holding the audited helper set, the caller's own
    instruction objects (``_I0``..``_In``, for the record tails) and its
    ``extra`` bindings, so a block never aliases another program's
    instructions.  This is the only ``compile``/``exec`` in the module;
    SC003 audits the templates it renders from.
    """
    code = _POOL.pop(key, None)
    if code is None:
        code = compile(render(), label, "exec")
        if len(_POOL) >= POOL_LIMIT:
            del _POOL[next(iter(_POOL))]
    _POOL[key] = code
    ns = dict(_base_ns())
    index = 0
    for instr in instrs:
        ns["_I%d" % index] = instr
        index += 1
    ns.update(extra)
    exec(code, ns)
    return ns.pop("run")


def compile_items_builder(instrs, item_cls, label: str = "<wpitems>"):
    """A compiled appender of fresh replay items, one per instruction.

    Used by the code-cache reconstruction walk; fresh items per call are
    mandatory (the convergence model mutates ``mem_addr`` in place, so
    items can never be shared between windows).  Returns None for an
    empty run.
    """
    if not instrs:
        return None
    return _compile_block(("items", block_key(instrs)),
                          lambda: render_items(instrs), instrs, label,
                          {"_WP": item_cls, "_new": item_cls.__new__})


#: Cached verdict for a pc with no compilable block (falsy, distinct
#: from the dict-miss None so hot callers test truthiness only).
UNCOMPILABLE: tuple = ()

#: Cold visits of an entry pc, counted per cache (one simulation's
#: layer) and never dropped, before its block is compiled or its code
#: bound from :data:`_POOL`: a break-even count, so that a block
#: compiles only once it has run often enough to pay for its render and
#: ``compile()``, and short jobs stay scalar.  At 2, the value before, a
#: fresh process running 48 tiny 1000-instruction conv/wpemul jobs
#: spent 4.7 s of its 6.3 s of simulation in ``compile()`` (1.2 s
#: forced scalar).  ``tools/perf_ab.py`` medians, 3 alternating pairs
#: per workload, 2-vCPU VM: 2 -> 256 raised sweep ``jobs_per_s`` 13.2
#: -> 65.7 (seed 1) and 12.8 -> 68.4 (seed 7919), left branchy ``kips``
#: the same and slowed serve's median request 61.8 -> 70.9 ms (seed 1;
#: DESIGN.md §12.2).  128 and 512 were no better than 256 on any
#: workload.
#: Scalar and compiled execution are observationally identical, so the
#: threshold never affects simulation results, only when blocks
#: compile.  Every compiled block layer reads this one binding through
#: :func:`compile_when_warm`; :func:`forced_threshold` overrides it.
COMPILE_THRESHOLD = 256


@contextlib.contextmanager
def forced_threshold(threshold: int):
    """Run the block with :data:`COMPILE_THRESHOLD` at ``threshold``
    (1 compiles every block on its first visit, ``10**9`` none)."""
    global COMPILE_THRESHOLD
    saved = COMPILE_THRESHOLD
    COMPILE_THRESHOLD = threshold
    try:
        yield
    finally:
        COMPILE_THRESHOLD = saved


def compile_when_warm(warm: dict, compiled: dict, pc: int, build):
    """The warm gate shared by every compiled block layer.

    Counts one cold visit of ``pc`` in ``warm``, the calling cache's
    own counts for its layer, which are never dropped, and returns
    :data:`UNCOMPILABLE` (nothing cached, so the caller's scalar path
    runs and the next visit lands here again) until the count reaches
    :data:`COMPILE_THRESHOLD`.  Then ``build(pc)`` makes the entry,
    which is cached in ``compiled`` — unless ``build`` returns None:
    nothing can be compiled at ``pc`` yet, so nothing is cached.
    """
    seen = warm.get(pc, 0) + 1
    warm[pc] = seen
    if seen < COMPILE_THRESHOLD:
        return UNCOMPILABLE
    entry = build(pc)
    if entry is None:
        return UNCOMPILABLE
    compiled[pc] = entry
    return entry


class SuperblockCache:
    """Lazily compiled superhandlers for one emulator's static code.

    Keyed by entry pc over the immutable ``program.pc_index`` (the ISA
    has no self-modifying code), so entries stay valid for the life of
    the program — including across :class:`SimSnapshot` restores, which
    replace register/memory *contents* but never the text.  Suffix
    blocks (entry at a pc inside another block) are discovered and
    compiled independently; overlap is harmless because every block is
    a pure function of the static instructions it covers.

    Hot callers read the mode dicts directly (``_correct.get(pc)``) and
    call the ``compile_*`` methods only on a miss; a falsy
    :data:`UNCOMPILABLE` entry caches pcs with no block (text holes,
    syscalls, unknown opcodes) so discovery never re-runs.  Every
    emulator builds its own cache, with its own warm counts; the code
    behind the entries comes from the shared :data:`_POOL`.
    """

    def __init__(self, pc_index):
        self._pc_index = pc_index
        #: pc -> (run, length, terminated) | UNCOMPILABLE
        self._correct: dict = {}
        #: pc -> (run, length) | UNCOMPILABLE
        self._wrong: dict = {}
        #: Entry-pc -> cold visits, per mode (see compile_when_warm).
        self._warm_correct: dict = {}
        self._warm_wrong: dict = {}

    def compile_correct(self, pc: int):
        return compile_when_warm(self._warm_correct, self._correct, pc,
                                 self._build_correct)

    def compile_wrongpath(self, pc: int):
        return compile_when_warm(self._warm_wrong, self._wrong, pc,
                                 self._build_wrongpath)

    def _build_correct(self, pc: int):
        instrs, terminated = discover(self._pc_index, pc)
        if not instrs:
            return UNCOMPILABLE
        run = _compile_block(("correct", block_key(instrs)),
                             lambda: render_correct(instrs), instrs,
                             "<superblock:%#x>" % pc,
                             {"_DI": DynInstr, "_new": DynInstr.__new__})
        return (run, len(instrs), terminated)

    def _build_wrongpath(self, pc: int):
        # Deferred import mirror of _base_ns: the emulator module owns
        # the record class.
        from repro.functional.emulator import WrongPathRecord
        instrs, _terminated = discover(self._pc_index, pc)
        if not instrs:
            return UNCOMPILABLE
        run = _compile_block(("wrongpath", block_key(instrs)),
                             lambda: render_wrongpath(instrs), instrs,
                             "<superblock-wp:%#x>" % pc,
                             {"_WR": WrongPathRecord,
                              "_new": WrongPathRecord.__new__})
        return (run, len(instrs))

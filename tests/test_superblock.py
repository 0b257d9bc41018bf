"""Observational equivalence of the compiled block layers.

Three JIT layers render per-basic-block superhandlers from audited
template tables (simcheck SC003): the functional superblocks
(:mod:`repro.functional.superblock`), the timing blocks
(:mod:`repro.core.timingblock`) and the wrong-path stream blocks
(:mod:`repro.wrongpath.streamblock`).  Each is a pure speedup: running
a compiled block must be bit-identical to iterating the scalar
reference path over the same instructions.  These tests drive the two
variants of the same run against each other:

* hypothesis-generated random programs through the functional frontend
  (correct path) and the wrong-path emulator, compiled vs scalar;
* full ``Simulator`` runs per technique with the timing and stream
  layers force-disabled, compared stat-for-stat via ``to_dict``;
* the flattened data-cache fast path against the per-access
  reference implementation under every L2 prefetcher (latencies,
  counters, warm state);
* CodeCache invalidation of the compiled pc-maps on insert and
  snapshot restore;
* the process-wide artifact pools and the per-program shared
  superblock cache reusing compiled blocks across fresh instances.
"""

import contextlib
import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro import CoreConfig, Simulator
from repro.cache.hierarchy import CacheHierarchy
from repro.core import ooo, timingblock
from repro.functional import superblock
from repro.functional.emulator import Emulator
from repro.isa.assembler import assemble
from repro.workloads import build_workload
from repro.wrongpath import base as wp_base
from repro.wrongpath import streamblock


# ---------------------------------------------------------------------------
# Scalar-forcing helpers: each JIT layer has a falsy "no block here"
# value its hot caller falls back from, so a compiler that always
# returns it forces the scalar reference path without touching any
# simulation semantics.
# ---------------------------------------------------------------------------

class _DudSuperblocks:
    """A superblock cache that never compiles anything."""

    def __init__(self):
        self._correct = {}
        self._wrong = {}

    def compile_correct(self, pc):
        return superblock.UNCOMPILABLE

    def compile_wrongpath(self, pc):
        return superblock.UNCOMPILABLE


@contextlib.contextmanager
def _eager_thresholds():
    """Compile every block on first execution (all three layers)."""
    saved = (superblock.COMPILE_THRESHOLD,
             timingblock.COMPILE_THRESHOLD, wp_base.COMPILE_THRESHOLD)
    superblock.COMPILE_THRESHOLD = 1
    timingblock.COMPILE_THRESHOLD = 1
    wp_base.COMPILE_THRESHOLD = 1
    try:
        yield
    finally:
        (superblock.COMPILE_THRESHOLD,
         timingblock.COMPILE_THRESHOLD,
         wp_base.COMPILE_THRESHOLD) = saved


@contextlib.contextmanager
def _all_layers_scalar():
    """Force every layer's hot caller down its scalar reference path."""
    saved_shared = superblock.SuperblockCache.shared
    saved_stream = wp_base._compile_stream_block
    saved_timing = ooo.OoOCore._compile_timing
    superblock.SuperblockCache.shared = classmethod(
        lambda cls, program: _DudSuperblocks())
    wp_base._compile_stream_block = lambda core, pc: ()
    ooo.OoOCore._compile_timing = lambda self, pc: ()
    try:
        yield
    finally:
        superblock.SuperblockCache.shared = saved_shared
        wp_base._compile_stream_block = saved_stream
        ooo.OoOCore._compile_timing = saved_timing


# ---------------------------------------------------------------------------
# Random program generation (hypothesis).
# ---------------------------------------------------------------------------

REGS = ("t0", "t1", "t2", "t3", "t4", "t5", "t6",
        "a0", "a1", "a2", "a3", "a4", "a5")
FREGS = ("ft0", "ft1", "ft2", "ft3")
BUF_WORDS = 16

INT_RR = ("add", "sub", "and", "or", "xor", "sll", "srl", "sra",
          "slt", "sltu", "mul", "mulh", "div", "rem", "divu", "remu",
          "min", "max")
INT_RI = ("addi", "andi", "ori", "xori", "slti", "sltiu")
SHIFT_I = ("slli", "srli", "srai")
FP_RR = ("fadd", "fsub", "fmul", "fmin", "fmax", "fdiv")
FP_UN = ("fmv", "fneg", "fabs", "fsqrt")
FP_CMP = ("feq", "flt", "fle")
BRANCHES = ("beq", "bne", "blt", "bge", "bltu", "bgeu")

_reg = st.sampled_from(REGS)
_freg = st.sampled_from(FREGS)
_imm = st.integers(-2048, 2047)
_fimm = st.sampled_from((0.0, 1.0, -1.5, 2.0, 0.5, 3.25, -2.75, 100.0))


def _ops(aligned_only):
    word_off = st.integers(0, BUF_WORDS - 1).map(lambda w: w * 4)
    byte_off = st.integers(0, BUF_WORDS * 4 - 1)
    mem_off = word_off if aligned_only else byte_off
    return st.one_of(
        st.tuples(st.sampled_from(INT_RR), _reg, _reg, _reg).map(
            lambda t: f"{t[0]} {t[1]}, {t[2]}, {t[3]}"),
        st.tuples(st.sampled_from(INT_RI), _reg, _reg, _imm).map(
            lambda t: f"{t[0]} {t[1]}, {t[2]}, {t[3]}"),
        st.tuples(st.sampled_from(SHIFT_I), _reg, _reg,
                  st.integers(0, 31)).map(
            lambda t: f"{t[0]} {t[1]}, {t[2]}, {t[3]}"),
        st.tuples(_reg, st.integers(-2 ** 20, 2 ** 20)).map(
            lambda t: f"li {t[0]}, {t[1]}"),
        st.tuples(_freg, _fimm).map(lambda t: f"fli {t[0]}, {t[1]}"),
        st.tuples(st.sampled_from(FP_RR), _freg, _freg, _freg).map(
            lambda t: f"{t[0]} {t[1]}, {t[2]}, {t[3]}"),
        st.tuples(st.sampled_from(FP_UN), _freg, _freg).map(
            lambda t: f"{t[0]} {t[1]}, {t[2]}"),
        st.tuples(st.sampled_from(FP_CMP), _reg, _freg, _freg).map(
            lambda t: f"{t[0]} {t[1]}, {t[2]}, {t[3]}"),
        st.tuples(_freg, _reg).map(lambda t: f"fcvt.s.w {t[0]}, {t[1]}"),
        st.tuples(_reg, _freg).map(lambda t: f"fcvt.w.s {t[0]}, {t[1]}"),
        st.tuples(st.sampled_from(("lw", "sw", "flw", "fsw")),
                  word_off).map(
            lambda t: f"{t[0]} {'ft0' if t[0][0] == 'f' else 't0'},"
                      f" {t[1]}(s0)"),
        st.tuples(st.sampled_from(("lb", "lbu", "sb")), _reg,
                  byte_off).map(
            lambda t: f"{t[0]} {t[1]}, {t[2]}(s0)"),
        st.tuples(st.sampled_from(("lw", "sw")), _reg, mem_off).map(
            lambda t: f"{t[0]} {t[1]}, {t[2]}(s0)"),
    )


@st.composite
def _bodies(draw, aligned_only=True):
    """A list of source lines: random straight-line ops plus forward
    conditional branches (labels always resolve later in the body)."""
    ops = draw(st.lists(_ops(aligned_only), min_size=3, max_size=24))
    branches = draw(st.lists(
        st.tuples(st.integers(0, max(0, len(ops) - 1)),
                  st.integers(1, 3), st.sampled_from(BRANCHES),
                  _reg, _reg),
        max_size=3))
    labels = {}  # insertion index -> [label names]
    lines = {}   # op index -> [branch lines before the op]
    for n, (pos, skip, op, r1, r2) in enumerate(branches):
        label = f"fwd_{n}"
        lines.setdefault(pos, []).append(f"{op} {r1}, {r2}, {label}")
        labels.setdefault(min(pos + skip, len(ops)), []).append(label)
    body = []
    for idx, op in enumerate(ops):
        body.extend(lines.get(idx, []))
        body.extend(f"{lab}:" for lab in labels.get(idx, []))
        body.append(op)
    body.extend(f"{lab}:" for lab in labels.get(len(ops), []))
    return body


def _program(body):
    words = ", ".join(["0"] * BUF_WORDS)
    text = "\n".join("    " + line if not line.endswith(":") else line
                     for line in body)
    return assemble(f"""
    .data
    buf: .word {words}
    .text
    main:
        la s0, buf
    body:
{text}
        li a7, 93
        ecall
    """)


def _arch(emu):
    return (emu.instret, emu.halted, emu.exit_code, list(emu.x),
            [v.hex() for v in emu.f], emu.memory.digest(),
            [v.hex() if isinstance(v, float) else v
             for v in emu.output])


# ---------------------------------------------------------------------------
# Functional layer: correct path and wrong path, compiled vs scalar.
# ---------------------------------------------------------------------------

class TestFunctionalEquivalence:
    def _produce_all(self, program, scalar, batch):
        from repro.functional.frontend import FunctionalFrontend
        fe = FunctionalFrontend(program)
        if scalar:
            fe.emulator.superblocks = _DudSuperblocks()
        stream = []
        while True:
            out = fe.produce_batch(batch)
            stream.extend((d.seq, d.pc, d.next_pc, d.taken, d.mem_addr)
                          for d in out)
            if len(out) < batch:
                break
        if not scalar:
            assert fe.superblock_instructions > 0
        return stream, _arch(fe.emulator)

    @settings(max_examples=40, deadline=None)
    @given(body=_bodies(), batch=st.integers(1, 48))
    def test_correct_path_matches_scalar(self, body, batch):
        program = _program(body)
        with _eager_thresholds():
            compiled = self._produce_all(program, False, batch)
        scalar = self._produce_all(program, True, batch)
        assert compiled == scalar

    @settings(max_examples=40, deadline=None)
    @given(body=_bodies(aligned_only=False), budget=st.integers(1, 40))
    def test_wrong_path_matches_scalar(self, body, budget):
        # Misaligned accesses allowed: a mid-block fault must leave the
        # same partial record stream as the scalar walk.
        program = _program(body)
        start = program.symbol("body")

        def walk(scalar):
            emu = Emulator(program)
            if scalar:
                emu.superblocks = _DudSuperblocks()
            emu.step()  # la s0, buf — so addresses are real
            records = emu.emulate_wrong_path(start, budget)
            return ([(r.instr.op, r.pc, r.mem_addr, r.next_pc)
                     for r in records], _arch(emu), emu.state.pc)

        with _eager_thresholds():
            compiled = walk(False)
        assert compiled == walk(True)


# ---------------------------------------------------------------------------
# Timing + stream layers: whole-simulation equivalence per technique.
# ---------------------------------------------------------------------------

CASES = (("gap.bfs", "conv"), ("gap.bfs", "wpemul"),
         ("spec.int.xz_like", "instrec"), ("spec.int.xz_like", "nowp"))


def _result_dict(sim):
    d = sim.run().to_dict()
    d.pop("wall_seconds")
    return d


@pytest.mark.parametrize("name,technique", CASES)
def test_simulation_matches_scalar_paths(name, technique):
    workload = build_workload(name, scale="tiny", check=False)

    def run():
        sim = Simulator(workload.program, config=CoreConfig.scaled(),
                        technique=technique, max_instructions=4000,
                        name=name)
        return _result_dict(sim), sim

    fast, fast_sim = run()
    assert fast_sim.frontend.superblock_instructions > 0
    assert fast_sim.core.timingblock_instructions > 0
    if technique != "nowp":
        assert fast_sim.core.streamblock_instructions > 0

    with _all_layers_scalar():
        slow, slow_sim = run()
    assert slow_sim.core.timingblock_instructions == 0
    assert slow_sim.core.streamblock_instructions == 0
    assert fast == slow


# ---------------------------------------------------------------------------
# Flattened cache fast path vs the per-access reference, per prefetcher.
# ---------------------------------------------------------------------------

#: Runs of strided accesses from a few pcs, so the stride prefetcher
#: trains and fires: (pc, first address, stride, length, write, wrong).
_ACCESS_RUNS = st.lists(st.tuples(
    st.sampled_from((0x1000, 0x1004, 0x1008)),
    st.integers(1 << 12, 1 << 18).map(lambda a: a & ~3),
    st.sampled_from((0, 4, 64, 192, -64)),
    st.integers(1, 8), st.booleans(), st.booleans()),
    min_size=1, max_size=16)


class TestCacheFastpathOracle:
    @pytest.mark.parametrize("prefetcher", [None, "next_line", "stride"])
    @settings(max_examples=40, deadline=None)
    @given(runs=_ACCESS_RUNS)
    def test_fastpath_matches_reference(self, prefetcher, runs):
        cfg = dataclasses.replace(CoreConfig.scaled(),
                                  l2_prefetcher=prefetcher)
        fast_h = CacheHierarchy.from_config(cfg)
        ref_h = CacheHierarchy.from_config(cfg)
        fast = fast_h.data_fastpath
        for pc, first, stride, length, write, wrong_path in runs:
            for k in range(length):
                addr = first + k * stride
                assert fast(addr, write, pc, wrong_path) == \
                    ref_h.access_data(addr, write, pc, wrong_path)
        assert fast_h.stats() == ref_h.stats()
        assert fast_h.state_dict() == ref_h.state_dict()


# ---------------------------------------------------------------------------
# CodeCache: compiled pc-maps must die with the pc mapping they mirror.
# ---------------------------------------------------------------------------

class TestCodeCacheCompiledMaps:
    def _warm_cache(self, technique="conv"):
        workload = build_workload("gap.bfs", scale="tiny", check=False)
        sim = Simulator(workload.program, config=CoreConfig.scaled(),
                        technique=technique, max_instructions=4000,
                        name="gap.bfs")
        sim.run()
        return sim, workload.program

    def test_insert_clears_compiled_maps(self):
        sim, program = self._warm_cache()
        cc = sim.core.code_cache
        assert cc._timing and cc._wpstream
        # A *new* pc (re-inserting a cached one is a no-op) shifts
        # block boundaries, so every pc-keyed compiled attachment must
        # be dropped.
        instr = next(ins for pc, ins in program.pc_index.items()
                     if pc not in cc._entries)
        cc.insert(instr)
        assert not cc._timing and not cc._wpstream

    def test_load_state_clears_compiled_maps_and_warmups(self):
        sim, program = self._warm_cache()
        cc = sim.core.code_cache
        assert cc._timing and cc._wpstream
        cc.load_state(cc.state_dict(), program.pc_index)
        assert not cc._timing and not cc._wpstream
        assert not cc._timing_warm and not cc._wpstream_warm

    def test_restored_cache_recompiles(self):
        # After a snapshot-style restore the compiled maps are empty but
        # the next run repopulates them from the artifact pools.
        sim, program = self._warm_cache()
        cc = sim.core.code_cache
        cc.load_state(cc.state_dict(), program.pc_index)
        sim2, _ = self._warm_cache()
        assert sim2.core.timingblock_instructions > 0


# ---------------------------------------------------------------------------
# Artifact sharing: pure compiled blocks are reused, never rebuilt.
# ---------------------------------------------------------------------------

class TestArtifactReuse:
    def test_shared_superblock_cache_is_per_program(self):
        program = _program(["addi t0, t0, 1", "addi t1, t1, 2"])
        emu1, emu2 = Emulator(program), Emulator(program)
        assert emu1.superblocks is emu2.superblocks
        other = _program(["addi t2, t2, 3"])
        assert Emulator(other).superblocks is not emu1.superblocks

    def test_timing_and_stream_pools_reused_across_simulators(self):
        workload = build_workload("gap.bfs", scale="tiny", check=False)

        def run():
            sim = Simulator(workload.program,
                            config=CoreConfig.scaled(),
                            technique="conv", max_instructions=4000,
                            name="gap.bfs")
            sim.run()
            return sim

        run()
        timing_pool = len(timingblock._POOL)
        stream_pool = len(streamblock._POOL)
        sim = run()
        # Same program + config: the second simulator compiles nothing
        # new, yet still runs through compiled blocks.
        assert len(timingblock._POOL) == timing_pool
        assert len(streamblock._POOL) == stream_pool
        assert sim.core.timingblock_instructions > 0
        assert sim.core.streamblock_instructions > 0

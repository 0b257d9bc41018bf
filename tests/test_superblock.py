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
  layers force-disabled, compared stat-for-stat via ``to_dict`` (one
  program puts a load into x0 on the wrong path, which the stream
  layer leaves to the scalar executor);
* the one warm gate: ``superblock.COMPILE_THRESHOLD`` alone keeps every
  layer cold or makes every layer compile on the first visit;
* the flattened data-cache fast path against the per-access
  reference implementation under every L2 prefetcher (latencies,
  counters, warm state);
* CodeCache invalidation of the compiled pc-maps on insert and
  snapshot restore;
* the one process-wide code pool: blocks compiled for one program are
  reused by fresh simulators and fresh programs, never served to a
  program whose blocks differ, and the pool stays within its bound.
"""

import contextlib
import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro import CoreConfig, Simulator
from repro.branch.predictors import BranchPredictorUnit
from repro.cache.hierarchy import CacheHierarchy
from repro.core import ooo, timingblock
from repro.frontend.code_cache import CodeCache
from repro.frontend.queue import RunaheadQueue, runahead_depth
from repro.functional import superblock
from repro.functional.emulator import Emulator
from repro.isa.assembler import assemble
from repro.simulator.simulation import (TECHNIQUES, SimulationResult,
                                        build_frontend)
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
    """Compile every block on first execution (the one warm gate)."""
    saved = superblock.COMPILE_THRESHOLD
    superblock.COMPILE_THRESHOLD = 1
    try:
        yield
    finally:
        superblock.COMPILE_THRESHOLD = saved


@contextlib.contextmanager
def _all_layers_scalar():
    """Force every layer's hot caller down its scalar reference path."""
    cache = superblock.SuperblockCache
    saved_correct = cache.compile_correct
    saved_wrong = cache.compile_wrongpath
    saved_stream = wp_base._compile_stream_block
    saved_timing = ooo.OoOCore._compile_timing
    cache.compile_correct = lambda self, pc: superblock.UNCOMPILABLE
    cache.compile_wrongpath = lambda self, pc: superblock.UNCOMPILABLE
    wp_base._compile_stream_block = lambda core, pc: ()
    ooo.OoOCore._compile_timing = lambda self, pc: ()
    try:
        yield
    finally:
        cache.compile_correct = saved_correct
        cache.compile_wrongpath = saved_wrong
        wp_base._compile_stream_block = saved_stream
        ooo.OoOCore._compile_timing = saved_timing


def _spy_compiles(monkeypatch) -> list:
    """Spy on the pool's ``compile()``: one ``(label, pool size)`` per
    real compile, the size taken before the new entry goes in."""
    calls = []

    def spy(source, label, mode):
        calls.append((label, len(superblock._POOL)))
        return compile(source, label, mode)

    monkeypatch.setattr(superblock, "compile", spy, raising=False)
    return calls


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
        # A load with no destination: only its address side effects.
        mem_off.map(lambda off: f"lw zero, {off}(s0)"),
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


#: A loop around a data-dependent branch whose fall-through block starts
#: with a load into x0, so mispredicts put ``lw zero`` on the wrong path.
_NODEST_LOOP = """
    .data
    buf: .word 1, 2, 3, 4
    .text
    main:
        la s0, buf
        li t0, 0
        li t1, 300
        li t2, 12345
    loop:
        li t3, 1103515245
        mul t2, t2, t3
        addi t2, t2, 12345
        srli t4, t2, 16
        andi t4, t4, 1
        beqz t4, skip
    nodest:
        lw zero, 4(s0)
        lw t5, 8(s0)
        add t6, t6, t5
    skip:
        addi t0, t0, 1
        blt t0, t1, loop
        li a7, 93
        ecall
"""


@pytest.mark.parametrize("technique", ("instrec", "conv", "wpemul"))
def test_wrong_path_load_without_destination(technique, monkeypatch):
    # The stream templates have no load without a destination register:
    # compile_stream declines such a block and the scalar executor
    # times it, bit-identically to a run with every layer scalar.
    program = assemble(_NODEST_LOOP)
    declined = []
    compile_stream = streamblock.compile_stream

    def spy(instrs, *args):
        entry = compile_stream(instrs, *args)
        if entry is None and instrs:
            declined.append(instrs[0].pc)
        return entry

    monkeypatch.setattr(streamblock, "compile_stream", spy)

    def run():
        sim = Simulator(program, config=CoreConfig.scaled(),
                        technique=technique, name="nodest")
        return _result_dict(sim), sim

    fast, fast_sim = run()
    assert program.symbol("nodest") in declined
    assert fast_sim.core.streamblock_instructions > 0
    assert fast_sim.core.stats.wp_loads > 0
    with _all_layers_scalar():
        slow, _ = run()
    assert fast == slow


# ---------------------------------------------------------------------------
# The one warm gate: superblock.COMPILE_THRESHOLD governs every layer.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("technique", ("conv", "wpemul"))
def test_one_threshold_gates_every_layer(technique, monkeypatch):
    workload = build_workload("gap.bfs", scale="tiny", check=False)

    def run(threshold):
        monkeypatch.setattr(superblock, "COMPILE_THRESHOLD", threshold)
        sim = Simulator(workload.program, config=CoreConfig.scaled(),
                        technique=technique, max_instructions=4000,
                        name="gap.bfs")
        return _result_dict(sim), sim

    default, _ = run(superblock.COMPILE_THRESHOLD)

    cold, sim = run(10 ** 9)
    assert sim.frontend.superblock_instructions == 0
    assert sim.core.timingblock_instructions == 0
    assert sim.core.streamblock_instructions == 0
    assert cold == default

    eager, sim = run(1)
    blocks = sim.frontend.emulator.superblocks
    cc = sim.core.code_cache
    # Compiled on the first visit: no pc ever waits in a warm count.
    assert not blocks._warm_correct and not blocks._warm_wrong
    assert not cc._timing_warm and not cc._wpstream_warm
    assert sim.frontend.superblock_instructions > 0
    assert sim.core.timingblock_instructions > 0
    assert sim.core.streamblock_instructions > 0
    if technique == "wpemul":
        assert blocks._wrong
    assert eager == default


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

    def _run_restored(self, program, image):
        """A conv run whose core starts on a code cache restored from
        ``image``, as snapshot restore builds it."""
        cfg = CoreConfig.scaled()
        code_cache = CodeCache()
        code_cache.load_state(image, program.pc_index)
        frontend = build_frontend(program, cfg, "conv")
        queue = RunaheadQueue(frontend.produce_batch,
                              depth=runahead_depth(cfg))
        hierarchy = CacheHierarchy.from_config(cfg)
        bpu = BranchPredictorUnit.from_config(cfg)
        core = ooo.OoOCore(cfg, hierarchy, bpu, TECHNIQUES["conv"](),
                           code_cache=code_cache, queue=queue)
        core.drain(queue, 4000)
        result = SimulationResult("gap.bfs", "conv", cfg, core.finalize(),
                                  hierarchy, bpu, frontend.output,
                                  frontend.emulator.exit_code, 0.0,
                                  frontend)
        return result.to_dict(), core

    def test_restored_cache_recompiles(self, monkeypatch):
        # A restored cache starts with empty compiled maps; a core run on
        # it re-attaches its timing and stream blocks from the
        # process-wide pool without compiling, and matches the scalar
        # reference run from the same image.
        sim, program = self._warm_cache()
        image = sim.core.code_cache.state_dict()
        # Blocks span the whole restored text from the first visit on,
        # so fill the pool with them once.
        self._run_restored(program, image)
        compiles = _spy_compiles(monkeypatch)
        fast, core = self._run_restored(program, image)
        assert core.timingblock_instructions > 0
        assert core.streamblock_instructions > 0
        assert compiles == []
        with _all_layers_scalar():
            slow, slow_core = self._run_restored(program, image)
        assert slow_core.timingblock_instructions == 0
        assert slow_core.streamblock_instructions == 0
        assert fast == slow


# ---------------------------------------------------------------------------
# The code pool: compiled block code is reused across simulators and
# programs, keyed by content, and bounded.
# ---------------------------------------------------------------------------

def _gap_bfs(technique, seed=1):
    """A fresh tiny gap.bfs program run to exit."""
    program = build_workload("gap.bfs", scale="tiny", seed=seed,
                             check=False).program
    sim = Simulator(program, config=CoreConfig.scaled(),
                    technique=technique, name="gap.bfs")
    return _result_dict(sim), sim


class TestArtifactReuse:
    def test_one_pool_for_every_layer(self):
        assert superblock._POOL is timingblock._POOL is streamblock._POOL

    def test_timing_and_stream_pools_reused_across_simulators(
            self, monkeypatch):
        workload = build_workload("gap.bfs", scale="tiny", check=False)

        def run():
            sim = Simulator(workload.program,
                            config=CoreConfig.scaled(),
                            technique="conv", max_instructions=4000,
                            name="gap.bfs")
            sim.run()
            return sim

        run()
        compiles = _spy_compiles(monkeypatch)
        sim = run()
        # Same program + config: the second simulator compiles nothing,
        # yet still runs through compiled blocks.
        assert compiles == []
        assert sim.core.timingblock_instructions > 0
        assert sim.core.streamblock_instructions > 0

    @pytest.mark.parametrize("technique,layers", (
        ("conv", {"<superblock", "<timingblock", "<streamblock",
                  "<wpitems"}),
        ("wpemul", {"<superblock", "<superblock-wp", "<timingblock",
                    "<streamblock"})), ids=("conv", "wpemul"))
    def test_second_program_compiles_nothing(self, technique, layers,
                                             monkeypatch):
        # Every layer's code outlives the Program it was compiled for:
        # a fresh build of the same workload renders and compiles
        # nothing, and simulates exactly as the first build did.
        monkeypatch.setattr(superblock, "_POOL", {})
        compiles = _spy_compiles(monkeypatch)
        first, _ = _gap_bfs(technique)
        assert {label.split(":")[0] for label, _ in compiles} == layers
        del compiles[:]
        second, sim = _gap_bfs(technique)
        assert compiles == []
        assert sim.frontend.superblock_instructions > 0
        assert second == first

    def test_signed_zero_immediates_get_their_own_code(self):
        # 0.0 == -0.0 and the two hash alike, but they render to
        # different literals: each program must store its own bits.
        def stored(value):
            from repro.functional.frontend import FunctionalFrontend
            program = _program([f"fli ft0, {value}", "fsw ft0, 0(s0)"])
            fe = FunctionalFrontend(program)
            while len(fe.produce_batch(16)) == 16:
                pass
            assert fe.superblock_instructions > 0
            return fe.emulator.memory.load_word(program.symbol("buf"))

        with _eager_thresholds():
            assert stored("0.0") == 0x00000000
            assert stored("-0.0") == 0x80000000

    @pytest.mark.parametrize("technique", ("conv", "wpemul"))
    def test_seeds_never_share_functional_code(self, technique,
                                               monkeypatch):
        # Seeds 1 and 2 of gap.bfs differ only in ten li immediates (data
        # addresses): back to back, each must simulate as it does alone
        # on an empty pool.
        alone = {}
        for seed in (1, 2):
            monkeypatch.setattr(superblock, "_POOL", {})
            alone[seed], _ = _gap_bfs(technique, seed)
        assert alone[1] != alone[2]
        monkeypatch.setattr(superblock, "_POOL", {})
        for seed in (1, 2):
            assert _gap_bfs(technique, seed)[0] == alone[seed]

    def test_eviction_drops_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(superblock, "_POOL", {})
        monkeypatch.setattr(superblock, "POOL_LIMIT", 3)
        rendered = []

        def fetch(key):
            def render():
                rendered.append(key)
                return "def run():\n    return %r\n" % key
            return superblock._compile_block(key, render, [], "<t>", {})

        for key in ("a", "b", "c"):
            fetch(key)
        assert fetch("a")() == "a"  # a hit: a is now the most recent
        assert rendered == ["a", "b", "c"]
        fetch("d")
        assert list(superblock._POOL) == ["c", "a", "d"]
        fetch("b")
        assert rendered == ["a", "b", "c", "d", "b"]
        assert list(superblock._POOL) == ["a", "d", "b"]

    def test_small_bound_holds_and_changes_nothing(self, monkeypatch):
        reference, _ = _gap_bfs("wpemul")
        limit = 16
        monkeypatch.setattr(superblock, "_POOL", {})
        monkeypatch.setattr(superblock, "POOL_LIMIT", limit)
        compiles = _spy_compiles(monkeypatch)
        bounded, _ = _gap_bfs("wpemul")
        assert len(compiles) > limit  # the run evicted
        assert max(size for _, size in compiles) <= limit
        assert len(superblock._POOL) == limit
        assert bounded == reference

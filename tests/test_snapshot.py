"""Tests for SimSnapshot capture/restore and the warm-state images.

The checkpointed sampler's correctness rests on two properties pinned
here: a snapshot serializes losslessly (``to_dict``/``from_dict``/
``digest`` round-trip), and restoring one into *fresh* components
reproduces the captured state exactly — architectural memory digest,
predictor tables, cache/TLB/prefetcher contents and the code cache.
"""

import pytest

from repro.branch.predictors import BranchPredictorUnit
from repro.cache.hierarchy import CacheHierarchy
from repro.core.config import CoreConfig
from repro.frontend.code_cache import CodeCache
from repro.functional.frontend import FunctionalFrontend
from repro.functional.memory import Memory
from repro.minicc import compile_to_program
from repro.simulator.snapshot import SimSnapshot

SOURCE = """
int table[512];
void main() {
    int seed = 9;
    for (int i = 0; i < 512; i += 1) {
        seed = seed * 1103515245 + 12345;
        table[i] = (seed >> 16) & 511;
    }
    int acc = 0;
    for (int i = 0; i < 512; i += 1) {
        if (table[table[i]] > 256) {
            acc += 1;
        }
    }
    print_int(acc);
}
"""


@pytest.fixture(scope="module")
def program():
    return compile_to_program(SOURCE)


def _make_components(cfg):
    hierarchy = CacheHierarchy.from_config(cfg)
    return hierarchy, BranchPredictorUnit.from_config(cfg), CodeCache()


def _warm_snapshot(program, count=4000):
    """Run the functional pass far enough to have non-trivial state in
    every component, then capture."""
    cfg = CoreConfig.scaled()
    frontend = FunctionalFrontend(program, Memory())
    hierarchy, bpu, code_cache = _make_components(cfg)
    line_shift = cfg.line_size.bit_length() - 1
    cur_line = -1
    for di in frontend.produce_batch(count):
        instr = di.instr
        code_cache.insert(instr)
        line = di.pc >> line_shift
        if line != cur_line:
            cur_line = line
            hierarchy.access_instr(di.pc)
        if instr.is_mem:
            hierarchy.access_data(di.mem_addr, instr.is_store, pc=di.pc)
        if instr.is_control:
            bpu.predict_and_update(instr, di.taken, di.next_pc)
    snap = SimSnapshot.capture(0, frontend, hierarchy, bpu, code_cache)
    return cfg, frontend, (hierarchy, bpu, code_cache), snap


class TestRoundTrip:
    def test_dict_round_trip_is_lossless(self, program):
        _, _, _, snap = _warm_snapshot(program)
        clone = SimSnapshot.from_dict(snap.to_dict())
        assert clone.to_dict() == snap.to_dict()
        assert clone.digest() == snap.digest()

    def test_schema_rejection(self, program):
        _, _, _, snap = _warm_snapshot(program)
        with pytest.raises(ValueError):
            SimSnapshot.from_dict(dict(snap.to_dict(), schema=99))

    def test_digest_is_state_sensitive(self, program):
        _, _, _, snap = _warm_snapshot(program, count=2000)
        _, _, _, later = _warm_snapshot(program, count=3000)
        assert snap.digest() != later.digest()


class TestRestore:
    def test_restore_reproduces_memory_exactly(self, program):
        _, source, _, snap = _warm_snapshot(program)
        fresh = FunctionalFrontend(program, Memory())
        snap.restore(fresh)
        emu = fresh.emulator
        assert emu.memory.digest() == source.emulator.memory.digest()
        assert emu.state.pc == source.emulator.state.pc
        assert list(emu.state.x) == list(source.emulator.state.x)
        assert emu.instret == source.emulator.instret
        assert fresh.instructions_produced == source.instructions_produced

    def test_restore_reproduces_warm_images_exactly(self, program):
        cfg, _, (hierarchy, bpu, code_cache), snap = _warm_snapshot(program)
        fresh_h, fresh_b, fresh_c = _make_components(cfg)
        fresh_fe = FunctionalFrontend(program, Memory())
        snap.restore(fresh_fe, hierarchy=fresh_h, bpu=fresh_b,
                     code_cache=fresh_c)
        assert fresh_h.state_dict() == hierarchy.state_dict()
        assert fresh_b.state_dict() == bpu.state_dict()
        assert fresh_c.state_dict() == code_cache.state_dict()

    def test_restored_frontend_continues_identically(self, program):
        """The decisive property: a restored frontend produces the exact
        same downstream instruction stream as the original."""
        _, source, _, snap = _warm_snapshot(program)
        fresh = FunctionalFrontend(program, Memory())
        snap.restore(fresh)
        for a, b in zip(source.produce_batch(500), fresh.produce_batch(500)):
            assert (a.seq, a.pc, a.next_pc, a.taken, a.mem_addr) == \
                   (b.seq, b.pc, b.next_pc, b.taken, b.mem_addr)

    def test_memory_digest_mismatch_raises(self, program):
        _, _, _, snap = _warm_snapshot(program)
        corrupt = SimSnapshot.from_dict(snap.to_dict())
        corrupt.memory_digest = "0" * 64
        fresh = FunctionalFrontend(program, Memory())
        with pytest.raises(ValueError, match="digest mismatch"):
            corrupt.restore(fresh)

    def test_wpemul_frontend_predictor_restored_in_lockstep(self, program):
        """A frontend built with a predictor copy (wpemul) gets it
        restored from the same image as the timing BPU."""
        cfg, _, _, snap = _warm_snapshot(program)
        _, copy_bpu, _ = _make_components(cfg)
        fresh = FunctionalFrontend(program, Memory(), predictor=copy_bpu)
        _, timing_bpu, _ = _make_components(cfg)
        snap.restore(fresh, bpu=timing_bpu)
        assert copy_bpu.state_dict() == timing_bpu.state_dict()
        assert copy_bpu.state_dict() == snap.bpu

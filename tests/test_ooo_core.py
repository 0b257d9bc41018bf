"""Unit tests for the out-of-order timing engine (no wrong-path model)."""

import pytest

from repro.branch.predictors import BranchPredictorUnit
from repro.cache.hierarchy import CacheHierarchy
from repro.core.config import CoreConfig
from repro.core.ooo import OoOCore
from repro.frontend.dyninstr import DynInstr
from repro.frontend.queue import RunaheadQueue
from repro.isa.instructions import Instruction
from repro.wrongpath.nowp import NoWrongPath


def make_core(cfg=None):
    cfg = cfg or CoreConfig()
    return OoOCore(cfg, CacheHierarchy.from_config(cfg),
                   BranchPredictorUnit(), NoWrongPath())


def di_for(seq, ins, pc, next_pc=None, taken=False, mem_addr=None):
    ins.pc = pc
    return DynInstr(seq, ins, pc, next_pc if next_pc is not None
                    else pc + 4, taken, mem_addr)


def run(core, dis):
    """Simulate the DynInstr list ``dis`` through a runahead queue."""
    pending = list(dis)

    def produce(n):
        batch = pending[:n]
        del pending[:n]
        return batch

    queue = RunaheadQueue(produce, depth=16)
    assert core.drain(queue) == len(dis)
    return core


def straightline(core, ops, base=0x1000, mem_addr=0x200000):
    """Feed a straight-line sequence of (op, rd, rs1, rs2) tuples."""
    dis = []
    for i, spec in enumerate(ops):
        op, rd, rs1, rs2 = spec
        ins = Instruction(op, rd=rd, rs1=rs1, rs2=rs2, imm=0)
        addr = mem_addr if ins.is_mem else None
        dis.append(di_for(i, ins, base + 4 * i, mem_addr=addr))
    return run(core, dis).finalize()


class TestBasicPipeline:
    def test_counts_instructions_and_cycles(self):
        core = make_core()
        stats = straightline(core, [("add", 1, 2, 3)] * 10)
        assert stats.instructions == 10
        assert stats.cycles > 0

    def test_independent_instructions_overlap(self):
        cfg = CoreConfig()
        dependent = make_core(cfg)
        # Chain: each instruction reads the previous result.
        chain = straightline(dependent, [("add", 1, 1, 1)] * 64)
        independent = make_core(cfg)
        par = straightline(independent,
                           [("add", (i % 8) + 1, 9, 10)
                            for i in range(64)])
        assert par.cycles < chain.cycles

    def test_load_latency_on_critical_path(self):
        cfg = CoreConfig()
        hits = make_core(cfg)
        # Same address: first access misses, rest hit.
        seq = [("lw", 1, 2, 0), ("add", 3, 1, 1)] * 20
        hit_stats = straightline(hits, seq, mem_addr=0x40)
        # New line every time: every load misses all the way to memory.
        dis = []
        for i in range(20):
            ins = Instruction("lw", rd=1, rs1=2, imm=0)
            core_addr = 0x100000 + i * 4096
            dis.append(di_for(2 * i, ins, 0x1000 + 8 * i,
                              mem_addr=core_addr))
            add = Instruction("add", rd=3, rs1=1, rs2=1)
            dis.append(di_for(2 * i + 1, add, 0x1004 + 8 * i))
        cold_stats = run(make_core(cfg), dis).finalize()
        assert cold_stats.cycles > hit_stats.cycles

    def test_div_slower_than_add(self):
        adds = straightline(make_core(), [("add", 1, 1, 2)] * 32)
        divs = straightline(make_core(), [("div", 1, 1, 2)] * 32)
        assert divs.cycles > adds.cycles

    def test_store_then_load_forwards(self):
        store = Instruction("sw", rs1=2, rs2=3, imm=0)
        load = Instruction("lw", rd=4, rs1=2, imm=0)
        stats = run(make_core(), [
            di_for(0, store, 0x1000, mem_addr=0x300000),
            di_for(1, load, 0x1004, mem_addr=0x300000)]).finalize()
        assert stats.store_forwards == 1

    def test_rob_limits_inflight(self):
        cfg = CoreConfig(rob_size=4, load_queue=4, store_queue=4)
        small = straightline(make_core(cfg), [("add", 1, 2, 3)] * 100)
        big = straightline(make_core(), [("add", 1, 2, 3)] * 100)
        assert small.cycles >= big.cycles


class TestBranches:
    def run_branch_loop(self, iterations, taken_pattern, cfg=None):
        """A single static branch executed many times."""
        target = 0x2000
        dis = []
        for i in range(iterations):
            ins = Instruction("beq", rs1=1, rs2=2, target=target)
            taken = taken_pattern(i)
            next_pc = target if taken else 0x1004
            dis.append(di_for(i, ins, 0x1000, next_pc=next_pc,
                              taken=taken))
        return run(make_core(cfg), dis)

    def test_predictable_branch_trains(self):
        core = self.run_branch_loop(200, lambda i: True)
        assert core.bpu.cond_mispredicts <= 3

    def test_random_branch_mispredicts(self):
        import random
        rng = random.Random(3)
        core = self.run_branch_loop(200, lambda i: rng.random() < 0.5)
        assert core.stats.mispredict_windows > 20

    def test_mispredicts_cost_cycles(self):
        import random
        good = self.run_branch_loop(300, lambda i: True)
        good_stats = good.finalize()
        rng = random.Random(11)  # random directions defeat any predictor
        bad = self.run_branch_loop(300, lambda i: rng.random() < 0.5)
        bad_stats = bad.finalize()
        assert bad_stats.cycles > good_stats.cycles

    def test_syscall_counted(self):
        ins = Instruction("ecall")
        core = run(make_core(), [di_for(0, ins, 0x1000)])
        assert core.finalize().syscalls == 1


class TestICache:
    def test_icache_misses_slow_fetch(self):
        cfg = CoreConfig()
        near = make_core(cfg)
        # 512 instructions in a tight footprint.
        stats_near = straightline(near, [("add", 1, 2, 3)] * 512)
        far = run(make_core(cfg), [  # one I-cache line per instruction
            di_for(i, Instruction("add", rd=1, rs1=2, rs2=3),
                   0x1000 + i * 4096)
            for i in range(512)])
        stats_far = far.finalize()
        assert stats_far.cycles > stats_near.cycles
        assert far.hierarchy.l1i.stats.misses > \
            near.hierarchy.l1i.stats.misses

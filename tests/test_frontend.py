"""Unit tests for DynInstr, the runahead queue and the code cache."""

import pytest

from repro.frontend.code_cache import CodeCache
from repro.frontend.dyninstr import DynInstr
from repro.frontend.queue import RunaheadQueue
from repro.isa.instructions import Instruction


def make_di(seq, pc=0x1000, op="add", next_pc=None, taken=False):
    ins = Instruction(op, rd=1, rs1=2, rs2=3)
    ins.pc = pc
    return DynInstr(seq, ins, pc, next_pc if next_pc is not None
                    else pc + 4, taken, None)


class TestDynInstr:
    def test_taken_control_detection(self):
        di = make_di(0, pc=0x1000, next_pc=0x1004)
        assert not di.is_taken_control
        di = make_di(0, pc=0x1000, next_pc=0x2000)
        assert di.is_taken_control


class TestRunaheadQueue:
    def make_producer(self, count):
        items = [make_di(i) for i in range(count)]
        pending = list(items)

        def produce(n):
            batch = pending[:n]
            del pending[:n]
            return batch
        return produce, items

    @staticmethod
    def consume(queue, n):
        """Take the next ``n`` prepared instructions the way the timing
        model's batch loop does: read ``_buf`` and advance ``_head``."""
        head = queue._head
        taken = queue._buf[head:head + n]
        queue._head = head + len(taken)
        return taken

    def test_pop_in_order(self):
        producer, items = self.make_producer(5)
        queue = RunaheadQueue(producer, depth=3)
        got = []
        while queue.prepare():
            got += self.consume(queue, 2)
        assert [d.seq for d in got] == [0, 1, 2, 3, 4]
        assert queue.prepare() == 0

    def test_window_does_not_consume(self):
        producer, _ = self.make_producer(10)
        queue = RunaheadQueue(producer, depth=4)
        window = queue.window(3)
        assert [d.seq for d in window] == [0, 1, 2]
        queue.prepare()
        assert self.consume(queue, 1)[0].seq == 0

    def test_window_larger_than_remaining(self):
        producer, _ = self.make_producer(3)
        queue = RunaheadQueue(producer, depth=8)
        assert len(queue.window(10)) == 3

    def test_window_extends_beyond_depth(self):
        producer, _ = self.make_producer(100)
        queue = RunaheadQueue(producer, depth=4)
        assert len(queue.window(50)) == 50

    def test_exhausted_flag(self):
        producer, _ = self.make_producer(2)
        queue = RunaheadQueue(producer, depth=4)
        assert not queue.exhausted
        assert queue.prepare() == 2
        assert not queue.exhausted      # producer dry, buffer not
        self.consume(queue, 2)
        assert queue.prepare() == 0
        assert queue.exhausted

    def test_max_occupancy_tracked(self):
        producer, _ = self.make_producer(10)
        queue = RunaheadQueue(producer, depth=6)
        queue.prepare()
        self.consume(queue, 1)
        assert queue.max_occupancy >= 6

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            RunaheadQueue(lambda n: [], depth=0)


class TestCodeCache:
    def instr_at(self, pc):
        ins = Instruction("add", rd=1, rs1=2, rs2=3)
        ins.pc = pc
        return ins

    def test_insert_lookup(self):
        cache = CodeCache()
        ins = self.instr_at(0x1000)
        cache.insert(ins)
        assert cache.lookup(0x1000) is ins
        assert 0x1000 in cache

    def test_miss_returns_none_and_counts(self):
        cache = CodeCache()
        assert cache.lookup(0x2000) is None
        assert cache.misses == 1 and cache.lookups == 1

    def test_duplicate_insert_is_noop(self):
        cache = CodeCache()
        cache.insert(self.instr_at(0x1000))
        cache.insert(self.instr_at(0x1000))
        assert len(cache) == 1

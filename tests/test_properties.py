"""Property-based tests (hypothesis) on core data structures and
invariants."""

from hypothesis import given, settings, strategies as st

from repro.branch.predictors import (BimodalPredictor, GSharePredictor,
                                     ReturnAddressStack)
from repro.cache.cache import Cache, MainMemory
from repro.core.resources import SlotAllocator, WindowBuffer
from repro.frontend.queue import RunaheadQueue
from repro.functional.memory import Memory
from repro.isa.assembler import bits_to_float, float_to_bits

addresses = st.integers(min_value=0, max_value=0xFFFF_FFFF)
word_addresses = addresses.map(lambda a: a & ~3)
words = st.integers(min_value=0, max_value=0xFFFF_FFFF)


class TestMemoryProperties:
    @given(st.lists(st.tuples(word_addresses, words), max_size=60))
    def test_last_write_wins(self, writes):
        mem = Memory()
        last = {}
        for addr, value in writes:
            mem.store_word(addr, value)
            last[addr] = value
        for addr, value in last.items():
            assert mem.load_word(addr) == value

    @given(word_addresses, words)
    def test_byte_decomposition_matches_word(self, addr, value):
        mem = Memory()
        mem.store_word(addr, value)
        recomposed = sum(mem.load_byte(addr + i) << (8 * i)
                         for i in range(4))
        assert recomposed == value

    @given(word_addresses, st.lists(words, min_size=1, max_size=16))
    def test_bulk_roundtrip(self, addr, values):
        if addr + 4 * len(values) > 0xFFFF_FFFF:
            addr = 0
        mem = Memory()
        mem.write_words(addr, values)
        assert mem.read_words(addr, len(values)) == values


class TestCacheProperties:
    @given(st.lists(st.integers(min_value=0, max_value=1 << 14),
                    min_size=1, max_size=200))
    def test_occupancy_bounded_and_recent_resident(self, trace):
        cache = Cache("c", size=1024, assoc=2, line_size=64, latency=1,
                      parent=MainMemory(10))
        for addr in trace:
            cache.access(addr)
        assert cache.occupancy <= 16  # 1024/64
        assert cache.contains(trace[-1])

    @given(st.lists(st.integers(min_value=0, max_value=1 << 14),
                    min_size=1, max_size=200),
           st.lists(st.booleans(), min_size=1, max_size=200))
    def test_hits_plus_misses_equals_accesses(self, trace, is_write):
        cache = Cache("c", size=512, assoc=4, line_size=64, latency=1,
                      parent=MainMemory(10))
        for addr, write in zip(trace, is_write):
            cache.access(addr, write=write)
        stats = cache.stats
        assert stats.misses <= stats.accesses
        assert stats.accesses == min(len(trace), len(is_write))

    @given(st.lists(st.integers(min_value=0, max_value=1 << 12),
                    min_size=1, max_size=100))
    def test_immediate_rehit(self, trace):
        cache = Cache("c", size=2048, assoc=2, line_size=64, latency=3,
                      parent=MainMemory(50))
        for addr in trace:
            cache.access(addr)
            assert cache.access(addr) == 3  # re-access is always a hit


class TestPredictorProperties:
    @given(st.lists(st.tuples(
        st.integers(min_value=0, max_value=0xFFFF).map(lambda p: p * 4),
        st.booleans()), max_size=300))
    def test_bimodal_never_crashes_and_counters_saturate(self, trace):
        predictor = BimodalPredictor(table_bits=6)
        for pc, taken in trace:
            predictor.predict(pc)
            predictor.update(pc, taken)
        assert all(0 <= c <= 3 for c in predictor.table)

    @given(st.lists(st.tuples(
        st.integers(min_value=0, max_value=0xFFFF).map(lambda p: p * 4),
        st.booleans()), max_size=300))
    def test_gshare_history_bounded(self, trace):
        predictor = GSharePredictor(table_bits=8, history_bits=6)
        for pc, taken in trace:
            predictor.update(pc, taken)
        assert 0 <= predictor.history < (1 << 6)

    @given(st.lists(st.integers(min_value=0, max_value=2 ** 30),
                    max_size=64),
           st.integers(min_value=1, max_value=8))
    def test_ras_is_bounded_lifo_suffix(self, pushes, depth):
        ras = ReturnAddressStack(depth=depth)
        for addr in pushes:
            ras.push(addr)
        expected = pushes[-depth:]
        popped = []
        while True:
            value = ras.pop()
            if value is None:
                break
            popped.append(value)
        assert popped == list(reversed(expected))


class TestResourceProperties:
    @given(st.lists(st.integers(min_value=0, max_value=1000),
                    min_size=1, max_size=200),
           st.integers(min_value=1, max_value=8))
    def test_slot_allocator_monotonic_and_bounded(self, requests, width):
        alloc = SlotAllocator(width)
        grants = [alloc.allocate(at) for at in requests]
        # Monotonic and never earlier than requested.
        for request, grant in zip(requests, grants):
            assert grant >= request
        assert grants == sorted(grants)
        # Bandwidth: no cycle appears more than `width` times.
        from collections import Counter
        assert max(Counter(grants).values()) <= width

    @given(st.lists(st.integers(min_value=0, max_value=100),
                    min_size=1, max_size=100),
           st.integers(min_value=1, max_value=8))
    def test_window_buffer_never_exceeds_capacity(self, releases, cap):
        window = WindowBuffer(cap)
        time = 0
        for extra in releases:
            time = window.allocate(time)
            window.commit(time + extra + 1)
            assert len(window) <= cap

    @given(st.lists(st.integers(min_value=0, max_value=50),
                    min_size=0, max_size=120),
           st.lists(st.integers(min_value=0, max_value=2000),
                    min_size=1, max_size=30))
    def test_occupancy_at_matches_linear_scan(self, deltas, queries):
        """``occupancy_at`` finds the released prefix by binary search;
        a brute-force scan over the release list is the reference."""
        window = WindowBuffer(max(len(deltas), 1))
        release_cycles = []
        cycle = 0
        for delta in deltas:   # releases are committed FIFO-ordered
            cycle += delta
            window.commit(cycle)
            release_cycles.append(cycle)
        for query in queries:
            expected = sum(1 for r in release_cycles if r > query)
            assert window.occupancy_at(query) == expected


def _dyn_items(count):
    """``count`` straight-line DynInstrs with seq 0..count-1."""
    from repro.frontend.dyninstr import DynInstr
    from repro.isa.instructions import Instruction
    out = []
    for i in range(count):
        ins = Instruction("add", rd=1, rs1=2, rs2=3)
        ins.pc = 0x1000 + 4 * i
        out.append(DynInstr(i, ins, ins.pc, ins.pc + 4, False, None))
    return out


def _taker(items):
    """A queue producer (``n -> list``) handing out ``items`` in order."""
    def take(n):
        out = items[:n]
        del items[:n]
        return out
    return take


class TestQueueProperties:
    @given(st.integers(min_value=0, max_value=200),
           st.integers(min_value=1, max_value=64),
           st.integers(min_value=0, max_value=32),
           st.integers(min_value=1, max_value=70))
    def test_window_prefix_of_pops(self, count, depth, peek, grab):
        """A peek is a prefix of what the consumer then takes from the
        head, in ``grab``-sized steps after each ``prepare``."""
        queue = RunaheadQueue(_taker(_dyn_items(count)), depth=depth)
        window = [d.seq for d in queue.window(peek)]
        pops = []
        while queue.prepare():
            take = queue._buf[:grab]
            pops.extend(d.seq for d in take)
            queue._head = len(take)
        assert pops == list(range(count))
        assert window == pops[:len(window)]
        assert queue.exhausted

    @given(st.integers(min_value=0, max_value=150),
           st.integers(min_value=1, max_value=32),
           st.lists(st.integers(min_value=0, max_value=40),
                    min_size=1, max_size=30))
    def test_prepare_and_batch_consumption_match_naive_fifo(
            self, count, depth, takes):
        """The batched-consumer contract (prepare, then walk ``_buf``
        and advance ``_head``, exactly as ``OoOCore.process_batch``
        does) consumes the producer's stream in FIFO order, and
        ``prepare`` always refills to depth or runs the producer dry."""
        queue = RunaheadQueue(_taker(_dyn_items(count)), depth=depth)
        reference = list(range(count))
        consumed = []
        for want in takes:
            available = queue.prepare()
            assert queue._head == 0          # compacted
            assert available == len(queue)
            # prepare refills to at least depth (a prior window() peek
            # may have filled deeper) or runs the producer dry.
            remaining_total = count - len(consumed)
            assert min(depth, remaining_total) <= available \
                <= remaining_total
            grab = min(want, available)
            for i in range(grab):
                consumed.append(queue._buf[queue._head + i].seq)
            queue._head += grab
            # Mid-stream peeks stay coherent with what comes next.
            peek = [d.seq for d in queue.window(5)]
            assert peek == \
                reference[len(consumed):len(consumed) + len(peek)]
        assert consumed == reference[:len(consumed)]


class TestFloatBitsProperties:
    @given(st.floats(min_value=-1e30, max_value=1e30,
                     allow_nan=False, allow_infinity=False))
    def test_float_bits_roundtrip_is_f32_identity(self, value):
        once = bits_to_float(float_to_bits(value))
        twice = bits_to_float(float_to_bits(once))
        assert once == twice  # idempotent after first f32 rounding


@settings(deadline=None, max_examples=20)
@given(st.lists(st.sampled_from(
    ["add t0, t1, t2", "sub t3, t4, t5", "mul s2, s3, s4",
     "lw a0, 0(sp)", "sw a1, 4(sp)", "nop", "li t6, 42"]),
    min_size=1, max_size=40))
def test_assembler_layout_property(lines):
    """Any straight-line program lays out densely from the text base with
    pcs increasing by 4."""
    from repro.isa.assembler import assemble
    program = assemble("\n".join(lines))
    assert len(program) == len(lines)
    pcs = [ins.pc for ins in program.instructions]
    assert pcs == list(range(program.text_base,
                             program.text_base + 4 * len(lines), 4))

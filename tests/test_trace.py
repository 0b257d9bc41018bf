"""Tests for the trace-based functional frontend."""

import pytest

from repro import CoreConfig, simulate
from repro.functional.trace import (InstructionTrace, TraceError,
                                    TraceFrontend, simulate_trace)
from repro.minicc import compile_to_program

SOURCE = """
int data[512];
void main() {
    int acc = 0;
    for (int i = 0; i < 512; i += 1) {
        data[i] = (i * 37) % 97;
    }
    for (int i = 0; i < 512; i += 1) {
        if (data[i] % 5 == 0) {
            acc += data[i];
        }
    }
    print_int(acc);
}
"""


@pytest.fixture(scope="module")
def program():
    return compile_to_program(SOURCE)


@pytest.fixture(scope="module")
def trace(program):
    return InstructionTrace.record(program)


class TestRecording:
    def test_records_full_run(self, trace):
        assert len(trace) > 5000
        # The last record must be the exit ecall.
        last_pc = trace.records[-1][0]
        assert trace.program.instruction_at(last_pc).is_syscall

    def test_records_memory_addresses(self, trace):
        mem_records = [r for r in trace.records if r[3] is not None]
        assert len(mem_records) > 500

    def test_nonterminating_program_rejected(self):
        looping = compile_to_program(
            "void main() { while (1) { } }")
        with pytest.raises(TraceError):
            InstructionTrace.record(looping, max_instructions=1000)


class TestReplay:
    def test_replay_matches_live_stream(self, program, trace):
        from repro.functional.frontend import FunctionalFrontend
        live = FunctionalFrontend(program).produce_batch(len(trace) + 1)
        replay = TraceFrontend(trace)
        # Uneven batches: the cursor must carry across refills.
        got = replay.produce_batch(7) + replay.produce_batch(len(trace))
        assert [(a.seq, a.pc, a.next_pc, a.taken, a.mem_addr)
                for a in live] == \
            [(b.seq, b.pc, b.next_pc, b.taken, b.mem_addr) for b in got]
        assert replay.produce_batch(1) == []

    def test_rewind(self, trace):
        frontend = TraceFrontend(trace)
        first, _ = frontend.produce_batch(2)
        frontend.rewind()
        again, = frontend.produce_batch(1)
        assert again.pc == first.pc and again.seq == 0

    def test_mismatched_program_detected(self, trace):
        other = compile_to_program("void main() { print_int(1); }")
        bad = InstructionTrace(other, trace.records)
        frontend = TraceFrontend(bad)
        with pytest.raises(TraceError):
            frontend.produce_batch(len(bad))


class TestSerialization:
    def test_save_load_roundtrip(self, trace, tmp_path):
        path = str(tmp_path / "kernel.trace")
        trace.save(path)
        loaded = InstructionTrace.load(path, trace.program)
        assert loaded.records == trace.records

    def test_bad_magic(self, tmp_path, program):
        path = tmp_path / "junk.trace"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(TraceError):
            InstructionTrace.load(str(path), program)

    def test_truncated_file(self, trace, tmp_path, program):
        path = tmp_path / "cut.trace"
        full = tmp_path / "full.trace"
        trace.save(str(full))
        path.write_bytes(full.read_bytes()[:-7])
        with pytest.raises(TraceError):
            InstructionTrace.load(str(path), program)


class TestTraceSimulation:
    def test_trace_timing_matches_live(self, program, trace):
        """A trace replay must produce exactly the live frontend's timing
        for the techniques it supports."""
        config = CoreConfig.scaled()
        for technique in ("nowp", "instrec", "conv"):
            live = simulate(program, technique=technique, config=config)
            traced = simulate_trace(trace, technique=technique,
                                    config=config)
            assert traced.cycles == live.cycles, technique
            assert traced.stats.wp_fetched == live.stats.wp_fetched

    def test_wpemul_rejected_on_trace(self, trace):
        """The paper's flexibility caveat: 'a trace frontend cannot
        implement this, because the trace only contains correct-path
        instructions'."""
        with pytest.raises(TraceError, match="correct-path"):
            simulate_trace(trace, technique="wpemul",
                           config=CoreConfig.scaled())

    def test_unknown_technique(self, trace):
        with pytest.raises(ValueError):
            simulate_trace(trace, technique="psychic")

    def test_max_instructions(self, trace):
        result = simulate_trace(trace, technique="nowp",
                                config=CoreConfig.scaled(),
                                max_instructions=100)
        assert result.instructions == 100

"""Tests for the multicore (shared-LLC) extension."""

import pytest

from repro import CoreConfig, Simulator
from repro.minicc import compile_to_program
from repro.multicore import MulticoreSimulator

POINTER_KERNEL = """
int table[4096];
void main() {
    int seed = %d;
    for (int i = 0; i < 4096; i += 1) {
        seed = seed * 1103515245 + 12345;
        table[i] = (seed >> 16) & 4095;
    }
    int acc = 0;
    for (int i = 0; i < 4096; i += 1) {
        if (table[table[i]] > 2048) {
            acc += 1;
        }
    }
    print_int(acc);
}
"""

STREAM_KERNEL = """
int big[16384];
void main() {
    int acc = 0;
    for (int rep = 0; rep < 3; rep += 1) {
        for (int i = 0; i < 16384; i += 1) {
            acc += big[i];
            big[i] = acc;
        }
    }
    print_int(acc);
}
"""


@pytest.fixture(scope="module")
def pointer_program():
    return compile_to_program(POINTER_KERNEL % 77)


@pytest.fixture(scope="module")
def stream_program():
    return compile_to_program(STREAM_KERNEL)


class TestBasics:
    def test_rejects_empty_and_bad_technique(self, pointer_program):
        with pytest.raises(ValueError):
            MulticoreSimulator([])
        with pytest.raises(ValueError):
            MulticoreSimulator([pointer_program], technique="magic")

    def test_two_cores_complete_with_correct_outputs(self,
                                                     pointer_program):
        single = Simulator(pointer_program,
                           config=CoreConfig.scaled()).run()
        result = MulticoreSimulator(
            [pointer_program, pointer_program],
            config=CoreConfig.scaled(), technique="nowp").run()
        assert result.num_cores == 2
        assert result.outputs[0] == single.output
        assert result.outputs[1] == single.output
        for stats in result.core_stats:
            assert stats.instructions == single.instructions

    def test_single_core_matches_simulator(self, pointer_program):
        """With one core the multicore model degenerates to the
        single-core Simulator exactly."""
        cfg = CoreConfig.scaled()
        single = Simulator(pointer_program, config=cfg,
                           technique="conv").run()
        multi = MulticoreSimulator([pointer_program], config=cfg,
                                   technique="conv").run()
        assert multi.core_stats[0].cycles == single.cycles
        assert multi.core_stats[0].wp_fetched == single.stats.wp_fetched

    def test_max_instructions_per_core(self, pointer_program):
        for cap in (2000, 0):
            result = MulticoreSimulator(
                [pointer_program, pointer_program],
                config=CoreConfig.scaled(), technique="nowp",
                max_instructions_per_core=cap).run()
            for stats in result.core_stats:
                assert stats.instructions == cap, cap


class TestInterference:
    def test_corunner_degrades_ipc(self, pointer_program,
                                   stream_program):
        """A streaming neighbour thrashing the shared LLC must slow the
        pointer-chasing core relative to running alone."""
        cfg = CoreConfig.scaled()
        alone = MulticoreSimulator([pointer_program], config=cfg,
                                   technique="nowp").run()
        together = MulticoreSimulator([pointer_program, stream_program],
                                      config=cfg, technique="nowp").run()
        assert together.ipc(0) < alone.ipc(0)

    def test_wrong_path_reaches_shared_llc(self, pointer_program):
        """With wpemul, wrong-path fills show up in the shared LLC — the
        cross-core interference channel Sendag et al. studied."""
        cfg = CoreConfig.scaled()
        result = MulticoreSimulator(
            [pointer_program, pointer_program], config=cfg,
            technique="wpemul").run()
        assert result.llc_stats.wp_accesses > 0
        assert 0.0 <= result.llc_wp_miss_fraction <= 1.0

    def test_wp_modeling_changes_multicore_timing(self, pointer_program):
        cfg = CoreConfig.scaled()
        programs = [pointer_program, pointer_program]
        nowp = MulticoreSimulator(programs, config=cfg,
                                  technique="nowp").run()
        emul = MulticoreSimulator(programs, config=cfg,
                                  technique="wpemul").run()
        assert nowp.aggregate_ipc != emul.aggregate_ipc
        # The paper's sign: not modeling the wrong path underestimates.
        assert nowp.aggregate_ipc < emul.aggregate_ipc

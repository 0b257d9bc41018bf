"""End-to-end determinism goldens.

The hot-path optimizations (batch pipeline, memoized code-cache blocks,
flat instruction handlers, inlined port issue) are only admissible if
they are *bit-identical* rewrites: every statistic the simulator reports
must match what the unoptimized reference produced.  This test pins the
full :meth:`SimulationResult.to_dict` payload — cycles, IPC, cache and
predictor stats, wrong-path accounting — for two representative
workloads under all four techniques against committed SHA-256 digests.
It pins the two other drivers of the same timing model the same way: a
2-core shared-LLC :class:`MulticoreSimulator` run (per-core counters,
shared-LLC stats, outputs) and trace replay through
:func:`simulate_trace`.

Beside the digests, ``tests/data/jit_counts_golden.json`` pins how many
instructions each compiled block layer ran in the single-core runs
(``superblock_instructions``, ``timingblock_instructions``,
``streamblock_instructions``).  Compiled and scalar execution give the
same digests, so only these counts show that every layer stayed
engaged, and that a change kept each layer's compile decisions.  A
change meant to move those decisions (the warm-gate value, say)
re-records the counts in the same commit.

If an intentional modeling change alters these numbers, regenerate the
digests (see ``tests/data/determinism_golden.json``) in the same commit
and say why in the commit message; an *unintentional* mismatch here
means a performance change broke simulation semantics.
"""

import hashlib
import json
import os

import pytest

from repro.core.config import CoreConfig
from repro.functional.trace import InstructionTrace, simulate_trace
from repro.multicore import MulticoreSimulator
from repro.simulator.simulation import ALL_TECHNIQUES, Simulator
from repro.workloads import build_workload

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "determinism_golden.json")
JIT_COUNTS_PATH = os.path.join(os.path.dirname(__file__), "data",
                               "jit_counts_golden.json")
WORKLOADS = ("gap.bfs", "spec.int.xz_like")
MAX_INSTRUCTIONS = 30000
MULTICORE_WORKLOADS = ("gap.bfs", "spec.int.hashjoin_like")
MULTICORE_TECHNIQUES = ("nowp", "conv", "wpemul")
TRACE_WORKLOAD = "gap.bfs"
TRACE_TECHNIQUES = ("nowp", "instrec", "conv")
MULTICORE_KEY = "multicore/" + "+".join(MULTICORE_WORKLOADS)
TRACE_KEY = "trace/" + TRACE_WORKLOAD


def _digest(result_dict: dict) -> str:
    result_dict = dict(result_dict)
    result_dict.pop("wall_seconds")  # host timing is not deterministic
    blob = json.dumps(result_dict, sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.fixture(scope="module")
def goldens():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def jit_counts():
    with open(JIT_COUNTS_PATH) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def programs():
    return {name: build_workload(name, scale="small", check=False)
            for name in WORKLOADS + MULTICORE_WORKLOADS}


@pytest.fixture(scope="module")
def single_core(programs):
    """Each single-core cell, simulated once: ``key -> (digest, JIT
    counts)``, shared by the digest and JIT-count tests."""
    runs = {}

    def run(workload, technique):
        key = f"{workload}/{technique}"
        if key not in runs:
            wl = programs[workload]
            sim = Simulator(wl.program, technique=technique,
                            max_instructions=MAX_INSTRUCTIONS,
                            name=wl.name)
            result = sim.run()
            runs[key] = (_digest(result.to_dict()), {
                "superblock_instructions":
                    sim.frontend.superblock_instructions,
                "timingblock_instructions":
                    sim.core.timingblock_instructions,
                "streamblock_instructions":
                    sim.core.streamblock_instructions,
            })
        return runs[key]

    return run


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("technique", ALL_TECHNIQUES)
def test_simulation_matches_golden_digest(workload, technique, goldens,
                                          single_core):
    key = f"{workload}/{technique}"
    assert key in goldens, f"no committed digest for {key}"
    assert single_core(workload, technique)[0] == goldens[key], (
        f"{key}: simulation output diverged from the committed golden — "
        "a hot-path change altered observable semantics")


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("technique", ALL_TECHNIQUES)
def test_jit_counts_match_golden(workload, technique, jit_counts,
                                 single_core):
    """Exact per-layer compiled-instruction counts: a layer that stops
    compiling, wholly or in part, or compiles on a different visit,
    moves them even though the digest stays put."""
    key = f"{workload}/{technique}"
    assert key in jit_counts, f"no pinned JIT counts for {key}"
    assert single_core(workload, technique)[1] == jit_counts[key], (
        f"{key}: a compiled block layer ran a different number of "
        "instructions than the pinned count")


@pytest.mark.parametrize("technique", MULTICORE_TECHNIQUES)
def test_multicore_matches_golden_digest(technique, goldens, programs):
    """Two cores over one shared LLC: the scaled config's small LLC makes
    each core's (wrong-path) fills visible in the other's numbers."""
    key = f"{MULTICORE_KEY}/{technique}"
    assert key in goldens, f"no committed digest for {key}"
    result = MulticoreSimulator(
        [programs[name].program for name in MULTICORE_WORKLOADS],
        config=CoreConfig.scaled(), technique=technique,
        max_instructions_per_core=MAX_INSTRUCTIONS).run()
    digest = _digest({
        "wall_seconds": result.wall_seconds,
        "cores": [stats.counters() for stats in result.core_stats],
        "llc": result.llc_stats.as_dict(),
        "memory_accesses": result.memory_accesses,
        "outputs": result.outputs,
    })
    assert digest == goldens[key], (
        f"{key}: multicore output diverged from the committed golden")


@pytest.fixture(scope="module")
def trace(programs):
    return InstructionTrace.record(programs[TRACE_WORKLOAD].program)


@pytest.mark.parametrize("technique", TRACE_TECHNIQUES)
def test_trace_replay_matches_golden_digest(technique, goldens, trace):
    key = f"{TRACE_KEY}/{technique}"
    assert key in goldens, f"no committed digest for {key}"
    result = simulate_trace(trace, technique=technique,
                            max_instructions=MAX_INSTRUCTIONS)
    assert _digest(result.to_dict()) == goldens[key], (
        f"{key}: trace replay diverged from the committed golden")


def test_golden_file_covers_all_configs(goldens, jit_counts):
    single = {f"{w}/{t}" for w in WORKLOADS for t in ALL_TECHNIQUES}
    expected = set(single)
    expected |= {f"{MULTICORE_KEY}/{t}" for t in MULTICORE_TECHNIQUES}
    expected |= {f"{TRACE_KEY}/{t}" for t in TRACE_TECHNIQUES}
    assert set(goldens) == expected
    assert set(jit_counts) == single

"""Tests for the differential fuzzing subsystem (:mod:`repro.fuzz`).

The acceptance spine: generation is deterministic and produces valid,
halting programs; the oracle battery passes on the current tree; the
fuzz loop's findings digest is reproducible (serial == parallel); and
a deliberately injected convergence address-copy bug is *found* by the
``conv-addr`` oracle and *shrunk* to a minimal repro that replays from
the corpus byte-identically; and a sabotaged compiled timing layer is
caught by the ``jit`` oracle.
"""

import json
import random

import pytest

import repro.wrongpath.convergence as conv_mod
from repro.core import timingblock
from repro.core.config import CoreConfig
from repro.engine.job import job_class
from repro.functional.emulator import Emulator
from repro.fuzz import (CaseOutcome, FuzzCase, FuzzCaseJob, fuzz,
                        load_case, make_case, replay_path, run_case,
                        save_case)
from repro.fuzz.confgen import AXES, generate_config_overrides
from repro.fuzz.corpus import case_path
from repro.fuzz.runner import case_seed


def instruction_count(source: str) -> int:
    """Instructions in an assembly source (labels/directives/data
    excluded)."""
    count = 0
    for line in source.splitlines():
        text = line.split("#", 1)[0].strip()
        if not text or text.endswith(":") or text.startswith("."):
            continue
        if text.split()[0] == ".word" or text[0].isdigit():
            continue
        count += 1
    return count


class TestGenerators:
    def test_make_case_deterministic(self):
        for index in range(6):
            a = make_case(3, index)
            b = make_case(3, index)
            assert a.to_dict() == b.to_dict()

    def test_case_seed_decorrelates(self):
        seeds = {case_seed(s, i) for s in range(4) for i in range(32)}
        assert len(seeds) == 4 * 32

    def test_frontend_alternation_and_selection(self):
        assert make_case(0, 0).frontend == "isa"
        assert make_case(0, 1).frontend == "minicc"
        assert make_case(0, 2, frontend="minicc").frontend == "minicc"
        assert make_case(0, 3, frontend="isa").frontend == "isa"
        with pytest.raises(ValueError):
            make_case(0, 0, frontend="c++")

    @pytest.mark.parametrize("frontend", ["isa", "minicc"])
    def test_generated_programs_build_and_halt(self, frontend):
        for index in range(5):
            case = make_case(11, index, frontend=frontend)
            emulator = Emulator(case.build())
            emulator.run(500_000)
            # (minicc exit codes carry main's return value; only the
            # isa generator pins exit 0.)
            assert emulator.halted, case.case_id
            if frontend == "isa":
                assert emulator.exit_code == 0, case.case_id

    def test_config_overrides_always_legal(self):
        rng = random.Random(5)
        for _ in range(50):
            overrides = generate_config_overrides(rng)
            assert set(overrides) <= set(AXES)
            CoreConfig.scaled(**overrides).validate()


class TestOracle:
    def test_clean_on_generated_cases(self):
        for index in range(4):
            case = make_case(42, index, max_instructions=3000)
            outcome = run_case(case)
            assert outcome.ok, (case.case_id, outcome.findings)
            assert "build" in outcome.checks
            assert "crash" in outcome.checks
            assert "roundtrip" in outcome.checks

    def test_outcome_roundtrip(self):
        outcome = run_case(make_case(42, 0, max_instructions=2000))
        blob = json.dumps(outcome.to_dict(), sort_keys=True)
        rebuilt = CaseOutcome.from_dict(json.loads(blob))
        assert json.dumps(rebuilt.to_dict(), sort_keys=True) == blob

    def test_build_oracle_fires_on_bad_source(self):
        case = FuzzCase(case_id="bad-asm", frontend="isa",
                        source="_start:\n    frobnicate x0, x0\n")
        outcome = run_case(case)
        assert outcome.oracles == ["build"]

    def test_crash_oracle_fires_on_bad_syscall(self):
        case = FuzzCase(case_id="bad-syscall", frontend="isa",
                        source="_start:\n    li a7, 999\n    ecall\n")
        outcome = run_case(case)
        assert "crash" in outcome.oracles

    def test_perfect_predictor_metamorphic_check_runs(self):
        case = make_case(7, 0, frontend="isa", max_instructions=3000)
        case = case.replace(
            config_overrides={"predictor_kind": "perfect"})
        outcome = run_case(case)
        assert outcome.ok, outcome.findings
        assert "perfect-cycles" in outcome.checks

    def test_conv_addr_check_runs_on_isa_cases(self):
        # Some early seed-2024 index fires mispredict episodes; the
        # conv-addr oracle must have been applied (and passed).
        ran = []
        for index in range(4):
            case = make_case(2024, index, frontend="isa",
                             max_instructions=3000)
            outcome = run_case(case)
            assert outcome.ok, (case.case_id, outcome.findings)
            ran.extend(outcome.checks)
        assert "conv-addr" in ran


class TestJitOracle:
    #: An isa case whose eager-gate runs use every compiled layer.
    CASE = dict(seed=42, index=2, max_instructions=3000)

    def test_silent_on_a_clean_case(self):
        outcome = run_case(make_case(**self.CASE))
        assert "jit" in outcome.checks
        assert outcome.ok, outcome.findings

    def test_fires_on_a_sabotaged_compiled_layer(self, monkeypatch):
        # Compiled timing blocks report one load too many; scalar
        # timing stays right, so only the eager-gate rerun counts them
        # on every visit.
        compile_timing = timingblock.compile_timing

        def sabotaged(*args):
            run, length, ctl, loads, stores, syscalls = \
                compile_timing(*args)
            return run, length, ctl, loads + 1, stores, syscalls

        monkeypatch.setattr(timingblock, "compile_timing", sabotaged)
        outcome = run_case(make_case(**self.CASE))
        assert outcome.oracles == ["jit"]
        assert {f["technique"] for f in outcome.findings} == \
            {"nowp", "instrec", "conv", "wpemul"}
        assert all(f["fields"] == ["stats"] for f in outcome.findings)


class TestEngineAdapter:
    def test_fuzz_kind_registered(self):
        assert job_class("fuzz") is FuzzCaseJob
        with pytest.raises(ValueError):
            job_class("nonsense")

    def test_job_roundtrip_and_identity(self):
        case = make_case(1, 0)
        job = FuzzCaseJob(case)
        assert job.kind == "fuzz"
        assert job.label == case.case_id
        rebuilt = FuzzCaseJob.from_dict(job.to_dict())
        assert rebuilt.case.to_dict() == case.to_dict()
        assert rebuilt.key == job.key


class TestCorpus:
    def test_save_load_byte_identical(self, tmp_path):
        case = make_case(9, 2)
        findings = [{"oracle": "arch", "technique": "conv",
                     "detail": "demo"}]
        path = save_case(str(tmp_path), case, findings)
        assert path == case_path(str(tmp_path), case.case_id)
        loaded, loaded_findings = load_case(path)
        assert loaded.to_dict() == case.to_dict()
        assert loaded_findings == findings
        first = open(path, "rb").read()
        save_case(str(tmp_path), loaded, loaded_findings)
        assert open(path, "rb").read() == first

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"schema": 99, "case": {},
                                    "findings": []}))
        with pytest.raises(ValueError):
            load_case(str(path))


class TestFuzzLoop:
    def test_deterministic_and_parallel_digest(self, tmp_path):
        serial = fuzz(seed=5, budget=6, jobs=1, max_instructions=3000,
                      corpus_dir=str(tmp_path / "a"))
        again = fuzz(seed=5, budget=6, jobs=1, max_instructions=3000,
                     corpus_dir=str(tmp_path / "b"))
        parallel = fuzz(seed=5, budget=6, jobs=2,
                        max_instructions=3000,
                        corpus_dir=str(tmp_path / "c"))
        assert serial.ok, serial.failures
        assert serial.findings_digest() == again.findings_digest()
        assert serial.findings_digest() == parallel.findings_digest()
        assert serial.cases == 6 and not serial.stopped_early

    def test_progress_callback(self, tmp_path):
        seen = []
        report = fuzz(seed=5, budget=3, max_instructions=2000,
                      corpus_dir=str(tmp_path),
                      progress=lambda *a: seen.append(a))
        assert report.ok
        assert seen[-1] == (3, 3, 0)


def _install_conv_address_bug(monkeypatch):
    """Inject an off-by-4 into convergence address recovery: every
    address conv copies onto the reconstructed wrong path is bumped by
    one word.  The conv-addr oracle must catch this."""
    real = conv_mod._copy_addresses

    def buggy(aligned, dirty):
        pairs = list(aligned)
        real(iter(pairs), dirty)
        for wp_item, _cp_di in pairs:
            if wp_item.mem_addr is not None:
                wp_item.mem_addr += 4

    monkeypatch.setattr(conv_mod, "_copy_addresses", buggy)
    return real


class TestInjectedBug:
    def test_conv_addr_bug_found_shrunk_and_replayable(
            self, tmp_path, monkeypatch):
        real = _install_conv_address_bug(monkeypatch)
        report = fuzz(seed=2024, budget=1, frontend="isa",
                      max_instructions=3000,
                      corpus_dir=str(tmp_path))
        assert not report.ok
        failure = report.failures[0]
        assert failure["oracles"] == ["conv-addr"]

        # Shrunk to a minimal repro: a handful of instructions, no
        # config overrides left.
        shrunk = failure["shrunk"]
        assert instruction_count(shrunk["source"]) <= 12
        assert shrunk["config_overrides"] == {}

        # The corpus file replays the finding while the bug is in...
        outcome = replay_path(failure["corpus_path"])
        assert "conv-addr" in outcome.oracles

        # ...and is clean once the bug is fixed.
        monkeypatch.setattr(conv_mod, "_copy_addresses", real)
        fixed = replay_path(failure["corpus_path"])
        assert fixed.ok, fixed.findings


@pytest.mark.slow
class TestDeepFuzz:
    def test_deep_run_is_clean(self, tmp_path):
        report = fuzz(seed=0, budget=150,
                      corpus_dir=str(tmp_path))
        assert report.ok, report.failures

    def test_deep_isa_run_is_clean(self, tmp_path):
        report = fuzz(seed=99, budget=100, frontend="isa",
                      corpus_dir=str(tmp_path))
        assert report.ok, report.failures

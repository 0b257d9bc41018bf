"""Tests for the command-line interface (driven in-process)."""

import argparse
import json
import os
import subprocess
import sys

import pytest

from repro.cli import main, make_parser

#: The argparse surface of every subcommand, recorded from the parser
#: before ``cli.py`` was split into the ``repro.cli`` package.
SURFACE_GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                              "cli_surface_golden.json")


def cli_surface(parser: argparse.ArgumentParser) -> dict:
    """Each subcommand's arguments, keyed by option strings (or the
    positional's name): whether it takes a value, its type, choices,
    default (when it takes a value) and ``required``.  ``dest``, flag
    defaults and help text are left out on purpose."""
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    surface = {}
    for command, subparser in sub.choices.items():
        arguments = {}
        for action in subparser._actions:
            takes_value = action.nargs != 0
            entry = {"takes_value": takes_value,
                     "type": getattr(action.type, "__name__", None),
                     "choices": (list(action.choices)
                                 if action.choices is not None else None),
                     "required": action.required}
            if takes_value:
                entry["default"] = action.default
            arguments["/".join(action.option_strings) or action.dest] = \
                entry
        surface[command] = arguments
    return surface


def test_import_leaves_the_workload_registry_unloaded():
    """Commands that build no workload (``cache``, ``serve``) must not
    pay the registry's import, most of the CLI's import time."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli; print('repro.workloads' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


class TestParser:
    def test_surface_matches_golden(self):
        with open(SURFACE_GOLDEN) as fh:
            golden = json.load(fh)
        surface = cli_surface(make_parser())
        assert sorted(surface) == sorted(golden)
        for command in golden:
            assert surface[command] == golden[command], command

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args([])

    def test_run_defaults(self):
        args = make_parser().parse_args(["run", "gap.bfs"])
        assert args.technique == "conv"
        assert args.scale == "small"

    def test_bad_technique_rejected(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["run", "gap.bfs",
                                      "--technique", "magic"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gap.bfs" in out and "spec.fp.saxpy_like" in out

    def test_run(self, capsys):
        rc = main(["run", "gap.bfs", "--scale", "tiny",
                   "--technique", "conv", "--max-instructions", "5000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "IPC" in out
        assert "convergence found" in out

    def test_run_nowp_omits_conv_metrics(self, capsys):
        rc = main(["run", "gap.pr", "--scale", "tiny",
                   "--technique", "nowp", "--max-instructions", "3000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "convergence found" not in out

    def test_compare(self, capsys):
        rc = main(["compare", "gap.bfs", "--scale", "tiny",
                   "--max-instructions", "8000"])
        assert rc == 0
        out = capsys.readouterr().out
        for technique in ("nowp", "instrec", "conv", "wpemul"):
            assert technique in out
        assert "error" in out

    def test_unknown_workload(self, capsys):
        assert main(["run", "gap.nothere",
                     "--max-instructions", "10"]) == 1
        assert "unknown workload" in capsys.readouterr().err

    def test_compare_jobs_flag(self, tmp_path, capsys):
        rc = main(["compare", "gap.bfs", "--scale", "tiny",
                   "--max-instructions", "6000",
                   "--jobs", "2", "--cache-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        for technique in ("nowp", "instrec", "conv", "wpemul"):
            assert technique in out
        # Short names resolve through the engine path too.
        assert main(["compare", "bfs", "--scale", "tiny",
                     "--max-instructions", "6000",
                     "--jobs", "1", "--cache-dir", str(tmp_path)]) == 0
        assert "gap.bfs" in capsys.readouterr().out


class TestSweep:
    ARGS = ["sweep", "--workloads", "bfs,pr",
            "--techniques", "nowp,conv", "--scale", "tiny",
            "--max-instructions", "5000"]

    def test_cold_then_warm(self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path)]
        assert main(self.ARGS + cache + ["--jobs", "2"]) == 0
        cold = capsys.readouterr().out
        assert "0 cache hits" in cold and "4 simulated" in cold
        assert (tmp_path / "journal.jsonl").exists()

        assert main(self.ARGS + cache + ["--jobs", "2"]) == 0
        warm = capsys.readouterr().out
        assert "4 cache hits (100%)" in warm and "0 simulated" in warm

        # Parallel and serial runs render identical result tables.
        assert main(self.ARGS + cache + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        table = lambda text: text.split("\n\n")[0]  # noqa: E731
        assert table(serial) == table(warm)

    def test_failed_job_sets_exit_code(self, tmp_path, capsys):
        rc = main(["sweep", "--workloads", "bfs", "--techniques", "conv",
                   "--scale", "tiny", "--max-instructions", "1000",
                   "--set", "rob_size=-5", "--jobs", "1", "--retries", "0",
                   "--cache-dir", str(tmp_path)])
        assert rc == 1
        assert "FAILED" in capsys.readouterr().out

    def test_config_axis_expands_grid(self, tmp_path, capsys):
        rc = main(["sweep", "--workloads", "bfs", "--techniques", "nowp",
                   "--scale", "tiny", "--max-instructions", "2000",
                   "--set", "rob_size=32", "--set", "rob_size=64",
                   "--jobs", "1", "--cache-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rob_size=32" in out and "rob_size=64" in out
        assert "2 jobs" in out

    def test_no_cache_disables_store(self, tmp_path, capsys):
        rc = main(["sweep", "--workloads", "bfs", "--techniques", "nowp",
                   "--scale", "tiny", "--max-instructions", "2000",
                   "--jobs", "1", "--no-cache",
                   "--cache-dir", str(tmp_path)])
        assert rc == 0
        assert not (tmp_path / "journal.jsonl").exists()
        assert "cache:" not in capsys.readouterr().out.splitlines()[-1]


class TestSampleCommand:
    ARGS = ["sample", "--workloads", "bfs", "--techniques", "nowp,conv",
            "--scale", "tiny", "--detail-length", "2000",
            "--ff-length", "6000"]

    def test_cold_then_warm_share_digest(self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path)]
        assert main(self.ARGS + cache + ["--jobs", "2"]) == 0
        cold = capsys.readouterr().out
        assert "gap.bfs" in cold and "intervals" in cold
        digest = [line for line in cold.splitlines()
                  if "combined digest" in line]
        assert digest

        assert main(self.ARGS + cache + ["--jobs", "1"]) == 0
        warm = capsys.readouterr().out
        assert digest[0].split("combined digest")[1] in warm

    def test_validate_reports_error(self, tmp_path, capsys):
        rc = main(self.ARGS + ["--cache-dir", str(tmp_path),
                               "--jobs", "1", "--validate", "conv"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "err vs full" in out
        assert "mean |IPC error|" in out

    def test_parser_defaults(self):
        args = make_parser().parse_args(["sample"])
        assert args.workloads == "gap"
        assert args.detail_length == 10_000
        assert args.ff_length == 40_000
        assert args.validate is None


class TestCompile:
    def test_compile_to_stdout(self, tmp_path, capsys):
        src = tmp_path / "k.c"
        src.write_text("void main() { print_int(7); }")
        assert main(["compile", str(src)]) == 0
        out = capsys.readouterr().out
        assert "_start:" in out

    def test_compile_to_file(self, tmp_path):
        src = tmp_path / "k.c"
        src.write_text("void main() { print_int(7); }")
        out = tmp_path / "k.s"
        assert main(["compile", str(src), "-o", str(out)]) == 0
        assert "_start:" in out.read_text()
        # The emitted assembly must itself assemble and run.
        from repro.functional.emulator import Emulator
        from repro.isa.assembler import assemble
        emu = Emulator(assemble(out.read_text()))
        emu.run()
        assert emu.output == [7]

    def test_compile_error_exit_code(self, tmp_path, capsys):
        src = tmp_path / "bad.c"
        src.write_text("void main() { x = ; }")
        assert main(["compile", str(src)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["compile", "/nonexistent/file.c"]) == 1


class TestFuzzCommand:
    def test_fuzz_clean_run(self, tmp_path, capsys):
        rc = main(["fuzz", "--seed", "5", "--budget", "3",
                   "--max-instructions", "2000", "--quiet",
                   "--corpus", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "clean" in out
        assert "findings digest:" in out

    def test_fuzz_replay_missing_file(self, capsys):
        assert main(["fuzz", "--replay", "/nonexistent/case.json"]) == 1
        assert "no such corpus file" in capsys.readouterr().err

    def test_fuzz_replay_saved_case(self, tmp_path, capsys):
        from repro.fuzz import make_case, save_case
        # A clean case replays with exit 0 ("no longer reproduces").
        case = make_case(5, 0, max_instructions=2000)
        path = save_case(str(tmp_path), case,
                         [{"oracle": "arch", "technique": "conv",
                           "detail": "stale"}])
        assert main(["fuzz", "--replay", path]) == 0
        assert "no longer reproduces" in capsys.readouterr().out

    def test_fuzz_parser_defaults(self):
        args = make_parser().parse_args(["fuzz"])
        assert args.seed == 0
        assert args.budget == 100
        assert args.frontend == "both"
        assert args.corpus == ".fuzz-corpus"


@pytest.fixture(scope="module")
def surrogate_model(tmp_path_factory):
    """A ridge surrogate fitted to synthetic labels: enough for
    ``predict`` to run, no simulation needed."""
    from repro.analysis.surrogate import (LabeledPoint, SurrogateModel,
                                          sample_grid)
    jobs = sample_grid(["gap.bfs"], ["conv"], 8, grid_seed=1,
                       scale="tiny", max_instructions=1000)
    points = [LabeledPoint(key=job.key, job_dict=job.to_dict(),
                           ipc=1.0 + 0.05 * i)
              for i, job in enumerate(jobs)]
    path = str(tmp_path_factory.mktemp("model") / "model.json")
    SurrogateModel.train(points, seed=0, kind="ridge").save(path)
    return path


class TestFullConfig:
    """``--full-config`` selects the full-scale Table I configuration on
    every command that takes it, and on both of compare's paths (in
    process, and through the engine)."""

    TINY = ["--scale", "tiny", "--max-instructions", "1000"]
    COMMANDS = {
        "run": ["run", "gap.bfs"] + TINY,
        "compare": ["compare", "gap.bfs"] + TINY,
        "compare-engine": ["compare", "gap.bfs", "--jobs", "1",
                           "--no-cache"] + TINY,
        "sweep": ["sweep", "--workloads", "bfs", "--techniques", "nowp",
                  "--jobs", "1", "--no-cache"] + TINY,
        "sample": ["sample", "--workloads", "bfs", "--techniques", "nowp",
                   "--detail-length", "300", "--ff-length", "300",
                   "--jobs", "1", "--no-cache"] + TINY,
        "predict": ["predict", "--workloads", "bfs", "--techniques",
                    "conv", "--points", "2", "--jobs", "1",
                    "--no-cache"] + TINY,
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_flag_selects_full_config(self, command, surrogate_model,
                                      monkeypatch, capsys):
        from repro.engine import job
        seen = []
        resolve_config = job.resolve_config

        def spy(base_config, overrides=None):
            seen.append(base_config)
            return resolve_config(base_config, overrides)

        monkeypatch.setattr(job, "resolve_config", spy)
        argv = list(self.COMMANDS[command])
        if argv[0] == "predict":
            argv += ["--model", surrogate_model]
        for flag, expected in (([], "scaled"), (["--full-config"], "full")):
            seen.clear()
            assert main(argv + flag) == 0, capsys.readouterr().err
            assert seen and set(seen) == {expected}

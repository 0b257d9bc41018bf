"""Package metadata matches the code.

``pyproject.toml`` is the one place a user learns what ``repro``
needs.  These tests hold it to the imports in ``src/repro``: every
top-level module the package imports is the standard library, ``repro``
itself, or a declared dependency.  No other local check catches an
undeclared import on a machine where the package happens to be
installed, so the GAP references are also built in a subprocess where
scipy cannot be imported.
"""

import ast
import importlib.util
import os
import re
import subprocess
import sys
import sysconfig

import pytest

import repro

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PYPROJECT = os.path.join(ROOT, "pyproject.toml")


def _declared_dependencies() -> set:
    """Import names of ``[project] dependencies``, read without a TOML
    parser (``tomllib`` is 3.11+)."""
    with open(PYPROJECT) as fh:
        text = fh.read()
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text,
                      re.M | re.S).group(1)
    return {name.lower().replace("-", "_")
            for name in re.findall(r'"([A-Za-z0-9_.\-]+)', block)}


def _is_stdlib(name: str) -> bool:
    """Whether the standard library provides ``name``, judged by where
    its spec comes from (``sys.stdlib_module_names`` is 3.10+)."""
    spec = importlib.util.find_spec(name)
    if spec is None:
        return False
    if spec.origin in ("built-in", "frozen"):
        return True
    origin = os.path.realpath(spec.origin or "")
    paths = sysconfig.get_paths()
    stdlib = {os.path.realpath(paths[key])
              for key in ("stdlib", "platstdlib")}
    site = {os.path.realpath(paths[key]) for key in ("purelib", "platlib")}
    return any(origin.startswith(d + os.sep) for d in stdlib) and \
        not any(origin.startswith(d + os.sep) for d in site)


def _imported_top_level_modules() -> dict:
    """Top-level module name -> the ``src/repro`` files importing it."""
    found = {}
    for dirpath, _, filenames in os.walk(os.path.join(SRC, "repro")):
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    found.setdefault(name.split(".")[0], set()).add(
                        os.path.relpath(path, ROOT))
    return found


def test_every_import_is_stdlib_repro_or_declared():
    # The stdlib check itself must not pass everything.
    assert _is_stdlib("json") and _is_stdlib("sys") and _is_stdlib("math")
    assert not _is_stdlib("numpy")
    assert not _is_stdlib("no_such_module_anywhere")
    declared = _declared_dependencies()
    assert "numpy" in declared
    undeclared = {name: sorted(paths) for name, paths
                  in _imported_top_level_modules().items()
                  if name != "repro" and name not in declared
                  and not _is_stdlib(name)}
    assert not undeclared, (
        f"src/repro imports modules pyproject.toml does not declare: "
        f"{undeclared}")


def test_gap_references_build_without_scipy():
    """cc and sssp compute their expected outputs with scipy blocked,
    and the kernels still print them."""
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from repro.functional.emulator import Emulator\n"
        "from repro.workloads import build_workload\n"
        "for name in ('gap.cc', 'gap.sssp'):\n"
        "    wl = build_workload(name, scale='tiny')\n"
        "    emu = Emulator(wl.program)\n"
        "    emu.run()\n"
        "    assert emu.output == wl.expected_output, name\n"
        "print('ok')\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


@pytest.mark.filterwarnings("ignore:Support for")
def test_one_version_string():
    """``pyproject.toml`` reads its version from ``repro.__version__``."""
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    config = pyprojecttoml.read_configuration(PYPROJECT)
    assert config["project"]["version"] == repro.__version__

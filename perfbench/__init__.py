"""perfbench — the repository benchmark.

Three workloads (``branchy``, ``sweep``, ``serve``) measure
host time and simulated accuracy end to end; a traced run splits host
time across the simulator's layers.  Entry point: ``perfbench/run.py``.
See ``perfbench/README.md`` for the metric definitions.
"""

import os

#: Repository root (the directory holding ``BENCHMARK.json``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Where the ``repro`` package is imported from.
SRC = os.path.join(ROOT, "src")

#: Scratch space for stores, sockets and span files (git-ignored).
WORK = os.path.join(ROOT, ".perfbench")

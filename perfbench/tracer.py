"""Span tracer for the traced benchmark run.

Wrappers installed around the public entry points of each ``repro``
layer record how long every call took and how much of that its wrapped
callees took.  A layer's *self time* is its span's duration minus the
durations of its direct child spans.  Spans of one thread nest strictly,
so the children of a span never overlap and their sum is the part of
the parent interval they cover.

Coarse spans (one simulation, one batch, one mispredict window, one
request) are kept in memory with name, start, end, parent and the cell
or request id, and written out as JSON lines at exit.  Hot leaf calls
(a cache access, a branch prediction, a compile, a store read) would
number in the millions, so they are folded into per-name counters at the
same boundary instead of being kept one by one.

Nothing here touches ``src/repro``: :meth:`Tracer.install` replaces
attributes on the imported classes and modules, and
:meth:`Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Wrapped entry points: (module, attribute path, span name, kept).
#: ``kept`` spans are stored one by one; the others only count.
TARGETS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("repro.simulator.simulation", "Simulator.run", "simulator.run", True),
    ("repro.functional.frontend", "FunctionalFrontend.produce_batch",
     "functional.produce", True),
    ("repro.functional.emulator", "Emulator.emulate_wrong_path",
     "functional.wp_emulate", True),
    ("repro.functional.superblock", "SuperblockCache.compile_correct",
     "functional.compile", False),
    ("repro.functional.superblock", "SuperblockCache.compile_wrongpath",
     "functional.compile", False),
    ("repro.frontend.queue", "RunaheadQueue.prepare", "frontend.prepare",
     True),
    ("repro.frontend.queue", "RunaheadQueue.window", "frontend.window",
     True),
    ("repro.core.ooo", "OoOCore.process_batch", "core.process", True),
    ("repro.core.timingblock", "compile_timing", "core.compile", False),
    ("repro.branch.predictors", "BranchPredictorUnit.predict_and_update",
     "branch.predict", False),
    ("repro.wrongpath.nowp", "NoWrongPath.on_mispredict",
     "wrongpath.mispredict", True),
    ("repro.wrongpath.instrec", "InstructionReconstruction.on_mispredict",
     "wrongpath.mispredict", True),
    ("repro.wrongpath.convergence",
     "ConvergenceExploitation.on_mispredict", "wrongpath.mispredict", True),
    ("repro.wrongpath.emulation", "WrongPathEmulation.on_mispredict",
     "wrongpath.mispredict", True),
    ("repro.wrongpath.streamblock", "compile_stream", "wrongpath.compile",
     False),
    ("repro.wrongpath.base", "_compile_items", "wrongpath.compile", False),
    ("repro.cache.hierarchy", "CacheHierarchy.access_data", "cache.data",
     False),
    ("repro.simulator.sampling", "functional_pass",
     "simulator.functional_pass", True),
    ("repro.simulator.snapshot", "SimSnapshot.capture",
     "simulator.snapshot", True),
    ("repro.workloads", "build_workload", "workloads.build", True),
    ("repro.workloads.registry", "build_workload", "workloads.build", True),
    ("repro.workloads.base", "compile_to_program", "minicc.compile", True),
    ("repro.engine.job", "SimJob.key", "engine.key", False),
    ("repro.simulator.sampling", "SampleIntervalJob.key", "engine.key",
     False),
    ("repro.engine.store", "ResultStore.get_payload", "engine.store_get",
     False),
    ("repro.engine.store", "ResultStore.put_payload", "engine.store_put",
     False),
    ("repro.engine.journal", "RunJournal.record", "engine.journal", False),
    ("repro.service.client", "ServiceClient.__init__", "service.connect",
     True),
    ("repro.service.client", "ServiceClient.run", "service.request", True),
)

#: The hierarchy's flattened data path is a per-instance closure, so the
#: method that makes it is wrapped and its product timed as this span.
DATA_FASTPATH = ("repro.cache.hierarchy",
                 "CacheHierarchy._build_data_fastpath", "cache.data")


class Span:
    """One kept span."""

    __slots__ = ("name", "start", "end", "parent", "ctx", "self_time")

    def __init__(self, name: str, start: float, end: float,
                 parent: Optional[int], ctx: Optional[str],
                 self_time: float):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.ctx = ctx
        self.self_time = self_time

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "ctx": self.ctx,
                "self": self.self_time}


class Tracer:
    """Per-thread span stacks plus per-name totals.

    ``by_ctx[(name, ctx)]`` is ``[calls, total seconds, self seconds]``
    for the spans of one name opened under one cell or request id; the
    ``counts`` dict holds event counts recorded at the same boundaries
    (store hits and misses).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.by_ctx: Dict[Tuple[str, Optional[str]], List[float]] = {}
        self.counts: Dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        self._fork_hook = False

    # -- context -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            # Bottom frame: absorbs the time of top-level spans.
            stack = self._local.stack = [[None, 0.0, 0.0, None, False]]
            self._local.ctx = None
        return stack

    def set_context(self, ctx: Optional[str]) -> None:
        """Tag the spans this thread opens from now on (cell/request id)."""
        self._stack()
        self._local.ctx = ctx

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    # -- span arithmetic ---------------------------------------------------

    def enter(self, name: str, kept: bool) -> list:
        stack = self._stack()
        frame = [name, self.clock(), 0.0, None, kept]
        if kept:
            # Reserve the index now so children can point at it.
            with self._lock:
                frame[3] = len(self.spans)
                self.spans.append(None)  # type: ignore[arg-type]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = self.clock()
        stack = self._local.stack
        stack.pop()
        duration = end - frame[1]
        self_time = duration - frame[2]
        parent = stack[-1]
        parent[2] += duration
        name = frame[0]
        key = (name, self._local.ctx)
        with self._lock:
            entry = self.by_ctx.get(key)
            if entry is None:
                entry = self.by_ctx[key] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += self_time
            if frame[4]:
                parent_index = None
                for outer in reversed(stack):
                    if outer[3] is not None:
                        parent_index = outer[3]
                        break
                self.spans[frame[3]] = Span(name, frame[1], end,
                                            parent_index,
                                            self._local.ctx, self_time)

    def _sum(self, name: str, column: int) -> float:
        return sum(entry[column] for (span, _), entry in self.by_ctx.items()
                   if span == name)

    def calls(self, name: str) -> int:
        return int(self._sum(name, 0))

    def total(self, name: str) -> float:
        return self._sum(name, 1)

    def self_time(self, name: str) -> float:
        return self._sum(name, 2)

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn: Callable, name: str, kept: bool) -> Callable:
        enter = self.enter
        exit_ = self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name, kept)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)
        return traced

    def _wrap_store_get(self, fn: Callable, name: str,
                        kept: bool) -> Callable:
        """:meth:`wrap` that also counts store hits and misses."""
        traced = self.wrap(fn, name, kept)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = traced(*args, **kwargs)
            self.count("engine.store_hits" if result is not None
                       else "engine.store_misses")
            return result
        return counted

    def install(self) -> None:
        """Wrap every target; raises if one is gone, so a renamed entry
        point stops the run instead of reading 0."""
        if not self._fork_hook:
            # Pool workers forked while traced must run the plain code:
            # their spans could not reach this process anyway.
            os.register_at_fork(after_in_child=self.uninstall)
            self._fork_hook = True
        try:
            for module, path, name, kept in TARGETS:
                owner, attr, raw = _resolve(module, path)
                if isinstance(raw, property):
                    new = property(self.wrap(raw.fget, name, kept))
                elif isinstance(raw, classmethod):
                    new = classmethod(self.wrap(raw.__func__, name, kept))
                elif name == "engine.store_get":
                    new = self._wrap_store_get(raw, name, kept)
                else:
                    new = self.wrap(raw, name, kept)
                self._patch(owner, attr, raw, new)
            module, path, name = DATA_FASTPATH
            owner, attr, raw = _resolve(module, path)
            wrap = self.wrap

            @functools.wraps(raw)
            def build(*args, **kwargs):
                return wrap(raw(*args, **kwargs), name, False)
            self._patch(owner, attr, raw, build)
        except Exception:
            self.uninstall()
            raise

    def _patch(self, owner, attr: str, raw, new) -> None:
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        """Restore every original attribute, newest patch first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> int:
        """Write the kept spans as JSON lines; returns how many."""
        kept = [span for span in self.spans if span is not None]
        with open(path, "w") as fh:
            for span in kept:
                fh.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
        return len(kept)


def _resolve(module: str, path: str):
    """``(owner, attr, raw attribute)`` for ``module:path``; the raw
    attribute is read from the owner's ``__dict__`` so descriptors
    (property, classmethod) come back unbound.  Raises
    ``AttributeError`` when the attribute does not exist."""
    owner = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    try:
        return owner, attr, vars(owner)[attr]
    except KeyError:
        raise AttributeError(f"traced entry point {module}.{path} "
                             f"is gone") from None

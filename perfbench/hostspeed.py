"""Host speed probe: scales host-time metrics to a reference host speed.

A shared virtual machine does not run at one speed.  The vCPUs it gets
switch, for seconds to minutes at a time, between a fast and a slower
level (about 1.5 times apart on the 2-vCPU machine this benchmark was
built on), and one 35-second run may fall wholly on either.  The
run-to-run spread that leaves is far wider than any change a benchmark
should resolve, and no median inside a run removes it.

The probe is a fixed piece of pure-Python interpreter work that calls
nothing in ``repro``: dispatch through a dict, attribute stores, a list
append.  A workload times it in the process that does the work, just
before the work: before every cell (branchy), in every pool worker
before every job (sweep), and between requests, while the daemon and
both clients wait (serve).  The host-time metrics are then reported
*at the reference speed*: as if every probe had taken
:data:`REFERENCE_S`.  A change to the program moves the work and not
the probe, so it moves the scaled metric by the same share as the raw
one.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, Dict, List

from perfbench.metrics import BETTER

#: Seconds one probe is taken to last at the reference speed: about its
#: mean inside a run on a 2-vCPU x86 virtual machine under CPython 3.11,
#: so that scaled figures read close to raw ones there.
REFERENCE_S = 0.0013

#: End-to-end metrics that are host time: rates scale up on a slow
#: host, latencies down.
HOST_TIME = ("kips", "jobs_per_s", "req_p50_ms", "req_p90_ms")


class _Register:
    __slots__ = ("a", "b")

    def __init__(self):
        self.a = 0
        self.b = 1


def _add(reg, x):
    reg.a = reg.a + x + reg.b


def _mul(reg, x):
    reg.b = (reg.b * x) & 0xFFFF


def _mod(reg, x):
    reg.a = reg.a % x


def _nop(reg, x):
    pass


_OPS = {"add": _add, "mul": _mul, "mod": _mod, "nop": _nop}
_PROGRAM = (("add", 3), ("mul", 5), ("mod", 7919), ("nop", 0))


def probe(steps: int = 6000) -> int:
    """The fixed work: ``steps`` dispatches of a four-op program."""
    reg = _Register()
    trail = []
    for i in range(steps):
        op, arg = _PROGRAM[i & 3]
        _OPS[op](reg, arg)
        if i & 15 == 0:
            trail.append(reg.a)
    return reg.a + len(trail)


class HostSpeed:
    """Probe times of one run, and the slowdown they give."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.samples: List[float] = []

    def sample(self, tries: int = 3) -> None:
        """Time the probe ``tries`` times back to back and keep the
        fastest, which an interrupt or another thread holding the
        interpreter lock did not stretch.  The cyclic collector is
        paused, so garbage the workload left is not charged to the host."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = float("inf")
            for _ in range(tries):
                start = self.clock()
                probe()
                best = min(best, self.clock() - start)
            self.samples.append(best)
        finally:
            if enabled:
                gc.enable()

    def slowdown(self) -> float:
        """Mean probe time over :data:`REFERENCE_S`: above 1 on a host
        slower than the reference.  A mean, not a median: a run that
        spent a third of its time at the slow level should be scaled by
        a third of the difference, where a median would take all of it
        or none.  Raises ``ValueError`` when nothing was probed."""
        if not self.samples:
            raise ValueError("no host-speed probe was taken")
        return sum(self.samples) / len(self.samples) / REFERENCE_S


def at_reference(values: Dict[str, float], slowdown: float
                 ) -> Dict[str, float]:
    """``values`` with every host-time metric scaled to the reference
    speed: rates multiplied by ``slowdown``, latencies divided."""
    out = dict(values)
    for name in HOST_TIME:
        if BETTER[name] == "higher":
            out[name] = values[name] * slowdown
        else:
            out[name] = values[name] / slowdown
    return out

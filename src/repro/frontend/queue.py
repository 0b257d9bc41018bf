"""The bounded runahead queue between the functional and timing simulators.

Functional-first simulation keeps the functional simulator "tens up to
thousands" of instructions ahead of the performance simulator (Section II).
The queue provides:

* ``prepare()`` — compact the consumed prefix and refill, returning how
  many instructions the timing model may consume directly,
* ``window(n)`` — peek at the next ``n`` future correct-path instructions
  without consuming them, which is exactly the capability the convergence
  exploitation technique uses ("the functional model runs ahead of the
  performance model, so we can take a peek in the future correct-path
  instructions"),
* refill from a producer callable (``n -> list`` of up to ``n``
  instructions); if the producer cannot supply enough instructions
  (program about to exit), the window is simply shorter, matching the
  paper's note that convergence checking is skipped when not enough
  instructions are queued.

Storage is a plain list plus a head index rather than a deque: ``window``
becomes a slice, and the timing model
(:meth:`repro.core.ooo.OoOCore.process_batch`) walks ``_buf`` directly and
advances ``_head`` itself, with no call per consumed instruction.
"""

from __future__ import annotations

from typing import Callable, List

from repro.frontend.dyninstr import DynInstr

Producer = Callable[[int], List[DynInstr]]


def runahead_depth(cfg) -> int:
    """Queue depth for a core built from ``cfg`` (a
    :class:`repro.core.config.CoreConfig`, duck-typed to avoid a package
    cycle).  The conv model peeks ROB-size instructions ahead, so the
    queue must run ahead at least that far plus slack."""
    return max(2 * cfg.rob_size + 128, 1024)


class RunaheadQueue:
    """Decoupling queue with peek-ahead."""

    def __init__(self, producer: Producer, depth: int = 2048):
        if depth < 1:
            raise ValueError("queue depth must be >= 1")
        self._producer = producer
        self.depth = depth
        self._buf: List[DynInstr] = []
        self._head = 0
        self._exhausted = False
        self.max_occupancy = 0
        # Observability hook (repro.obs); None-checked once per
        # ``prepare`` call.
        self._obs = None

    def _fill(self, target: int) -> None:
        """Refill until occupancy reaches ``target`` (or the producer runs
        dry).  Appends only — never compacts — so batch consumers holding
        buffer indices stay valid across mid-batch peeks."""
        need = target - (len(self._buf) - self._head)
        if need > 0 and not self._exhausted:
            items = self._producer(need)
            self._buf.extend(items)
            if len(items) < need:
                self._exhausted = True
        occupancy = len(self._buf) - self._head
        if occupancy > self.max_occupancy:
            self.max_occupancy = occupancy

    def window(self, n: int) -> List[DynInstr]:
        """Peek at up to ``n`` future instructions (index 0 = the next one
        consumed).

        May return fewer than ``n`` near program exit.
        """
        if len(self._buf) - self._head < n:
            self._fill(max(n, self.depth))
        head = self._head
        return self._buf[head:head + n]

    # simcheck: hotpath
    def prepare(self) -> int:
        """Compact consumed entries and refill; returns the number of
        instructions available for direct batch consumption."""
        if self._head:
            del self._buf[:self._head]
            self._head = 0
        if len(self._buf) < self.depth:
            self._fill(self.depth)
        available = len(self._buf)
        if self._obs is not None:
            self._obs.queue_prepare(available)
        return available

    def __len__(self) -> int:
        return len(self._buf) - self._head

    @property
    def exhausted(self) -> bool:
        return self._exhausted and self._head >= len(self._buf)

"""Issue-port / functional-unit modeling.

Each FU group owns a small number of ports.  A port is represented by the
next cycle at which it is free; issuing an instruction picks the earliest
free port at or after the instruction's ready cycle.  Pipelined units free
their port the next cycle; unpipelined units (integer and FP divide) hold it
for the full latency.

Wrong-path simulation snapshots and restores port state around each
mispredict window (see :meth:`PortFile.snapshot`): wrong-path instructions
compete for ports inside the window, but their reservations are squashed at
resolution.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


class PortGroup:
    """Ports of one FU group.

    ``busy`` is the number of cycles an issue occupies the port (1 for
    pipelined units, the full latency otherwise); it is precomputed so the
    per-issue path does no branching on ``pipelined``.
    """

    __slots__ = ("name", "latency", "pipelined", "free_at", "busy",
                 "_single")

    def __init__(self, name: str, count: int, latency: int,
                 pipelined: bool = True):
        if count < 1:
            raise ValueError(f"{name}: port count must be >= 1")
        if latency < 1:
            raise ValueError(f"{name}: latency must be >= 1")
        self.name = name
        self.latency = latency
        self.pipelined = pipelined
        self.free_at: List[int] = [0] * count
        self.busy = 1 if pipelined else latency
        self._single = count == 1

    def issue(self, ready: int) -> int:
        """Issue at the earliest cycle >= ``ready`` with a free port;
        returns the issue cycle."""
        free = self.free_at
        if self._single:
            best = 0
            best_cycle = free[0]
        else:
            # min()/index() pick the first of equal earliest-free ports,
            # matching the original linear scan's tie-break.
            best_cycle = min(free)
            best = free.index(best_cycle)
        start = ready if ready >= best_cycle else best_cycle
        free[best] = start + self.busy
        return start


class PortFile:
    """All FU groups of the core."""

    def __init__(self, cfg):
        self.groups: Dict[str, PortGroup] = {
            "alu": PortGroup("alu", cfg.alu_ports, cfg.alu_latency),
            "mul": PortGroup("mul", cfg.mul_ports, cfg.mul_latency),
            "div": PortGroup("div", cfg.div_ports, cfg.div_latency,
                             pipelined=False),
            "fp": PortGroup("fp", cfg.fp_ports, cfg.fp_latency),
            "fp_div": PortGroup("fp_div", cfg.fp_div_ports,
                                cfg.fp_div_latency, pipelined=False),
            "load": PortGroup("load", cfg.load_ports, 1),
            "store": PortGroup("store", cfg.store_ports, cfg.store_latency),
            "branch": PortGroup("branch", cfg.branch_ports,
                                cfg.branch_latency),
        }
        self.latency: Dict[str, int] = {
            "alu": cfg.alu_latency, "mul": cfg.mul_latency,
            "div": cfg.div_latency, "fp": cfg.fp_latency,
            "fp_div": cfg.fp_div_latency, "load": 0,
            "store": cfg.store_latency, "branch": cfg.branch_latency,
        }
        # fu name -> (free_at list, busy, single-port?, result latency):
        # lets the batched core loop inline the issue scan with no call at
        # all.  ``free_at`` is aliased, never replaced (snapshot/restore
        # assign through ``free_at[:]``), so the aliases stay live.
        self.hot: Dict[str, tuple] = {
            name: (group.free_at, group.busy, group._single,
                   self.latency[name])
            for name, group in self.groups.items()
        }

    def issue(self, group: str, ready: int) -> int:
        return self.groups[group].issue(ready)

    # -- wrong-path snapshotting --------------------------------------------------

    def snapshot(self) -> Tuple[List[int], ...]:
        return tuple(g.free_at.copy() for g in self.groups.values())

    def restore(self, snap: Tuple[List[int], ...]) -> None:
        for group, saved in zip(self.groups.values(), snap):
            group.free_at[:] = saved

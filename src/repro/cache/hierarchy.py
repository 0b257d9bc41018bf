"""The memory hierarchy: L1I + L1D -> unified L2 -> LLC -> memory, plus DTLB.

Sized like the paper's per-core slice of an Alder Lake P-core system
("we downscale the LLC and memory bandwidth to reflect the available LLC
capacity and memory bandwidth per core in common SKUs").
"""

from __future__ import annotations

from typing import Optional

from repro.cache.cache import Cache, MainMemory
from repro.cache.prefetcher import NextLinePrefetcher, StridePrefetcher
from repro.cache.tlb import TLB


class CacheHierarchy:
    """Single-core cache/memory hierarchy with wrong-path-aware stats."""

    def __init__(self,
                 line_size: int = 64,
                 l1i_size: int = 32 * 1024, l1i_assoc: int = 8,
                 l1i_latency: int = 1,
                 l1d_size: int = 48 * 1024, l1d_assoc: int = 12,
                 l1d_latency: int = 5,
                 l2_size: int = 1280 * 1024, l2_assoc: int = 10,
                 l2_latency: int = 15,
                 llc_size: int = 3 * 1024 * 1024, llc_assoc: int = 12,
                 llc_latency: int = 45,
                 mem_latency: int = 220,
                 dtlb_entries: int = 96, dtlb_penalty: int = 20,
                 l2_prefetcher: Optional[str] = None,
                 prefetch_degree: int = 2,
                 shared_llc: Optional[Cache] = None,
                 shared_memory: Optional[MainMemory] = None):
        # Multicore configurations pass a shared LLC/memory so several
        # per-core hierarchies converge on one last-level cache.
        self.memory = shared_memory if shared_memory is not None \
            else MainMemory(mem_latency)
        self.llc = shared_llc if shared_llc is not None else Cache(
            "LLC", llc_size, llc_assoc, line_size, llc_latency, self.memory)
        self.l2 = Cache("L2", l2_size, l2_assoc, line_size, l2_latency,
                        self.llc)
        self.l1i = Cache("L1I", l1i_size, l1i_assoc, line_size, l1i_latency,
                         self.l2)
        self.l1d = Cache("L1D", l1d_size, l1d_assoc, line_size, l1d_latency,
                         self.l2)
        self.dtlb = TLB(dtlb_entries, miss_penalty=dtlb_penalty)
        self.line_size = line_size
        if l2_prefetcher is None:
            self._l2_prefetcher = None
        elif l2_prefetcher == "next_line":
            self._l2_prefetcher = NextLinePrefetcher(self.l2,
                                                     prefetch_degree)
        elif l2_prefetcher == "stride":
            self._l2_prefetcher = StridePrefetcher(self.l2,
                                                   degree=prefetch_degree)
        else:
            raise ValueError(f"unknown l2 prefetcher {l2_prefetcher!r}")
        self._l2_prefetcher_kind = l2_prefetcher
        #: Flattened data-access path (see :meth:`_build_data_fastpath`).
        #: Same signature and bit-identical behaviour to
        #: :meth:`access_data`; hot loops bind this once instead.
        self.data_fastpath = self._build_data_fastpath()

    @classmethod
    def from_config(cls, cfg) -> "CacheHierarchy":
        """Build from a :class:`repro.core.config.CoreConfig` (duck-typed to
        avoid a package cycle)."""
        return cls(
            line_size=cfg.line_size,
            l1i_size=cfg.l1i_size, l1i_assoc=cfg.l1i_assoc,
            l1i_latency=cfg.l1i_latency,
            l1d_size=cfg.l1d_size, l1d_assoc=cfg.l1d_assoc,
            l1d_latency=cfg.l1d_latency,
            l2_size=cfg.l2_size, l2_assoc=cfg.l2_assoc,
            l2_latency=cfg.l2_latency,
            llc_size=cfg.llc_size, llc_assoc=cfg.llc_assoc,
            llc_latency=cfg.llc_latency,
            mem_latency=cfg.mem_latency,
            dtlb_entries=cfg.dtlb_entries, dtlb_penalty=cfg.dtlb_penalty,
            l2_prefetcher=cfg.l2_prefetcher,
            prefetch_degree=cfg.prefetch_degree,
        )

    # -- access paths -------------------------------------------------------------

    def access_instr(self, pc: int, wrong_path: bool = False) -> int:
        """Fetch the instruction line holding ``pc``; returns latency."""
        return self.l1i.access(pc, False, wrong_path)

    def access_data(self, addr: int, write: bool = False, pc: int = 0,
                    wrong_path: bool = False) -> int:
        """Access data at ``addr``; returns latency including TLB penalty.

        This is the readable reference implementation; hot loops bind
        :attr:`data_fastpath` (its flattened, bit-identical twin) once
        per batch instead.
        """
        prefetcher = self._l2_prefetcher
        if prefetcher is None:
            # No prefetcher: skip the pre-access residency probe entirely
            # (it exists only to classify the access for the prefetcher).
            return (self.dtlb.access(addr, wrong_path)
                    + self.l1d.access(addr, write, wrong_path))
        latency = self.dtlb.access(addr, wrong_path)
        was_resident = self.l1d.contains(addr)
        latency += self.l1d.access(addr, write, wrong_path)
        if self._l2_prefetcher_kind == "next_line":
            prefetcher.on_access(addr, not was_resident, wrong_path)
        else:
            prefetcher.on_access(pc, addr, wrong_path)
        return latency

    def _build_data_fastpath(self):
        """Build the flattened twin of :meth:`access_data`.

        The reference path costs three Python frames per access
        (``access_data`` -> ``TLB.access`` -> ``Cache.access``); the data
        side is the hottest edge in the whole simulator (every load, every
        store drain, every known-address wrong-path access), so this
        closure inlines the DTLB probe and the L1D hit/miss handling into
        one frame, falling through to the ordinary recursive
        ``l2.access`` only on an L1D miss.  Every counter, LRU movement,
        eviction, writeback and prefetcher notification happens in
        exactly the order the reference path produces — the superblock
        property suite drives both against each other and compares
        per-level stats and warm state bit-for-bit.

        Captured objects (``_sets`` lists, ``_pages`` dict, stats) are
        mutated in place by ``load_state``, never replaced, so the
        closure stays valid across snapshot restores.
        """
        dtlb = self.dtlb
        pages = dtlb._pages
        pages_move = pages.move_to_end
        pages_pop = pages.popitem
        page_shift = dtlb.page_shift
        tlb_entries = dtlb.entries
        tlb_penalty = dtlb.miss_penalty
        l1d = self.l1d
        l1d_sets = l1d._sets
        l1d_stats = l1d.stats
        l1d_latency = l1d.latency
        l1d_assoc = l1d.assoc
        line_shift = l1d._line_shift
        set_mask = l1d._set_mask
        l2_access = self.l2.access
        kind = self._l2_prefetcher_kind
        prefetcher = self._l2_prefetcher
        nl = prefetcher.on_access if kind == "next_line" else None
        st = prefetcher.on_access if kind == "stride" else None

        def data_fastpath(addr: int, write: bool = False, pc: int = 0,
                          wrong_path: bool = False) -> int:
            # -- DTLB (TLB.access inlined)
            page = addr >> page_shift
            dtlb.accesses += 1
            if wrong_path:
                dtlb.wp_accesses += 1
            if page in pages:
                pages_move(page)
                latency = 0
            else:
                dtlb.misses += 1
                if wrong_path:
                    dtlb.wp_misses += 1
                pages[page] = True
                if len(pages) > tlb_entries:
                    pages_pop(last=False)
                latency = tlb_penalty
            # -- L1D (Cache.access + Cache._insert inlined; the hit test
            #    doubles as the prefetcher's pre-access residency probe)
            line = addr >> line_shift
            set_ = l1d_sets[line & set_mask]
            l1d_stats.accesses += 1
            if wrong_path:
                l1d_stats.wp_accesses += 1
            if line in set_:
                set_.move_to_end(line)
                if write:
                    set_[line] = True
                if nl is not None:
                    nl(addr, False, wrong_path)
                elif st is not None:
                    st(pc, addr, wrong_path)
                return latency + l1d_latency
            l1d_stats.misses += 1
            if wrong_path:
                l1d_stats.wp_misses += 1
            fill = l2_access(addr, False, wrong_path)
            if len(set_) >= l1d_assoc:
                victim, victim_dirty = set_.popitem(last=False)
                if victim_dirty:
                    l1d_stats.writebacks += 1
                    l2_access(victim << line_shift, True, wrong_path)
            set_[line] = write
            if nl is not None:
                nl(addr, True, wrong_path)
            elif st is not None:
                st(pc, addr, wrong_path)
            return latency + l1d_latency + fill

        return data_fastpath

    # -- warm-state capture/restore ---------------------------------------------------

    def state_dict(self) -> dict:
        """Warm content of every level (LRU order preserved), the DTLB,
        and any stateful prefetcher.  Stats are excluded — see
        :meth:`Cache.state_dict`."""
        state = {
            "l1i": self.l1i.state_dict(),
            "l1d": self.l1d.state_dict(),
            "l2": self.l2.state_dict(),
            "llc": self.llc.state_dict(),
            "dtlb": self.dtlb.state_dict(),
            "prefetcher": None,
        }
        if self._l2_prefetcher_kind == "stride":
            state["prefetcher"] = self._l2_prefetcher.state_dict()
        return state

    def load_state(self, state: dict) -> None:
        self.l1i.load_state(state["l1i"])
        self.l1d.load_state(state["l1d"])
        self.l2.load_state(state["l2"])
        self.llc.load_state(state["llc"])
        self.dtlb.load_state(state["dtlb"])
        if self._l2_prefetcher_kind == "stride":
            if state["prefetcher"] is None:
                raise ValueError("snapshot missing stride prefetcher state")
            self._l2_prefetcher.load_state(state["prefetcher"])

    # -- reporting ------------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "l1i": self.l1i.stats.as_dict(),
            "l1d": self.l1d.stats.as_dict(),
            "l2": self.l2.stats.as_dict(),
            "llc": self.llc.stats.as_dict(),
            "mem": {"accesses": self.memory.stats.accesses,
                    "wp_accesses": self.memory.stats.wp_accesses},
            "dtlb": {"accesses": self.dtlb.accesses,
                     "misses": self.dtlb.misses,
                     "miss_rate": self.dtlb.miss_rate},
        }

    def publish_metrics(self, registry) -> None:
        """Export per-level counters into an observability
        :class:`~repro.obs.metrics.MetricsRegistry` (duck-typed to avoid
        a package cycle).  Called once at finalize — the access paths
        above never touch the registry."""
        for cache in (self.l1i, self.l1d, self.l2, self.llc):
            stats = cache.stats
            component = f"cache.{cache.name.lower()}"
            counter = registry.counter
            counter(component, "accesses").add(stats.accesses)
            counter(component, "misses").add(stats.misses)
            counter(component, "wp_accesses").add(stats.wp_accesses)
            counter(component, "wp_misses").add(stats.wp_misses)
            counter(component, "writebacks").add(stats.writebacks)
            counter(component, "prefetches").add(stats.prefetches)
        registry.counter("cache.mem", "accesses") \
            .add(self.memory.stats.accesses)
        registry.counter("cache.mem", "wp_accesses") \
            .add(self.memory.stats.wp_accesses)
        registry.counter("cache.dtlb", "accesses").add(self.dtlb.accesses)
        registry.counter("cache.dtlb", "misses").add(self.dtlb.misses)

"""Wrong-path model interface and the shared wrong-path pipeline executor.

All techniques share the same *timing* treatment of wrong-path instructions
(:func:`simulate_wrong_path_stream`): inside the mispredict window they
consume fetch bandwidth, access the I-cache, occupy issue ports, obey
register dependences (against both correct-path producers and earlier
wrong-path instructions), and — when their memory address is known — access
the data cache/TLB, mutating its state.  Port reservations are snapshotted
and squashed at resolution, so correct-path timing is affected *only*
through cache/TLB state, mirroring how real wrong-path execution perturbs
performance.

The techniques differ purely in how they obtain the wrong-path instruction
stream and its memory addresses:

* ``nowp``      — no stream (fetch just halts),
* ``instrec``   — code-cache reconstruction, no addresses,
* ``conv``      — code-cache reconstruction + convergence-recovered addresses,
* ``wpemul``    — the functionally emulated trace with all addresses.

Wrong-path replay is the simulator's dominant cost for branchy workloads
(every mispredict window re-walks hundreds of instructions), so both
functions here are written for the hot path: reconstruction stitches
memoized straight-line blocks out of the code cache (see
:meth:`repro.frontend.code_cache.CodeCache.block`) instead of looking up
pc-by-pc, and the stream executor keeps its counters and the window-local
fetch allocator in locals, flushing to :class:`CoreStats` once per window.
Both are cycle- and stat-identical to the straightforward per-instruction
formulation they replaced.
"""

from __future__ import annotations

import abc
from typing import Iterable, List, Optional

from repro.core.ooo import OoOCore, WrongPathWindow
from repro.frontend.code_cache import (BLOCK_CONTROL, BLOCK_MISS,
                                       BLOCK_SYSCALL)
from repro.functional.superblock import (compile_items_builder,
                                         compile_when_warm)
from repro.isa.instructions import Instruction
from repro.wrongpath import streamblock


class WPItem:
    """One wrong-path instruction as fed to the pipeline executor.

    Any object with ``instr``/``pc``/``mem_addr`` attributes works (the
    wpemul model feeds :class:`~repro.functional.emulator.WrongPathRecord`
    directly); this class is the minimal carrier the reconstruction
    techniques use.
    """

    __slots__ = ("instr", "pc", "mem_addr")

    def __init__(self, instr: Instruction, pc: int,
                 mem_addr: Optional[int] = None):
        self.instr = instr
        self.pc = pc
        self.mem_addr = mem_addr

    def __repr__(self) -> str:
        return f"WPItem({self.instr.op}, pc={self.pc:#x}, " \
               f"mem={self.mem_addr})"


class WrongPathModel(abc.ABC):
    """One wrong-path modeling technique."""

    #: Short name used in results tables ("nowp", "instrec", "conv",
    #: "wpemul").
    name: str = "abstract"

    def attach(self, core: OoOCore) -> None:
        """Bind the model to the core it serves (called by the core)."""
        self.core = core

    @abc.abstractmethod
    def on_mispredict(self, window: WrongPathWindow) -> None:
        """Handle one mispredict window."""


def _compile_items(instrs, stop):
    """Block-artifact compiler for :meth:`CodeCache.block_compiled`: a
    flat appender of fresh :class:`WPItem` records (fresh per call — the
    convergence model mutates ``mem_addr`` in place, so replay items can
    never be shared between windows)."""
    if not instrs:
        return None
    return compile_items_builder(instrs, WPItem,
                                 "<wpitems:%#x>" % instrs[0].pc)


# simcheck: hotpath
def reconstruct_from_code_cache(core: OoOCore, start_pc: int,
                                limit: int) -> List[WPItem]:
    """Walk the code cache from ``start_pc``, steering wrong-path branches
    with non-mutating predictor peeks (Section III-A).

    Stops at the first address missing from the code cache, when an
    indirect target cannot be predicted, or after ``limit`` instructions.
    The walk consumes memoized straight-line blocks through their
    compiled item-appenders (one call per block, constants baked; see
    :meth:`repro.frontend.code_cache.CodeCache.block_compiled`);
    stop-condition stats are charged exactly as the per-pc walk would
    charge them (a miss or a failed peek only counts when it falls
    inside ``limit``).
    """
    items: List[WPItem] = []
    append = items.append
    block_compiled = core.code_cache.block_compiled
    bpu = core.bpu
    peek = bpu.peek_next
    spec = bpu.speculative_state()
    stats = core.stats
    pc = start_pc
    n = 0
    while n < limit:
        instrs, stop, run = block_compiled(pc, _compile_items)
        room = limit - n
        if len(instrs) > room:
            for instr in instrs[:room]:
                append(WPItem(instr, instr.pc))
            break  # window budget exhausted mid-block
        if run is not None:
            run(append)
        n += len(instrs)
        if stop is BLOCK_CONTROL:
            # The peek runs even when the budget is now exhausted — the
            # per-pc walk peeked in the same iteration it fetched the
            # control instruction, and may record a prediction stop.
            next_pc = peek(instrs[-1], spec)
            if next_pc is None:
                stats.wp_stop_prediction += 1
                break
            pc = next_pc
        elif stop is BLOCK_SYSCALL:
            break
        else:  # BLOCK_MISS
            if n < limit:
                stats.wp_stop_code_cache += 1
            break
    return items


def _compile_stream_block(core: OoOCore, pc: int) -> tuple:
    """Compiled wrong-path stream entry for the block at ``pc``.

    Behind the shared warm gate, like the other superhandler layers:
    cold code never pays a render.  A block the stream templates
    do not cover (pc not cached, or a load with no destination) is
    cached as the empty entry, so the scalar executor times it; the
    next insert flushes ``_wpstream`` and lets an empty block grow.
    """
    cc = core.code_cache

    def build(pc):
        instrs, _stop = cc._block(pc)
        entry = streamblock.compile_stream(instrs, core.cfg,
                                           core.ports.hot,
                                           core._line_shift,
                                           core._stream_key)
        return () if entry is None else entry

    return compile_when_warm(cc._wpstream_warm, cc._wpstream, pc, build)


# simcheck: hotpath
def simulate_wrong_path_stream(window: WrongPathWindow,
                               items: Iterable) -> int:
    """Run wrong-path instructions through the pipeline inside the window.

    Returns the number of wrong-path instructions *fetched*; updates the
    core's wrong-path counters.  A wrong-path instruction counts as
    *executed* when it completes before the branch resolves — unknown-address
    loads behave like L1 hits, so less accurate techniques execute more
    wrong-path instructions within the same window (the paper's Table II
    observation).
    """
    core = window.core
    cfg = core.cfg
    stats = core.stats
    # One observer check per window (the batch-granularity hook contract,
    # DESIGN.md §7.2).  Address capture needs the fetched prefix of the
    # stream after the loop, so materialize lazy streams up front.
    obs = core._obs
    record_addresses = obs is not None and obs.record_addresses
    # The block fast path (and address capture) index the stream.
    if not isinstance(items, list):
        items = list(items)
    hierarchy = core.hierarchy
    l1i_access = hierarchy.l1i.access   # access_instr minus the hop
    access_data = hierarchy.data_fastpath
    l1d_contains = hierarchy.l1d.contains
    ports = core.ports
    port_hot = ports.hot
    resolution = window.resolution
    max_instructions = window.max_instructions
    regready = core.regready
    line_shift = core._line_shift
    fetch_width = cfg.fetch_width
    frontend_depth_1 = cfg.frontend_depth + 1
    l1i_latency = cfg.l1i_latency
    l1d_latency = cfg.l1d_latency
    store_latency = cfg.store_latency

    snapshot = ports.snapshot()
    # Window-local fetch allocator (SlotAllocator semantics, kept in
    # locals: restart at window.start, then allocate(0) per instruction).
    fetch_cycle = window.start if window.start > 0 else 0
    fetch_used = 0
    wp_ready = {}
    wp_get = wp_ready.get
    cur_line = -1
    fetched = 0
    executed = 0
    wp_loads = wp_stores = wp_mem_ops = 0
    wp_loads_with_addr = wp_addr_recovered = 0
    # Outstanding wrong-path fills (completion cycles); bounded by the L1D
    # fill buffers so the wrong path cannot prefetch arbitrarily deep.
    mshrs = []
    mshr_cap = cfg.mshr_entries

    # Block fast path: streams only break fall-through at control
    # instructions or end-of-stream, so whenever the compiled stream
    # block starting at ``items[i].pc`` fits in the remaining stream
    # and fetch budget, one call replays it bit-identically (see
    # repro.wrongpath.streamblock).  Everything else — cold blocks,
    # uncached pcs, stream tails shorter than their block — falls
    # through to the scalar body below.
    wp_map_get = core.code_cache._wpstream.get
    n_items = len(items)
    sb_count = 0
    i = 0
    while i < n_items:
        if fetched >= max_instructions:
            break
        item = items[i]
        pc = item.pc
        entry = wp_map_get(pc)
        if entry is None:
            # simcheck: allow=SC010 compile-once per block on cache miss; the sanctioned SC003 exec site, amortized across every later hit
            entry = _compile_stream_block(core, pc)
        if entry and entry[1] <= n_items - i \
                and fetched + entry[1] <= max_instructions:
            (done, fetch_cycle, fetch_used, cur_line, executed,
             dl, ds, wa, rec) = entry[0](
                items, i, wp_ready, regready, mshrs, port_hot,
                l1i_access, access_data, l1d_contains,
                fetch_cycle, fetch_used, cur_line, resolution,
                executed)
            fetched += done
            sb_count += done
            wp_loads += dl
            wp_stores += ds
            wp_mem_ops += dl + ds
            wp_loads_with_addr += wa
            wp_addr_recovered += rec
            if done < entry[1]:
                break  # squashed mid-block
            i += done
            continue
        i += 1
        line = pc >> line_shift
        if line != cur_line:
            cur_line = line
            penalty = l1i_access(pc, False, True) - l1i_latency
            if penalty > 0:
                fetch_cycle += penalty   # restart_at(cycle + penalty)
                fetch_used = 0
        fetch_c = fetch_cycle            # allocate(0)
        fetch_used += 1
        if fetch_used >= fetch_width:
            fetch_cycle = fetch_c + 1
            fetch_used = 0
        if fetch_c >= resolution:
            break  # squashed before it could be fetched
        fetched += 1

        instr = item.instr
        ready = fetch_c + frontend_depth_1
        for reg in instr.reads:
            t = wp_get(reg)
            if t is None:
                t = regready[reg]
            if t > ready:
                ready = t
        # Inlined PortGroup.issue (same scan and first-of-equal
        # tie-break as the batched core loop uses via ``ports.hot``).
        free_at, busy, single, fu_latency = port_hot[instr.fu]
        if single:
            best = 0
            best_cycle = free_at[0]
        else:
            best_cycle = min(free_at)
            best = free_at.index(best_cycle)
        issue_c = ready if ready >= best_cycle else best_cycle
        free_at[best] = issue_c + busy

        if instr.is_load:
            wp_loads += 1
            wp_mem_ops += 1
            addr = item.mem_addr
            if addr is not None:
                wp_loads_with_addr += 1
                wp_addr_recovered += 1
                if issue_c >= resolution:
                    # Operands became ready only after the squash: the load
                    # never issues, so it must not touch the cache.  This is
                    # what bounds wrong-path prefetch depth to what the
                    # dependence chains allow inside the window.
                    for reg in instr.writes:
                        wp_ready[reg] = resolution + 1
                    continue
                if l1d_contains(addr):
                    latency = access_data(addr, False, pc, True)
                else:
                    # A fill needs an MSHR; recycle the earliest one once
                    # the buffer is full, or drop the access if no MSHR
                    # frees up before the squash.
                    if len(mshrs) >= mshr_cap:
                        earliest = min(mshrs)
                        if earliest >= resolution:
                            # Fill never issues before the squash: no cache
                            # mutation, and dependents never become ready.
                            for reg in instr.writes:
                                wp_ready[reg] = resolution + 1
                            continue
                        mshrs.remove(earliest)
                        if earliest > issue_c:
                            issue_c = earliest
                    latency = access_data(addr, False, pc, True)
                    mshrs.append(issue_c + latency)
            else:
                latency = l1d_latency  # optimistic: modeled as a hit
            complete = issue_c + latency
        elif instr.is_store:
            wp_stores += 1
            wp_mem_ops += 1
            if item.mem_addr is not None:
                wp_addr_recovered += 1
            # Wrong-path stores never commit and never touch the cache.
            complete = issue_c + store_latency
        else:
            complete = issue_c + fu_latency

        for reg in instr.writes:
            wp_ready[reg] = complete
        if complete <= resolution:
            executed += 1

    ports.restore(snapshot)
    core.streamblock_instructions += sb_count
    if record_addresses:
        obs.wp_addresses = [[item.pc, item.mem_addr]
                            for item in items[:fetched]]
    stats.wp_fetched += fetched
    stats.wp_executed += executed
    stats.wp_loads += wp_loads
    stats.wp_stores += wp_stores
    stats.wp_mem_ops += wp_mem_ops
    stats.wp_loads_with_addr += wp_loads_with_addr
    stats.wp_addr_recovered += wp_addr_recovered
    return fetched

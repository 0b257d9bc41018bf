"""Instruction-driven out-of-order timing model.

The engine assigns each correct-path instruction a fetch, dispatch, issue,
complete and retire cycle under the configured resource constraints (widths,
front-end depth, ROB/LQ/SQ capacity, issue ports, FU and cache latencies).
It is the performance half of the decoupled simulator: it consumes
:class:`DynInstr` records from the runahead queue, predicts branches at
fetch, and — on a detected misprediction — opens a *wrong-path window*
between the branch's fetch and its resolution (completion) and hands it to
the configured wrong-path model.

Modeling notes (also in DESIGN.md):

* Branch resolution time equals the branch's completion cycle, so a
  mispredict whose condition depends on a memory-missing load resolves
  hundreds of cycles late — the mechanism that makes wrong-path effects
  large for the GAP benchmarks.
* Across techniques the mispredict penalty itself is identical
  (``resolution + mispredict_penalty``); techniques differ **only** in the
  cache/TLB state mutations and accounting their wrong-path instructions
  perform, which cleanly isolates the paper's effect.
* Stores drain to the cache after retirement; loads check a store-buffer
  map for forwarding before accessing the hierarchy.
"""

from __future__ import annotations

from typing import Optional

from repro.branch.predictors import BranchPredictorUnit
from repro.cache.hierarchy import CacheHierarchy
from repro.core.config import CoreConfig
from repro.core.ports import PortFile
from repro.core import timingblock
from repro.core.resources import SlotAllocator, WindowBuffer
from repro.core.stats import CoreStats
from repro.frontend.code_cache import CodeCache
from repro.frontend.dyninstr import DynInstr
from repro.functional.superblock import compile_when_warm
from repro.isa.instructions import INSTRUCTION_SIZE


class OoOCore:
    """Single out-of-order core."""

    def __init__(self, cfg: CoreConfig, hierarchy: CacheHierarchy,
                 bpu: BranchPredictorUnit, wp_model,
                 code_cache: Optional[CodeCache] = None,
                 queue=None):
        cfg.validate()
        self.cfg = cfg
        self.hierarchy = hierarchy
        self.bpu = bpu
        self.code_cache = code_cache if code_cache is not None \
            else CodeCache()
        self.queue = queue  # runahead queue; peeked by the conv model
        self.wp_model = wp_model
        if wp_model is not None:
            wp_model.attach(self)

        self.fetch = SlotAllocator(cfg.fetch_width)
        self.dispatch = SlotAllocator(cfg.dispatch_width)
        self.commit = SlotAllocator(cfg.commit_width)
        self.rob = WindowBuffer(cfg.rob_size)
        self.lq = WindowBuffer(cfg.load_queue)
        self.sq = WindowBuffer(cfg.store_queue)
        self.ports = PortFile(cfg)
        self.regready = [0] * 64
        self.last_retire = 0
        self.stats = CoreStats()

        self._line_shift = cfg.line_size.bit_length() - 1
        self._cur_fetch_line = -1
        # word address -> cycle at which the store drains from the buffer
        self._store_buffer = {}
        # Observability hook (repro.obs.Observability, attached via
        # ``Observability.attach``).  Checked once per batch and once per
        # mispredict — never per instruction — so the hot path is
        # untouched when no observer is attached.
        self._obs = None

        # Hot-path bindings for :meth:`process_batch`, resolved once: the
        # config constants, plus the containers (and their bound methods)
        # that are mutated in place but never replaced.  They are the
        # *same* objects the public ``rob``/``lq``/``sq``/``ports``/
        # ``code_cache`` expose, so state stays authoritative for
        # ``restart_at``/``occupancy_at``/snapshotting.  One tuple unpack
        # per batch matters because the multicore driver runs one
        # instruction per batch.
        rob_rel = self.rob._releases
        lq_rel = self.lq._releases
        sq_rel = self.sq._releases
        self._batch_env = (
            self.code_cache._entries, self.code_cache._timing.get,
            self.ports.hot, self.regready, self._store_buffer,
            self._store_buffer.get,
            rob_rel, rob_rel.append, rob_rel.popleft,
            lq_rel, lq_rel.append, lq_rel.popleft,
            sq_rel, sq_rel.append, sq_rel.popleft,
            self.fetch, self.dispatch, self.commit,
            cfg.fetch_width, cfg.dispatch_width, cfg.commit_width,
            self._line_shift, INSTRUCTION_SIZE, cfg.l1i_latency,
            cfg.frontend_depth, cfg.rob_size, cfg.load_queue,
            cfg.store_queue, cfg.store_latency, cfg.syscall_latency,
            cfg.forward_latency, cfg.taken_redirect_bubble)
        # Timing and wrong-path stream superhandlers: compiled
        # per-block functions are pure (all mutable state passed per
        # call), pooled process-wide under these fingerprints.  Deferred
        # import: the repro.wrongpath package imports this module.
        from repro.wrongpath import streamblock
        self._timing_key = timingblock.cfg_fingerprint(
            cfg, self.ports.hot, self._line_shift)
        self._stream_key = streamblock.cfg_fingerprint(
            cfg, self.ports.hot, self._line_shift)
        #: Instructions retired through compiled timing blocks (CI's
        #: silent-fallback guard reads this alongside the frontend's).
        self.timingblock_instructions = 0
        #: Wrong-path instructions run through compiled stream blocks
        #: (repro.wrongpath.streamblock); same guard, wrong-path side.
        self.streamblock_instructions = 0

    def _compile_timing(self, pc: int):
        """Resolve the timing superhandler for the block at ``pc``.

        Behind the shared warm gate (cold blocks never pay a
        render/compile) and cached in the code cache's pc map; the
        compiled function itself comes from the process-wide pure pool,
        so repeat cores for the same program and config skip compilation
        entirely.  Returns a falsy value while cold or when no cached
        run starts at ``pc`` (the caller's scalar path covers both).
        """
        cc = self.code_cache
        return compile_when_warm(cc._timing_warm, cc._timing, pc,
                                 self._build_timing)

    def _build_timing(self, pc: int):
        instrs, stop = self.code_cache._block(pc)
        if not instrs:
            # Nothing cached: the scalar path inserts this pc (flushing
            # _timing anyway), and a miss block can grow on re-walk.
            return None
        return timingblock.compile_timing(
            instrs, self.cfg, self.ports.hot, self._line_shift,
            self._timing_key, stop)

    def drain(self, queue, limit: Optional[int] = None) -> int:
        """Simulate instructions from ``queue`` until it runs dry or
        ``limit`` have been simulated; returns the number simulated.

        The one driver loop over :meth:`process_batch`: ``prepare()``
        compacts and refills the queue, and each batch walks the refilled
        buffer directly.
        """
        processed = 0
        while limit is None or processed < limit:
            available = queue.prepare()
            if available == 0:
                break
            if limit is not None and available > limit - processed:
                available = limit - processed
            processed += self.process_batch(queue, available)
        return processed

    # simcheck: hotpath
    def process_batch(self, queue, count: int) -> int:
        """Consume and simulate the next ``count`` instructions directly
        from the runahead queue's buffer; returns ``count``.

        The caller guarantees ``count <= len(queue)`` (``prepare()``
        returns how many are available).  This is the core's only
        correct-path timing model.  All mutable core state (slot
        allocators, stat counters, the fetch line) lives in locals for
        the duration of the batch and is flushed back to the live objects
        at batch end — and, crucially, *before* every mispredict, so the
        wrong-path models and the queue's ``window()`` peeks observe the
        core exactly as of the mispredicting branch.  Each instruction
        either runs through the scalar body below, which inlines the
        ``allocate``/``commit`` steps of :mod:`repro.core.resources` (the
        readable reference semantics, still used by the wrong-path
        executor), or as part of a compiled timing block
        (:mod:`repro.core.timingblock`) that is bit-identical to it; both
        share one control-flow and mispredict tail.
        """
        buf = queue._buf
        i = queue._head
        end = i + count
        (cc_entries, tb_get, port_hot, regready, store_buffer, sb_get,
         rob_rel, rob_append, rob_popleft, lq_rel, lq_append, lq_popleft,
         sq_rel, sq_append, sq_popleft, fetch, dispatch, commit,
         fetch_width, disp_width, com_width, line_shift, isize,
         l1i_latency, frontend_depth, rob_size, load_queue, store_queue,
         store_latency, syscall_latency, forward_latency,
         taken_bubble) = self._batch_env
        # Methods stay per-batch lookups: profilers and tests patch them
        # on the class.
        stats = self.stats
        hierarchy = self.hierarchy
        l1i_access = hierarchy.l1i.access   # access_instr minus the hop
        access_data = hierarchy.data_fastpath
        bpu_predict = self.bpu.predict_and_update
        cc_insert = self.code_cache.insert
        tb_compile = self._compile_timing
        fetch_cycle = fetch.cycle
        fetch_used = fetch.used
        disp_cycle = dispatch.cycle
        disp_used = dispatch.used
        com_cycle = commit.cycle
        com_used = commit.used
        cur_line = self._cur_fetch_line
        last_retire = self.last_retire
        n_instr = n_loads = n_stores = n_sysc = n_fwd = n_redir = 0
        tb_count = 0

        while i < end:
            di = buf[i]
            pc = di.pc
            # ---- block fast path: the memoized code-cache block at
            # ``pc`` runs through its compiled timing superhandler when
            # the whole block fits the batch (entry[1] = length).  A block
            # ends *at* its control instruction, whose fetch and
            # completion cycles the compiled run returns for the shared
            # control-flow tail below.
            entry = tb_get(pc)
            if entry is None:
                entry = tb_compile(pc)
            if entry and entry[1] <= end - i:
                (fetch_cycle, fetch_used, disp_cycle, disp_used,
                 com_cycle, com_used, cur_line, last_retire, fwd,
                 fetch_c, complete) = entry[0](
                    buf, i, regready, fetch_cycle, fetch_used,
                    disp_cycle, disp_used, com_cycle, com_used,
                    cur_line, last_retire, rob_rel, rob_popleft,
                    rob_append, lq_rel, lq_popleft, lq_append, sq_rel,
                    sq_popleft, sq_append, sb_get, store_buffer,
                    access_data, l1i_access, port_hot)
                length = entry[1]
                i += length
                tb_count += length
                n_instr += length
                n_loads += entry[3]
                n_stores += entry[4]
                n_sysc += entry[5]
                n_fwd += fwd
                if not entry[2]:
                    continue
                di = buf[i - 1]
                instr = di.instr
                pc = di.pc
            else:
                i += 1
                instr = di.instr
                if pc not in cc_entries:
                    cc_insert(instr)

                # ---- fetch: I-cache + fetch bandwidth
                line = pc >> line_shift
                if line != cur_line:
                    cur_line = line
                    penalty = l1i_access(pc, False, False) - l1i_latency
                    if penalty > 0:
                        fetch_cycle += penalty
                        fetch_used = 0
                fetch_c = fetch_cycle
                fetch_used += 1
                if fetch_used >= fetch_width:
                    fetch_cycle = fetch_c + 1
                    fetch_used = 0

                # ---- dispatch: frontend depth, ROB/LQ/SQ, bandwidth
                dispatch_req = fetch_c + frontend_depth
                if len(rob_rel) >= rob_size:
                    oldest = rob_popleft()
                    if oldest > dispatch_req:
                        dispatch_req = oldest
                is_load = instr.is_load
                is_store = instr.is_store
                if is_load:
                    if len(lq_rel) >= load_queue:
                        oldest = lq_popleft()
                        if oldest > dispatch_req:
                            dispatch_req = oldest
                elif is_store:
                    if len(sq_rel) >= store_queue:
                        oldest = sq_popleft()
                        if oldest > dispatch_req:
                            dispatch_req = oldest
                if dispatch_req > disp_cycle:
                    disp_cycle = dispatch_req
                    disp_used = 0
                dispatch_c = disp_cycle
                disp_used += 1
                if disp_used >= disp_width:
                    disp_cycle = dispatch_c + 1
                    disp_used = 0

                # ---- ready + issue (inlined PortGroup.issue)
                ready = dispatch_c + 1
                for reg in instr.reads:
                    t = regready[reg]
                    if t > ready:
                        ready = t
                free, busy, single, fu_latency = port_hot[instr.fu]
                if single:
                    best_cycle = free[0]
                    issue_c = ready if ready >= best_cycle else best_cycle
                    free[0] = issue_c + busy
                else:
                    best_cycle = min(free)
                    issue_c = ready if ready >= best_cycle else best_cycle
                    free[free.index(best_cycle)] = issue_c + busy

                # ---- execute / complete
                if is_load:
                    n_loads += 1
                    addr = di.mem_addr
                    drain = sb_get(addr & ~3)
                    if drain is not None and drain > issue_c:
                        n_fwd += 1
                        complete = issue_c + forward_latency
                    else:
                        complete = issue_c + access_data(addr, False, pc)
                elif is_store:
                    n_stores += 1
                    complete = issue_c + store_latency
                elif instr.is_syscall:
                    n_sysc += 1
                    complete = issue_c + syscall_latency
                else:
                    complete = issue_c + fu_latency

                for reg in instr.writes:
                    regready[reg] = complete

                # ---- retire (in order, commit bandwidth)
                retire_req = complete + 1
                if retire_req < last_retire:
                    retire_req = last_retire
                if retire_req > com_cycle:
                    com_cycle = retire_req
                    com_used = 0
                retire_c = com_cycle
                com_used += 1
                if com_used >= com_width:
                    com_cycle = retire_c + 1
                    com_used = 0
                last_retire = retire_c
                rob_append(retire_c)
                if is_load:
                    lq_append(complete)
                elif is_store:
                    sq_append(retire_c)
                    addr = di.mem_addr
                    access_data(addr, True, pc)
                    store_buffer[addr & ~3] = retire_c + 1

                n_instr += 1
                if not instr.is_control:
                    continue

            # ---- control flow: prediction, redirects, wrong-path window
            next_pc = di.next_pc
            prediction = bpu_predict(instr, di.taken, next_pc)
            if prediction != next_pc:
                # Flush local state to the live objects: the wrong-path
                # models read the core and peek the queue.
                queue._head = i
                fetch.cycle = fetch_cycle
                fetch.used = fetch_used
                dispatch.cycle = disp_cycle
                dispatch.used = disp_used
                commit.cycle = com_cycle
                commit.used = com_used
                self._cur_fetch_line = cur_line
                self.last_retire = last_retire
                stats.instructions += n_instr
                stats.loads += n_loads
                stats.stores += n_stores
                stats.syscalls += n_sysc
                stats.store_forwards += n_fwd
                stats.taken_redirects += n_redir
                n_instr = n_loads = n_stores = n_sysc = 0
                n_fwd = n_redir = 0
                self._handle_mispredict(di, prediction, fetch_c, complete)
                fetch_cycle = fetch.cycle
                fetch_used = fetch.used
                cur_line = self._cur_fetch_line
            elif next_pc != pc + isize:  # taken, correctly predicted
                n_redir += 1
                at = fetch_c + taken_bubble
                if at > fetch_cycle or (at == fetch_cycle and fetch_used):
                    fetch_cycle = at
                    fetch_used = 0
                cur_line = -1

        queue._head = end
        fetch.cycle = fetch_cycle
        fetch.used = fetch_used
        dispatch.cycle = disp_cycle
        dispatch.used = disp_used
        commit.cycle = com_cycle
        commit.used = com_used
        self._cur_fetch_line = cur_line
        self.last_retire = last_retire
        stats.instructions += n_instr
        stats.loads += n_loads
        stats.stores += n_stores
        stats.syscalls += n_sysc
        stats.store_forwards += n_fwd
        stats.taken_redirects += n_redir
        self.timingblock_instructions += tb_count
        obs = self._obs
        if obs is not None:
            obs.core_batch(count)
        return count

    # simcheck: hotpath
    def _handle_mispredict(self, di: DynInstr, predicted_pc: int,
                           fetch_c: int, resolution: int) -> None:
        cfg = self.cfg
        self.stats.mispredict_windows += 1
        window_start = fetch_c + 1
        if resolution < window_start:
            resolution = window_start
        if self._obs is not None:
            self._observe_episode(di, predicted_pc, window_start,
                                  resolution, fetch_c)
        elif self.wp_model is not None:
            free = cfg.rob_size - self.rob.occupancy_at(fetch_c) \
                + cfg.wp_frontend_buffer
            if free > 0:
                self.wp_model.on_mispredict(
                    WrongPathWindow(self, di, predicted_pc, window_start,
                                    resolution, free))
        # Squash, restore rename state, refetch the correct path.
        self.fetch.restart_at(resolution + cfg.mispredict_penalty)
        self._cur_fetch_line = -1

    def _observe_episode(self, di: DynInstr, predicted_pc: int,
                         window_start: int, resolution: int,
                         fetch_c: int) -> None:
        """Wrong-path window with episode capture: snapshot the stats
        the wrong-path models mutate, invoke the model exactly as
        :meth:`_handle_mispredict` would, and emit the deltas as one
        episode record.  Every wrong-path counter mutation happens
        inside ``on_mispredict``, so the per-episode deltas sum to the
        run's aggregates exactly (the lossless-decomposition invariant
        ``tests/test_obs.py`` pins); the model invocation itself is
        bit-identical to the unobserved path.
        """
        obs = self._obs
        stats = self.stats
        h = self.hierarchy
        levels = (("l1i", h.l1i.stats), ("l1d", h.l1d.stats),
                  ("l2", h.l2.stats), ("llc", h.llc.stats))
        pre = (stats.wp_fetched, stats.wp_executed, stats.wp_loads,
               stats.wp_stores, stats.wp_mem_ops, stats.wp_addr_recovered,
               stats.wp_stop_code_cache, stats.wp_stop_prediction,
               stats.wp_trace_missing, stats.conv_attempts,
               stats.conv_found, stats.conv_distance_total)
        pre_cache = [(s.wp_accesses, s.wp_misses) for _, s in levels]
        obs.conv_point = None
        obs.wp_addresses = None

        cfg = self.cfg
        free = cfg.rob_size - self.rob.occupancy_at(fetch_c) \
            + cfg.wp_frontend_buffer
        if self.wp_model is not None and free > 0:
            self.wp_model.on_mispredict(
                WrongPathWindow(self, di, predicted_pc, window_start,
                                resolution, free))

        cache = {}
        for (level, s), (acc0, miss0) in zip(levels, pre_cache):
            misses = s.wp_misses - miss0
            cache[level] = {"wp_hits": s.wp_accesses - acc0 - misses,
                            "wp_misses": misses}
        conv_found = stats.conv_found - pre[10]
        obs.emit_episode({
            "branch_pc": di.pc,
            "branch_kind": "cond" if di.instr.is_branch else "indirect",
            "technique": self.wp_model.name if self.wp_model is not None
            else None,
            "predicted_target": predicted_pc,
            "actual_target": di.next_pc,
            "window_start": window_start,
            "resolution": resolution,
            "window_limit": free if free > 0 else 0,
            "wp_fetched": stats.wp_fetched - pre[0],
            "wp_executed": stats.wp_executed - pre[1],
            "wp_loads": stats.wp_loads - pre[2],
            "wp_stores": stats.wp_stores - pre[3],
            "wp_mem_ops": stats.wp_mem_ops - pre[4],
            "wp_addr_recovered": stats.wp_addr_recovered - pre[5],
            "wp_stop_code_cache": stats.wp_stop_code_cache - pre[6],
            "wp_stop_prediction": stats.wp_stop_prediction - pre[7],
            "wp_trace_missing": stats.wp_trace_missing - pre[8],
            "conv_attempted": stats.conv_attempts - pre[9],
            "conv_found": conv_found,
            "conv_distance": (stats.conv_distance_total - pre[11])
            if conv_found else None,
            "conv_point": obs.conv_point,
            "wp_addresses": obs.wp_addresses,
            "cache": cache,
        })

    def finalize(self) -> CoreStats:
        """Close the run: total cycles = last retirement."""
        self.stats.cycles = self.last_retire
        return self.stats


# simcheck: per-instruction
class WrongPathWindow:
    """Everything a wrong-path model needs about one mispredict."""

    __slots__ = ("core", "branch", "wrong_pc", "start", "resolution",
                 "max_instructions")

    def __init__(self, core: OoOCore, branch: DynInstr, wrong_pc: int,
                 start: int, resolution: int, max_instructions: int):
        self.core = core
        self.branch = branch
        self.wrong_pc = wrong_pc
        self.start = start
        self.resolution = resolution
        self.max_instructions = max_instructions

    def __repr__(self) -> str:
        return (f"WrongPathWindow(pc={self.branch.pc:#x} "
                f"wrong={self.wrong_pc:#x} cycles=[{self.start},"
                f"{self.resolution}] max={self.max_instructions})")

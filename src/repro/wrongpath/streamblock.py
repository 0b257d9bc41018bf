"""Per-basic-block superhandlers for the wrong-path stream executor.

:func:`repro.wrongpath.base.simulate_wrong_path_stream` is the shared
pipeline model all techniques feed their wrong-path instructions
through, and for branchy workloads it is the dominant per-instruction
Python loop left after the batched core loop learned to run compiled
timing blocks (``repro.core.timingblock``).  Its loop body consults the
same static facts per item — pc (hence I-cache line), registers, FU,
class flags, every width/latency constant — while the only *dynamic*
per-item input is ``item.mem_addr``.

Wrong-path item streams break fall-through only at control
instructions or at end-of-stream (reconstruction stops at code-cache
misses and failed predictions; emulation stops at faults and
syscalls), so a stream is a concatenation of prefixes of the same
straight-line blocks the code cache memoizes.  This module renders one
flat function per such block with everything static baked in, exactly
mirroring the scalar executor:

* the window-local fetch allocator with I-cache probes only at the
  *static* line-crossing points (entry keeps its runtime check),
* register-dependence scans unrolled against the window-local
  ``wp_ready`` overlay and the core scoreboard,
* port selection specialized per FU,
* the known-address load path with its L1D-probe / MSHR-recycling
  branches, and the squash rules for operands or fills that become
  ready only after resolution,
* per-exit-point literal partial counters, so a mid-block squash
  (``fetch_c >= resolution``) returns bit-identical statistics.

The rendered function carries no per-core or per-window state: the
items list, ``wp_ready`` overlay, scoreboard, MSHR list, port free
lists, and cache access paths all arrive as arguments, so its code
lives in the shared block pool (``superblock._POOL``) under the config
fingerprint plus the block's timing-relevant content — fresh cores,
``Simulator`` instances and programs reuse pooled code instead of
re-rendering it.

Equivalence contract: running a block's function over items
``i .. i+length-1`` is cycle-for-cycle and counter-for-counter
identical to iterating the scalar executor body over those items,
including early squash exits.  The caller guarantees (a) the stream
has at least ``length`` items left and (b) ``items[i].pc`` equals the
block's start pc — which, by the fall-through property above, pins
every covered item to its rendered instruction.

Auditability: sources are assembled with numeric substitutions only,
from the fetch, issue and execute steps of
``repro.core.timingblock.STEP_TEMPLATES`` (passed ``wrong_path=True``)
plus this module's own ``STREAM_TEMPLATES``, and compiled through
:func:`repro.functional.superblock._compile_block` — one of the two
sanctioned ``exec`` sites.  simcheck SC003 dummy-renders every
template in ``STREAM_TEMPLATES`` and audits the parsed fragments
against this module's whitelist profile; the shared steps are audited
once, with ``timingblock``'s tables.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.timingblock import (BLOCK_BUILTINS, MAX_TIMING_BLOCK,
                                    STEP_TEMPLATES, _content_key, _emit,
                                    _emit_fetch, _emit_issue, _emit_ports,
                                    port_shape)
# _POOL: see the same import in repro.core.timingblock.
from repro.functional.superblock import _POOL, _compile_block


def cfg_fingerprint(cfg, hot, line_shift: int) -> tuple:
    """Everything outside the instruction stream that rendering bakes in."""
    return (cfg.fetch_width, cfg.frontend_depth, cfg.l1i_latency,
            cfg.l1d_latency, cfg.store_latency, cfg.mshr_entries,
            line_shift, port_shape(hot))


# -- statement templates -------------------------------------------------------
#
# One entry per executor step the timing superhandlers do not share
# (fetch, port binding, issue and the fixed-latency execute come from
# ``repro.core.timingblock.STEP_TEMPLATES``); ``{...}`` fields take
# integers (or the ``items[i + k]`` index) only.  simcheck SC003 renders
# each with dummy values and whitelists the resulting AST.

STREAM_TEMPLATES = {
    "head": ("def run(items, i, wp_ready, regready, mshrs, port_hot,\n"
             "        l1i_access, access_data, l1d_contains,\n"
             "        fetch_cycle, fetch_used, cur_line, resolution,"
             " executed):"),
    "prologue": ("wp_get = wp_ready.get\n"
                 "wa = 0\n"
                 "rec = 0"),
    "squash_exit": ("if fetch_c >= resolution:\n"
                    "    return ({k}, fetch_cycle, fetch_used, {line},"
                    " executed, {loads}, {stores}, wa, rec)"),
    "ready_head": "ready = fetch_c + {frontend_depth_1}",
    "ready_reg": ("t = wp_get({reg})\n"
                  "if t is None:\n"
                  "    t = regready[{reg}]\n"
                  "if t > ready:\n"
                  "    ready = t"),
    "exec_load": ("addr = items[i + {k}].mem_addr\n"
                  "if addr is None:\n"
                  "    complete = issue_c + {l1d_latency}\n"
                  "    wp_ready[{reg}] = complete\n"
                  "    if complete <= resolution:\n"
                  "        executed += 1\n"
                  "else:\n"
                  "    wa += 1\n"
                  "    rec += 1\n"
                  "    if issue_c >= resolution:\n"
                  "        wp_ready[{reg}] = resolution + 1\n"
                  "    else:\n"
                  "        ok = True\n"
                  "        if l1d_contains(addr):\n"
                  "            complete = issue_c"
                  " + access_data(addr, False, {pc}, True)\n"
                  "        else:\n"
                  "            if len(mshrs) >= {mshr_cap}:\n"
                  "                earliest = min(mshrs)\n"
                  "                if earliest >= resolution:\n"
                  "                    wp_ready[{reg}]"
                  " = resolution + 1\n"
                  "                    ok = False\n"
                  "                else:\n"
                  "                    mshrs.remove(earliest)\n"
                  "                    if earliest > issue_c:\n"
                  "                        issue_c = earliest\n"
                  "            if ok:\n"
                  "                complete = issue_c"
                  " + access_data(addr, False, {pc}, True)\n"
                  "                mshrs.append(complete)\n"
                  "        if ok:\n"
                  "            wp_ready[{reg}] = complete\n"
                  "            if complete <= resolution:\n"
                  "                executed += 1"),
    "exec_store": ("if items[i + {k}].mem_addr is not None:\n"
                   "    rec += 1\n"
                   "complete = issue_c + {store_latency}"),
    "write_reg": "wp_ready[{reg}] = complete",
    "executed_check": ("if complete <= resolution:\n"
                       "    executed += 1"),
    "tail": ("return ({length}, fetch_cycle, fetch_used, {line},"
             " executed, {loads}, {stores}, wa, rec)"),
}


def render_stream(instrs, cfg, hot, line_shift: int) -> str:
    """Source of the flat wrong-path stream function for ``instrs``."""
    base = {
        "fetch_width": cfg.fetch_width,
        "frontend_depth_1": cfg.frontend_depth + 1,
        "l1i_latency": cfg.l1i_latency,
        "l1d_latency": cfg.l1d_latency,
        "store_latency": cfg.store_latency,
        "mshr_cap": cfg.mshr_entries,
        "wrong_path": True,
    }
    t = STREAM_TEMPLATES
    out = [t["head"]]
    _emit(out, t["prologue"], {})
    _emit_ports(out, instrs)
    prev_line = None
    loads = stores = 0
    for k, ins in enumerate(instrs):
        line = ins.pc >> line_shift
        sub = dict(base, pc=ins.pc, line=line, k=k, fu=ins.fu,
                   loads=loads, stores=stores)
        _emit_fetch(out, sub, prev_line)
        prev_line = line
        _emit(out, t["squash_exit"], sub)
        _emit(out, t["ready_head"], sub)
        for reg in ins.reads:
            _emit(out, t["ready_reg"], dict(sub, reg=reg))
        fu_latency = _emit_issue(out, sub, hot)
        if ins.is_load:
            loads += 1
            _emit(out, t["exec_load"], dict(sub, reg=ins.writes[0]))
            continue
        if ins.is_store:
            stores += 1
            _emit(out, t["exec_store"], sub)
        else:
            _emit(out, STEP_TEMPLATES["exec_plain"],
                  dict(sub, latency=fu_latency))
        for reg in ins.writes:
            _emit(out, t["write_reg"], dict(sub, reg=reg))
        _emit(out, t["executed_check"], sub)
    _emit(out, t["tail"], dict(base, length=len(instrs), line=prev_line,
                               loads=loads, stores=stores))
    return "\n".join(out) + "\n"


def compile_stream(instrs, cfg, hot, line_shift: int,
                   fingerprint) -> Optional[Tuple]:
    """Compiled stream entry for one code-cache block.

    Returns ``(run, length)``, or None for an empty block and for a
    block holding a load with no destination register, which the
    ``exec_load`` template cannot express (no registry kernel has one;
    the scalar executor times such blocks).  ``run`` returns ``(done,
    fetch_cycle, fetch_used, cur_line, executed, loads, stores,
    with_addr, recovered)`` — ``done < length`` means the window
    squashed mid-block and the stream walk must stop.  Blocks longer
    than :data:`~repro.core.timingblock.MAX_TIMING_BLOCK` are
    truncated; the remainder re-enters as a suffix block.  A load with
    more than one destination register cannot happen in this ISA.
    """
    if len(instrs) > MAX_TIMING_BLOCK:
        instrs = instrs[:MAX_TIMING_BLOCK]
    if not instrs or any(ins.is_load and not ins.writes for ins in instrs):
        return None
    run = _compile_block(
        ("stream", fingerprint, _content_key(instrs)),
        lambda: render_stream(instrs, cfg, hot, line_shift), (),
        "<streamblock:%#x>" % instrs[0].pc, BLOCK_BUILTINS)
    return (run, len(instrs))

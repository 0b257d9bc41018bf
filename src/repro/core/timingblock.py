"""Per-basic-block timing superhandlers for the batched core loop.

:meth:`repro.core.ooo.OoOCore.process_batch` pays a long, branchy Python
loop body per simulated instruction even though almost everything that
body consults is *static*: the instruction's registers, FU, class flags,
its pc (hence its I-cache line), and every pipeline-width constant from
the config.  This module renders one flat function per memoized
code-cache block (see :meth:`repro.frontend.code_cache.CodeCache.block`)
with all of that baked in:

* register-dependence scans unrolled to constant ``regready`` indexing,
* port selection specialized per FU (single-port groups skip the scan),
* I-cache probes emitted only at the *static* line-crossing points
  inside the block (the entry instruction keeps its runtime check),
* the per-instruction ``CodeCache.insert`` membership test dropped
  entirely — a block exists *because* its pcs are already cached,
* class dispatch (`is_load`/`is_store`/...) resolved at render time.

The rendered function carries no per-core state: every mutable object
(the register scoreboard, ROB/LQ/SQ release deques, store buffer, cache
access paths, port free lists) arrives as an argument, so its code
lives in the shared block pool (``superblock._POOL``) keyed by the
config fingerprint plus the timing-relevant content of its
instructions.  Fresh cores — and fresh ``Simulator`` instances and
programs — reuse pooled code instead of re-rendering it, and snapshot
restore needs no special handling beyond the per-cache pc-map
invalidation (`CodeCache.load_state` drops it).

Equivalence contract: running a block's function is cycle-for-cycle and
stat-for-stat identical to iterating the scalar ``process_batch`` body
over the block's instructions.  Control-flow handling (prediction,
mispredict windows, taken redirects) stays in the caller: blocks end at
their control instruction, whose ``fetch_c``/``complete`` cycles are
returned for the caller's window arithmetic.  The determinism goldens
and the property suite pin the equivalence down.

The wrong-path stream superhandlers (:mod:`repro.wrongpath.streamblock`)
time their instructions with the same fetch and issue steps, so this
module also owns what the two renderers share: the step table
``STEP_TEMPLATES``, the emit helpers, the port-shape fingerprint and the
content key :func:`_content_key`.

Auditability: sources are assembled from the module-level statement
templates below (``STEP_TEMPLATES`` and ``TIMING_TEMPLATES``) with
numeric substitutions only, and compiled through
:func:`repro.functional.superblock._compile_block` — one of the two
sanctioned ``exec`` sites, and simcheck SC003 dummy-renders every
template in both tables and audits the parsed fragments against this
module's whitelist profile.
"""

from __future__ import annotations

from typing import Tuple

from repro.frontend.code_cache import BLOCK_CONTROL
# The shared block pool is bound here and in streamblock too: those are
# the two names perfbench's reset_jit_pools clears.
from repro.functional.superblock import _POOL, _compile_block

#: Longest rendered block; longer straight-line runs are split (the
#: remainder re-enters as a suffix block at its own start pc).
MAX_TIMING_BLOCK = 64

#: The only builtins timing and stream blocks reach.  Their code binds
#: no instruction objects (it reads ``buf``/``items`` instead), so they
#: pass none to ``_compile_block``.
BLOCK_BUILTINS = {"__builtins__": {"len": len, "min": min}}


def port_shape(hot) -> tuple:
    """The static shape of a core's ``PortFile.hot``: each FU group's
    port count, occupancy and latency.  The free lists themselves are
    passed per call, so only their shape is part of an artifact."""
    return tuple(sorted(
        (fu, len(free), busy, single, latency)
        for fu, (free, busy, single, latency) in hot.items()))


def cfg_fingerprint(cfg, hot, line_shift: int) -> tuple:
    """Everything outside the instruction stream that rendering bakes in.

    Two cores whose fingerprints match may share compiled blocks.
    """
    return (cfg.fetch_width, cfg.dispatch_width, cfg.commit_width,
            cfg.frontend_depth, cfg.rob_size, cfg.load_queue,
            cfg.store_queue, cfg.l1i_latency, cfg.store_latency,
            cfg.syscall_latency, cfg.forward_latency,
            cfg.taken_redirect_bubble, line_shift, port_shape(hot))


def _content_key(instrs) -> tuple:
    """The timing-relevant content of a block (program-independent:
    immediates are left out, so programs built from different seeds
    share timing and stream code)."""
    return tuple((ins.pc, ins.op, ins.fu, ins.reads, ins.writes,
                  ins.is_load, ins.is_store, ins.is_syscall)
                 for ins in instrs)


# -- statement templates -------------------------------------------------------
#
# One entry per pipeline step; ``{...}`` fields take integers, the
# ``wrong_path`` flag or the ``buf[i + k]`` index only.  simcheck SC003
# renders each with dummy values and whitelists the resulting AST, so
# any new statement shape must be added both here and to the audit's
# allow-lists.

#: Steps both block renderers emit: fetch (the stream renderer passes
#: ``wrong_path=True`` to the I-cache probe), port binding, the four
#: issue variants and the fixed-latency execute.
STEP_TEMPLATES = {
    "bind_port": "free_{fu} = port_hot[\"{fu}\"][0]",
    "fetch_entry": ("if {line} != cur_line:\n"
                    "    penalty = l1i_access({pc}, False, {wrong_path})"
                    " - {l1i_latency}\n"
                    "    if penalty > 0:\n"
                    "        fetch_cycle += penalty\n"
                    "        fetch_used = 0"),
    "fetch_cross": ("penalty = l1i_access({pc}, False, {wrong_path})"
                    " - {l1i_latency}\n"
                    "if penalty > 0:\n"
                    "    fetch_cycle += penalty\n"
                    "    fetch_used = 0"),
    "fetch_slot": ("fetch_c = fetch_cycle\n"
                   "fetch_used += 1\n"
                   "if fetch_used >= {fetch_width}:\n"
                   "    fetch_cycle = fetch_c + 1\n"
                   "    fetch_used = 0"),
    "issue_single": ("best_cycle = free_{fu}[0]\n"
                     "issue_c = ready if ready >= best_cycle"
                     " else best_cycle\n"
                     "free_{fu}[0] = issue_c + {busy}"),
    "issue_two": ("a = free_{fu}[0]\n"
                  "if a <= free_{fu}[1]:\n"
                  "    issue_c = ready if ready >= a else a\n"
                  "    free_{fu}[0] = issue_c + {busy}\n"
                  "else:\n"
                  "    a = free_{fu}[1]\n"
                  "    issue_c = ready if ready >= a else a\n"
                  "    free_{fu}[1] = issue_c + {busy}"),
    "issue_three": ("a = free_{fu}[0]\n"
                    "b = free_{fu}[1]\n"
                    "c = free_{fu}[2]\n"
                    "if a <= b and a <= c:\n"
                    "    issue_c = ready if ready >= a else a\n"
                    "    free_{fu}[0] = issue_c + {busy}\n"
                    "elif b <= c:\n"
                    "    issue_c = ready if ready >= b else b\n"
                    "    free_{fu}[1] = issue_c + {busy}\n"
                    "else:\n"
                    "    issue_c = ready if ready >= c else c\n"
                    "    free_{fu}[2] = issue_c + {busy}"),
    "issue_multi": ("best_cycle = min(free_{fu})\n"
                    "issue_c = ready if ready >= best_cycle"
                    " else best_cycle\n"
                    "free_{fu}[free_{fu}.index(best_cycle)]"
                    " = issue_c + {busy}"),
    "exec_plain": "complete = issue_c + {latency}",
}

#: Steps only the correct-path timing renderer emits: dispatch, the
#: store-forwarding load, register writes and retirement.
TIMING_TEMPLATES = {
    "head": ("def run(buf, i, regready, fetch_cycle, fetch_used,"
             " disp_cycle, disp_used,\n"
             "        com_cycle, com_used, cur_line, last_retire,\n"
             "        rob_rel, rob_popleft, rob_append, lq_rel,"
             " lq_popleft, lq_append,\n"
             "        sq_rel, sq_popleft, sq_append, sb_get,"
             " store_buffer,\n"
             "        access_data, l1i_access, port_hot):"),
    "dispatch_rob": ("dispatch_req = fetch_c + {frontend_depth}\n"
                     "if len(rob_rel) >= {rob_size}:\n"
                     "    oldest = rob_popleft()\n"
                     "    if oldest > dispatch_req:\n"
                     "        dispatch_req = oldest"),
    "dispatch_lq": ("if len(lq_rel) >= {load_queue}:\n"
                    "    oldest = lq_popleft()\n"
                    "    if oldest > dispatch_req:\n"
                    "        dispatch_req = oldest"),
    "dispatch_sq": ("if len(sq_rel) >= {store_queue}:\n"
                    "    oldest = sq_popleft()\n"
                    "    if oldest > dispatch_req:\n"
                    "        dispatch_req = oldest"),
    "dispatch_slot": ("if dispatch_req > disp_cycle:\n"
                      "    disp_cycle = dispatch_req\n"
                      "    disp_used = 0\n"
                      "dispatch_c = disp_cycle\n"
                      "disp_used += 1\n"
                      "if disp_used >= {dispatch_width}:\n"
                      "    disp_cycle = dispatch_c + 1\n"
                      "    disp_used = 0"),
    "ready": "ready = dispatch_c + 1",
    "ready_reg": ("t = regready[{reg}]\n"
                  "if t > ready:\n"
                  "    ready = t"),
    "exec_load": ("addr = buf[i + {k}].mem_addr\n"
                  "drain = sb_get(addr & -4)\n"
                  "if drain is not None and drain > issue_c:\n"
                  "    n_fwd += 1\n"
                  "    complete = issue_c + {forward_latency}\n"
                  "else:\n"
                  "    complete = issue_c + access_data(addr, False, {pc})"),
    "write_reg": "regready[{reg}] = complete",
    "retire": ("retire_req = complete + 1\n"
               "if retire_req < last_retire:\n"
               "    retire_req = last_retire\n"
               "if retire_req > com_cycle:\n"
               "    com_cycle = retire_req\n"
               "    com_used = 0\n"
               "retire_c = com_cycle\n"
               "com_used += 1\n"
               "if com_used >= {commit_width}:\n"
               "    com_cycle = retire_c + 1\n"
               "    com_used = 0\n"
               "last_retire = retire_c\n"
               "rob_append(retire_c)"),
    "retire_load": "lq_append(complete)",
    "retire_store": ("sq_append(retire_c)\n"
                     "addr = buf[i + {k}].mem_addr\n"
                     "access_data(addr, True, {pc})\n"
                     "store_buffer[addr & -4] = retire_c + 1"),
    "init_fwd": "n_fwd = 0",
    "tail": ("cur_line = {line}\n"
             "return (fetch_cycle, fetch_used, disp_cycle, disp_used,\n"
             "        com_cycle, com_used, cur_line, last_retire,"
             " {fwd},\n"
             "        fetch_c, complete)"),
}


# -- rendering helpers shared with repro.wrongpath.streamblock -----------------

def _emit(out, template: str, sub: dict) -> None:
    for line in template.format(**sub).split("\n"):
        out.append("    " + line)


def _emit_ports(out, instrs) -> None:
    """Bind each used FU group's free list once per call."""
    for fu in sorted({ins.fu for ins in instrs}):
        _emit(out, STEP_TEMPLATES["bind_port"], {"fu": fu})


def _emit_fetch(out, sub: dict, prev_line) -> None:
    """Fetch one instruction: an I-cache probe at the block entry
    (runtime line check) or at a static line crossing, then a slot."""
    if prev_line is None:
        _emit(out, STEP_TEMPLATES["fetch_entry"], sub)
    elif sub["line"] != prev_line:
        _emit(out, STEP_TEMPLATES["fetch_cross"], sub)
    _emit(out, STEP_TEMPLATES["fetch_slot"], sub)


def _emit_issue(out, sub: dict, hot) -> int:
    """Issue on ``sub["fu"]``'s ports with the scan specialized to the
    group's port count (sets ``sub["busy"]``); returns the FU latency."""
    free, busy, single, latency = hot[sub["fu"]]
    sub["busy"] = busy
    if single:
        issue = "issue_single"
    elif len(free) == 2:
        issue = "issue_two"
    elif len(free) == 3:
        issue = "issue_three"
    else:
        issue = "issue_multi"
    _emit(out, STEP_TEMPLATES[issue], sub)
    return latency


def render_timing(instrs, cfg, hot, line_shift: int) -> str:
    """Source of the flat timing function for ``instrs``.

    ``hot`` is the core's ``PortFile.hot`` mapping — only its static
    shape (port count, occupancy, latency per FU) is baked; the free
    lists are fetched from the ``port_hot`` argument at run time.
    """
    base = {
        "fetch_width": cfg.fetch_width,
        "dispatch_width": cfg.dispatch_width,
        "commit_width": cfg.commit_width,
        "frontend_depth": cfg.frontend_depth,
        "rob_size": cfg.rob_size,
        "load_queue": cfg.load_queue,
        "store_queue": cfg.store_queue,
        "l1i_latency": cfg.l1i_latency,
        "forward_latency": cfg.forward_latency,
        "wrong_path": False,
    }
    t = TIMING_TEMPLATES
    exec_plain = STEP_TEMPLATES["exec_plain"]
    out = [t["head"]]
    _emit_ports(out, instrs)
    has_load = any(ins.is_load for ins in instrs)
    if has_load:
        _emit(out, t["init_fwd"], {})
    prev_line = None
    for k, ins in enumerate(instrs):
        line = ins.pc >> line_shift
        sub = dict(base, pc=ins.pc, line=line, k=k, fu=ins.fu)
        _emit_fetch(out, sub, prev_line)
        prev_line = line
        _emit(out, t["dispatch_rob"], sub)
        if ins.is_load:
            _emit(out, t["dispatch_lq"], sub)
        elif ins.is_store:
            _emit(out, t["dispatch_sq"], sub)
        _emit(out, t["dispatch_slot"], sub)
        _emit(out, t["ready"], sub)
        for reg in ins.reads:
            _emit(out, t["ready_reg"], dict(sub, reg=reg))
        fu_latency = _emit_issue(out, sub, hot)
        if ins.is_load:
            _emit(out, t["exec_load"], sub)
        elif ins.is_store:
            _emit(out, exec_plain, dict(sub, latency=cfg.store_latency))
        elif ins.is_syscall:
            _emit(out, exec_plain, dict(sub, latency=cfg.syscall_latency))
        else:
            _emit(out, exec_plain, dict(sub, latency=fu_latency))
        for reg in ins.writes:
            _emit(out, t["write_reg"], dict(sub, reg=reg))
        _emit(out, t["retire"], sub)
        if ins.is_load:
            _emit(out, t["retire_load"], sub)
        elif ins.is_store:
            _emit(out, t["retire_store"], sub)
    _emit(out, t["tail"], {"line": prev_line,
                           "fwd": "n_fwd" if has_load else 0})
    return "\n".join(out) + "\n"


def compile_timing(instrs, cfg, hot, line_shift: int, fingerprint,
                   stop) -> Tuple:
    """Compiled timing entry for one code-cache block.

    Returns ``(run, length, ctl, loads, stores, syscalls)`` where
    ``ctl`` says the caller must run its control-flow handling on the
    block's last instruction, and the three counts are the block's
    static contributions to the batch counters.  Blocks longer than
    :data:`MAX_TIMING_BLOCK` are truncated (the remainder re-enters as
    a suffix block), which also clears ``ctl``.
    """
    ctl = stop is BLOCK_CONTROL
    if len(instrs) > MAX_TIMING_BLOCK:
        instrs = instrs[:MAX_TIMING_BLOCK]
        ctl = False
    run = _compile_block(
        ("timing", fingerprint, _content_key(instrs)),
        lambda: render_timing(instrs, cfg, hot, line_shift), (),
        "<timingblock:%#x>" % instrs[0].pc, BLOCK_BUILTINS)
    return (run, len(instrs), ctl,
            sum(1 for ins in instrs if ins.is_load),
            sum(1 for ins in instrs if ins.is_store),
            sum(1 for ins in instrs if ins.is_syscall))

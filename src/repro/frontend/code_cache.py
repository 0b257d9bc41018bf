"""The code cache of Section III-A.

"We implement a code cache between the functional and performance simulator,
keeping the information of past emulated instructions.  This cache is indexed
by the instruction address, and keeps the instruction decode information."

The timing simulator inserts every correct-path instruction it processes; the
wrong-path reconstruction models look up wrong-path addresses here.  If a
lookup misses, reconstruction stops and the model falls back to halting fetch
(the default mispredict behaviour).

The cache is unbounded — the paper's code cache is as large as the set of
static instructions seen so far, which is tiny compared to data.

Reconstruction walks the same straight-line runs of code over and over (every
mispredict window re-reads the loop bodies around the branch), so the cache
additionally memoizes *blocks*: maximal single-entry instruction runs ending
at the first control instruction, syscall, or missing address.  A block is a
pure function of the cache contents, so the memo is flushed whenever the
insert of a new pc changes them — which keeps block replay bit-identical to
an instruction-by-instruction walk while skipping the per-pc lookups.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.isa.instructions import INSTRUCTION_SIZE, Instruction

#: Why a memoized block ended (see :meth:`CodeCache.block`).
BLOCK_CONTROL = "control"
BLOCK_SYSCALL = "syscall"
BLOCK_MISS = "miss"

#: Distinguishes "no artifact cached" from a legitimately-None artifact
#: (an empty block compiles to None).
_ABSENT = object()


class CodeCache:
    """Instruction-address -> decode-info store."""

    #: Mutable state deliberately outside ``state_dict`` (SC008): the
    #: memoized blocks and every compiled-artifact layer are derived
    #: caches — ``load_state`` re-decodes from the pc list and the
    #: compilers rebuild on first execution, so snapshots stay small
    #: and free of process-specific code objects.  The ``*_warm``
    #: counters are compile heuristics that never affect results.
    SNAPSHOT_EXCLUDE = ("_blocks", "_artifacts", "_timing",
                        "_timing_warm", "_wpstream", "_wpstream_warm")

    def __init__(self):
        self._entries: Dict[int, Instruction] = {}
        # start pc -> (instructions, stop reason); flushed on any mutation.
        self._blocks: dict = {}
        # Compiled artifacts attached to memoized blocks (see
        # :meth:`block_compiled`); mirrors ``_blocks``' lifetime.
        self._artifacts: dict = {}
        # Compiled timing superhandlers (repro.core.timingblock):
        # start pc -> timing entry, mirrors ``_blocks``' lifetime.  The
        # code behind the entries lives in the shared content-addressed
        # block pool (superblock._POOL), so this map is only the
        # pc -> artifact index.  ``_timing_warm`` holds pre-compile
        # execution counts; it is a heuristic (never affects results)
        # and survives block invalidation and restores deliberately.
        self._timing: dict = {}
        self._timing_warm: dict = {}
        # Same scheme for the wrong-path stream superhandlers
        # (repro.wrongpath.streamblock): start pc -> (run, length) or
        # () for an empty block; mirrors ``_blocks``' lifetime.
        self._wpstream: dict = {}
        self._wpstream_warm: dict = {}
        self.lookups = 0
        self.misses = 0

    def insert(self, instr: Instruction) -> None:
        """Record the decode info of a correct-path instruction."""
        entries = self._entries
        if instr.pc in entries:
            return
        entries[instr.pc] = instr
        # Contents changed: every memoized block is suspect (a former miss
        # may now continue).
        self._blocks.clear()
        self._artifacts.clear()
        self._timing.clear()
        self._wpstream.clear()

    def lookup(self, pc: int) -> Optional[Instruction]:
        """Decode info for ``pc``, or None (reconstruction must stop)."""
        self.lookups += 1
        entry = self._entries.get(pc)
        if entry is None:
            self.misses += 1
        return entry

    def block(self, start_pc: int) -> Tuple[tuple, str]:
        """The memoized block starting at ``start_pc``.

        Returns ``(instructions, stop)`` where ``instructions`` is the run
        of cached instructions from ``start_pc`` up to and including the
        first control or syscall instruction, and ``stop`` says why the run
        ended (:data:`BLOCK_CONTROL` / :data:`BLOCK_SYSCALL` /
        :data:`BLOCK_MISS` — a miss block excludes the missing address).
        The ``lookups``/``misses`` counters are charged as if each covered
        pc had been :meth:`lookup`-ed individually, so memoization is
        invisible to cache-statistics consumers.
        """
        blk = self._block(start_pc)
        self.lookups += len(blk[0])
        if blk[1] is BLOCK_MISS:
            self.lookups += 1
            self.misses += 1
        return blk

    def _block(self, start_pc: int) -> Tuple[tuple, str]:
        """:meth:`block` minus the lookup/miss charging.

        The timing superhandler path uses this: the batched core loop
        never charged per-instruction lookups (it only inserts), so its
        block walks must stay invisible to the cache-statistics
        consumers that :meth:`block`'s charging serves.
        """
        blk = self._blocks.get(start_pc)
        if blk is None:
            instrs = []
            entries = self._entries
            pc = start_pc
            while True:
                instr = entries.get(pc)
                if instr is None:
                    blk = (tuple(instrs), BLOCK_MISS)
                    break
                instrs.append(instr)
                if instr.is_control:
                    blk = (tuple(instrs), BLOCK_CONTROL)
                    break
                if instr.is_syscall:
                    blk = (tuple(instrs), BLOCK_SYSCALL)
                    break
                pc += INSTRUCTION_SIZE
            self._blocks[start_pc] = blk
        return blk

    def block_compiled(self, start_pc: int, compiler) -> Tuple:
        """:meth:`block` plus a compiled artifact attached to the memo.

        ``compiler(instrs, stop)`` builds the artifact once per memoized
        block (it may return None for an empty run); invalidation
        (an insert flushes ``_blocks``) drops it with the block,
        and the next call re-attaches it from the shared block pool
        unless the contents actually changed.  Snapshot restore
        (:meth:`load_state`) drops it too — compiled state never
        round-trips through an image (DESIGN.md "Hot path
        architecture").

        Returns ``(instructions, stop, artifact)``; lookup/miss charging
        is exactly :meth:`block`'s.
        """
        instrs, stop = self.block(start_pc)
        artifact = self._artifacts.get(start_pc, _ABSENT)
        if artifact is _ABSENT:
            artifact = compiler(instrs, stop)
            self._artifacts[start_pc] = artifact
        return instrs, stop, artifact

    def __contains__(self, pc: int) -> bool:
        return pc in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    # -- warm-state capture/restore -----------------------------------------------

    def state_dict(self) -> dict:
        """Cached pcs in insertion order.  Decode info is *not*
        serialized — restore rebuilds it from the program's static
        instructions."""
        return {"pcs": list(self._entries)}

    def load_state(self, state: dict, pc_index) -> None:
        """Restore from a pc list, resolving decode info via ``pc_index``
        (a pc -> :class:`Instruction` mapping, e.g. ``program.pc_index``)."""
        entries = {}
        for pc in state["pcs"]:
            instr = pc_index.get(pc)
            if instr is None:
                raise ValueError(
                    f"code-cache pc {pc:#x} not in program text")
            entries[pc] = instr
        self._entries = entries
        self._blocks.clear()
        # Compiled attachments never round-trip through snapshot images:
        # first use re-attaches them against the restored contents.  The
        # warm counts are not snapshot state, so a restore keeps them.
        self._artifacts.clear()
        self._timing.clear()
        self._wpstream.clear()

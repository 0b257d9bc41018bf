"""Branch predictors.

The paper's techniques interact with the predictor in three ways:

1. The timing model predicts every correct-path conditional/indirect branch
   at fetch and detects mispredictions by comparing against the
   architectural outcome carried in the :class:`DynInstr`.
2. The predictor supplies the *wrong-path target* ("the next instruction if
   the branch is predicted not taken, the branch target if the branch is
   predicted taken, or the predicted target for an indirect branch").
3. Wrong-path branches are themselves predicted to steer reconstruction
   ("when a wrong-path branch is fetched, it is also predicted, and the
   predicted target is used to continue the wrong path") — these queries
   must not disturb predictor state, so they run against a
   :class:`SpeculativeState` overlay.

For ``wpemul``, the functional simulator keeps an identical predictor copy
(Section III-B).  Both copies observe the same correct-path branch sequence
through the same ``predict_and_update`` entry point, so they remain in
lockstep by construction.
"""

from __future__ import annotations

from typing import List, Optional

from repro.isa.instructions import Instruction, INSTRUCTION_SIZE


class BimodalPredictor:
    """Per-pc table of 2-bit saturating counters."""

    def __init__(self, table_bits: int = 13):
        if table_bits < 1:
            raise ValueError("table_bits must be >= 1")
        self.mask = (1 << table_bits) - 1
        self.table: List[int] = [2] * (1 << table_bits)  # weakly taken

    def _index(self, pc: int) -> int:
        return (pc >> 2) & self.mask

    def predict(self, pc: int, history: Optional[int] = None) -> bool:
        """History-blind; the optional ``history`` keeps the call signature
        uniform across direction predictors so callers need no dispatch."""
        return self.table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        idx = self._index(pc)
        ctr = self.table[idx]
        if taken:
            if ctr < 3:
                self.table[idx] = ctr + 1
        elif ctr > 0:
            self.table[idx] = ctr - 1

    def state_dict(self) -> dict:
        return {"table": list(self.table)}

    def load_state(self, state: dict) -> None:
        table = state["table"]
        if len(table) != len(self.table):
            raise ValueError("bimodal table size mismatch")
        self.table = list(table)


class GSharePredictor:
    """Global-history XOR-indexed 2-bit counter table."""

    def __init__(self, table_bits: int = 14, history_bits: int = 12):
        if table_bits < 1 or history_bits < 1:
            raise ValueError("table_bits and history_bits must be >= 1")
        self.mask = (1 << table_bits) - 1
        self.history_mask = (1 << history_bits) - 1
        self.table: List[int] = [2] * (1 << table_bits)
        self.history = 0

    def _index(self, pc: int, history: int) -> int:
        return ((pc >> 2) ^ history) & self.mask

    def predict(self, pc: int, history: Optional[int] = None) -> bool:
        h = self.history if history is None else history
        return self.table[self._index(pc, h)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        idx = self._index(pc, self.history)
        ctr = self.table[idx]
        if taken:
            if ctr < 3:
                self.table[idx] = ctr + 1
        elif ctr > 0:
            self.table[idx] = ctr - 1
        self.history = ((self.history << 1) | int(taken)) \
            & self.history_mask

    def state_dict(self) -> dict:
        return {"table": list(self.table), "history": self.history}

    def load_state(self, state: dict) -> None:
        table = state["table"]
        if len(table) != len(self.table):
            raise ValueError("gshare table size mismatch")
        self.table = list(table)
        self.history = state["history"]


class TournamentPredictor:
    """Bimodal/gshare hybrid with a per-pc chooser."""

    def __init__(self, table_bits: int = 14, history_bits: int = 12):
        self.bimodal = BimodalPredictor(table_bits - 1)
        self.gshare = GSharePredictor(table_bits, history_bits)
        self.chooser: List[int] = [2] * (1 << (table_bits - 1))
        self.chooser_mask = (1 << (table_bits - 1)) - 1

    @property
    def history(self) -> int:
        return self.gshare.history

    # Both components are table reads, so predict/update inline them
    # rather than paying four component-method calls per trained branch —
    # this predictor runs for every conditional in every technique.

    def predict(self, pc: int, history: Optional[int] = None) -> bool:
        key = pc >> 2
        if self.chooser[key & self.chooser_mask] >= 2:
            gshare = self.gshare
            h = gshare.history if history is None else history
            return gshare.table[(key ^ h) & gshare.mask] >= 2
        bimodal = self.bimodal
        return bimodal.table[key & bimodal.mask] >= 2

    def update(self, pc: int, taken: bool) -> None:
        key = pc >> 2
        bimodal = self.bimodal
        gshare = self.gshare
        bim_idx = key & bimodal.mask
        bim = bimodal.table[bim_idx] >= 2
        history = gshare.history
        gsh_idx = (key ^ history) & gshare.mask
        gsh = gshare.table[gsh_idx] >= 2
        if bim != gsh:
            idx = key & self.chooser_mask
            ctr = self.chooser[idx]
            if gsh == taken:
                if ctr < 3:
                    self.chooser[idx] = ctr + 1
            elif ctr > 0:
                self.chooser[idx] = ctr - 1
        ctr = bimodal.table[bim_idx]
        if taken:
            if ctr < 3:
                bimodal.table[bim_idx] = ctr + 1
        elif ctr > 0:
            bimodal.table[bim_idx] = ctr - 1
        ctr = gshare.table[gsh_idx]
        if taken:
            if ctr < 3:
                gshare.table[gsh_idx] = ctr + 1
        elif ctr > 0:
            gshare.table[gsh_idx] = ctr - 1
        gshare.history = ((history << 1) | int(taken)) \
            & gshare.history_mask

    def state_dict(self) -> dict:
        return {"bimodal": self.bimodal.state_dict(),
                "gshare": self.gshare.state_dict(),
                "chooser": list(self.chooser)}

    def load_state(self, state: dict) -> None:
        chooser = state["chooser"]
        if len(chooser) != len(self.chooser):
            raise ValueError("tournament chooser size mismatch")
        self.bimodal.load_state(state["bimodal"])
        self.gshare.load_state(state["gshare"])
        self.chooser = list(chooser)


class ReturnAddressStack:
    """Bounded circular return-address stack."""

    def __init__(self, depth: int = 32):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.depth = depth
        self._stack: List[int] = []

    def push(self, address: int) -> None:
        self._stack.append(address)
        if len(self._stack) > self.depth:
            self._stack.pop(0)

    def pop(self) -> Optional[int]:
        return self._stack.pop() if self._stack else None

    def copy_stack(self) -> List[int]:
        return self._stack.copy()

    def __len__(self) -> int:
        return len(self._stack)

    def state_dict(self) -> dict:
        return {"stack": list(self._stack)}

    def load_state(self, state: dict) -> None:
        stack = list(state["stack"])
        if len(stack) > self.depth:
            raise ValueError("RAS deeper than configured depth")
        self._stack = stack


class IndirectPredictor:
    """Last-target table for indirect jumps, history-hashed (ITTAGE-lite)."""

    def __init__(self, table_bits: int = 10):
        self.mask = (1 << table_bits) - 1
        self.table: List[Optional[int]] = [None] * (1 << table_bits)

    def _index(self, pc: int, history: int) -> int:
        return ((pc >> 2) ^ (history << 2)) & self.mask

    def predict(self, pc: int, history: int) -> Optional[int]:
        return self.table[self._index(pc, history)]

    def update(self, pc: int, history: int, target: int) -> None:
        self.table[self._index(pc, history)] = target

    def state_dict(self) -> dict:
        return {"table": list(self.table)}

    def load_state(self, state: dict) -> None:
        table = state["table"]
        if len(table) != len(self.table):
            raise ValueError("indirect table size mismatch")
        self.table = list(table)


class SpeculativeState:
    """Overlay used to steer wrong-path reconstruction without touching
    predictor state: a speculative global history and a RAS copy."""

    __slots__ = ("history", "ras")

    def __init__(self, history: int, ras: List[int]):
        self.history = history
        self.ras = ras


class BranchPredictorUnit:
    """Composite predictor: direction + RAS + indirect target.

    Direct branch/jump targets come from decode (the static instruction
    carries them), so the unit only predicts conditional *direction* and
    indirect *targets* — the two mispredict sources the paper models.
    """

    def __init__(self, kind: str = "tournament", table_bits: int = 14,
                 history_bits: int = 12, ras_depth: int = 32,
                 indirect_bits: int = 10):
        if kind == "perfect":
            # Oracle predictor: ``predict_and_update`` already receives the
            # architectural outcome, so a perfect unit simply returns it and
            # never mispredicts.  With zero mispredict windows all four
            # wrong-path techniques degenerate to identical timing — the
            # metamorphic property the differential fuzzer checks
            # (DESIGN.md §9).  No direction table exists; ``peek_next`` is
            # unreachable in a perfect run (no wrong paths to steer).
            self.direction = None
        elif kind == "bimodal":
            self.direction = BimodalPredictor(table_bits)
        elif kind == "gshare":
            self.direction = GSharePredictor(table_bits, history_bits)
        elif kind == "tournament":
            self.direction = TournamentPredictor(table_bits, history_bits)
        elif kind == "tage":
            from repro.branch.tage import TagePredictor
            self.direction = TagePredictor(table_bits=table_bits,
                                           max_history=max(history_bits,
                                                           16) * 4)
        else:
            raise ValueError(f"unknown predictor kind {kind!r}")
        self.kind = kind
        self._perfect = self.direction is None
        self.ras = ReturnAddressStack(ras_depth)
        self.indirect = IndirectPredictor(indirect_bits)
        # Hot-path bindings, resolved once: every direction predictor
        # shares the ``predict(pc, history=None)`` signature, and the mask
        # used to shift speculative history during wrong-path peeks is
        # fixed by the predictor kind.
        self._predict_direction = None if self._perfect \
            else self.direction.predict
        self._has_history = hasattr(self.direction, "history")
        if hasattr(self.direction, "history_mask"):
            self._spec_history_mask = self.direction.history_mask
        elif hasattr(self.direction, "gshare"):
            self._spec_history_mask = self.direction.gshare.history_mask
        else:
            self._spec_history_mask = None
        # Stats.
        self.cond_count = 0
        self.cond_mispredicts = 0
        self.indirect_count = 0
        self.indirect_mispredicts = 0

    @classmethod
    def from_config(cls, cfg) -> "BranchPredictorUnit":
        """Build from a :class:`repro.core.config.CoreConfig` (duck-typed to
        avoid a package cycle)."""
        return cls(kind=cfg.predictor_kind,
                   table_bits=cfg.predictor_table_bits,
                   history_bits=cfg.predictor_history_bits,
                   ras_depth=cfg.ras_depth,
                   indirect_bits=cfg.indirect_bits)

    # -- internal helpers ------------------------------------------------------

    @property
    def _history(self) -> int:
        return self.direction.history if self._has_history else 0

    # -- correct-path interface -------------------------------------------------

    def predict_and_update(self, instr: Instruction, taken: bool,
                           next_pc: int) -> int:
        """Predict the next pc for a correct-path control instruction, then
        train on the architectural outcome.  Returns the predicted next pc;
        the caller detects a mispredict as ``prediction != next_pc``.

        Must be called for every dynamic control instruction, in program
        order, by both the timing model and (in wpemul mode) the functional
        frontend, so the two predictor copies stay identical.
        """
        if self._perfect:
            # Oracle: still count the prediction opportunities (so MPKI
            # denominators stay meaningful) but never mispredict.
            if instr.is_branch:
                self.cond_count += 1
            elif instr.is_indirect:
                self.indirect_count += 1
            return next_pc
        pc = instr.pc
        if instr.is_branch:
            self.cond_count += 1
            pred_taken = self._predict_direction(pc)
            prediction = instr.target if pred_taken \
                else pc + INSTRUCTION_SIZE
            self.direction.update(pc, taken)
            if prediction != next_pc:
                self.cond_mispredicts += 1
            return prediction
        if instr.is_indirect:
            self.indirect_count += 1
            if instr.is_return:
                prediction = self.ras.pop()
            else:
                prediction = self.indirect.predict(pc, self._history)
            if prediction is None:
                prediction = pc + INSTRUCTION_SIZE  # no prediction: stall
            if instr.is_call:
                self.ras.push(pc + INSTRUCTION_SIZE)
            self.indirect.update(pc, self._history, next_pc)
            if prediction != next_pc:
                self.indirect_mispredicts += 1
            return prediction
        # Direct jump: target known at decode; never mispredicted.
        if instr.is_call:
            self.ras.push(pc + INSTRUCTION_SIZE)
        return instr.target if instr.target is not None else next_pc

    # -- warm-state capture/restore ---------------------------------------------

    def state_dict(self) -> dict:
        """Predictive state only (tables, histories, RAS, indirect targets).

        Stats counters are deliberately excluded: checkpointed sampling
        restores warm images into fresh units whose counters must start at
        zero for each detailed interval.  Mutating loads keep the unit's
        hot-path bindings (``_predict_direction`` etc.) valid.
        """
        return {
            "kind": self.kind,
            "direction": None if self._perfect
            else self.direction.state_dict(),
            "ras": self.ras.state_dict(),
            "indirect": self.indirect.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        if state["kind"] != self.kind:
            raise ValueError(
                f"predictor kind mismatch: snapshot has "
                f"{state['kind']!r}, unit is {self.kind!r}")
        if not self._perfect:
            self.direction.load_state(state["direction"])
        self.ras.load_state(state["ras"])
        self.indirect.load_state(state["indirect"])

    # -- wrong-path (speculative, non-mutating) interface -----------------------

    def speculative_state(self) -> SpeculativeState:
        return SpeculativeState(self._history, self.ras.copy_stack())

    def peek_next(self, instr: Instruction,
                  spec: SpeculativeState) -> Optional[int]:
        """Predict the next pc of a *wrong-path* control instruction.

        Updates only the speculative overlay (history shift, RAS push/pop).
        Returns None when no target can be produced (unseen indirect jump,
        empty speculative RAS) — reconstruction must stop there.
        """
        if self._perfect:
            return None  # no wrong paths exist to steer
        pc = instr.pc
        if instr.is_branch:
            pred_taken = self._predict_direction(pc, spec.history)
            mask = self._spec_history_mask
            if mask is not None:
                spec.history = ((spec.history << 1) | int(pred_taken)) \
                    & mask
            return instr.target if pred_taken else pc + INSTRUCTION_SIZE
        if instr.is_indirect:
            if instr.is_return:
                target = spec.ras.pop() if spec.ras else None
            else:
                target = self.indirect.predict(pc, spec.history)
            if instr.is_call:
                spec.ras.append(pc + INSTRUCTION_SIZE)
            return target
        if instr.is_call:
            spec.ras.append(pc + INSTRUCTION_SIZE)
        return instr.target

    # -- stats -------------------------------------------------------------------

    @property
    def mispredicts(self) -> int:
        return self.cond_mispredicts + self.indirect_mispredicts

    def mpki(self, instructions: int) -> float:
        """Mispredictions per kilo-instruction."""
        if instructions <= 0:
            return 0.0
        return 1000.0 * self.mispredicts / instructions

    def publish_metrics(self, registry) -> None:
        """Export prediction counters into an observability
        :class:`~repro.obs.metrics.MetricsRegistry` (duck-typed; called
        once at finalize, never on the prediction path)."""
        counter = registry.counter
        counter("predictor", "cond_count").add(self.cond_count)
        counter("predictor", "cond_mispredicts").add(self.cond_mispredicts)
        counter("predictor", "indirect_count").add(self.indirect_count)
        counter("predictor", "indirect_mispredicts") \
            .add(self.indirect_mispredicts)

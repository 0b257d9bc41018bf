"""The differential oracle: run one case under all four techniques.

A :class:`FuzzCase` is a (program source, config overrides) pair plus
bookkeeping; :func:`run_case` executes it under nowp/instrec/conv/
wpemul and a pure :class:`~repro.functional.emulator.Emulator`
reference, applying the oracle battery (DESIGN.md §9):

``build``
    The source assembles/compiles and the config validates.
``crash``
    No technique (and no reference run) raises.
``arch``
    Retired instruction count, final integer/float registers, final
    memory digest, program output, exit code and halt state are
    identical across all four techniques — and equal to the reference
    emulator when the program halts within the cap.  Wrong-path
    modeling must only ever change *microarchitectural* outcomes.
``roundtrip``
    Every result survives ``to_dict`` → JSON → ``from_dict`` →
    ``to_dict`` bit-identically.
``episode-align``
    conv and wpemul observe the *same* mispredict episode stream
    (branch pc/kind, predicted and actual targets, 1:1 and in order):
    mispredicts are decided by the predictor on the architectural
    stream, never by wrong-path timing.
``perfect-cycles``
    With ``predictor_kind="perfect"`` there are no mispredicts, hence
    no wrong-path windows, hence all four techniques report identical
    cycle counts and zero mispredicts.
``conv-addr``
    On the pc-lockstep prefix of each aligned episode pair, every
    address conv recovers equals the address wpemul's functional
    emulation actually computes — the paper's subset claim, checked
    per-position.  Applied only to address-safe programs
    (``frontend == "isa"``, see :mod:`repro.fuzz.progen`): a program
    whose address registers consume loaded values can legitimately
    disagree through wrong-path-time vs correct-path-time memory.
``jit``
    Each technique rerun with the warm gate forced eager (every block
    compiled on its first visit) reproduces the default-gate run: the
    same ``to_dict()`` minus ``wall_seconds`` and the same episode
    stream.  At the default gate most blocks of a short case stay
    scalar, so this is the oracle that runs the compiled block layers
    at fuzz scale against the scalar reference path.

:class:`FuzzCaseJob` adapts a case to the PR-1 experiment engine
(``kind="fuzz"`` in :data:`repro.engine.job.JOB_KINDS`), which is how
``repro fuzz --jobs K`` fans cases out over worker processes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from typing import Dict, List, Optional

from repro.core.config import CoreConfig

#: Oracles applied to every case.
BASE_ORACLES = ("build", "crash", "arch", "roundtrip", "episode-align",
                "perfect-cycles", "jit")

#: The episode-identity tuple both techniques must agree on.
_EPISODE_IDENTITY = ("branch_pc", "branch_kind", "predicted_target",
                     "actual_target")


@dataclasses.dataclass
class FuzzCase:
    """One generated (program, config) pair, as plain data."""

    SCHEMA = 1

    case_id: str
    frontend: str                       # "isa" | "minicc"
    source: str
    config_overrides: Dict = dataclasses.field(default_factory=dict)
    max_instructions: int = 20000
    seed: Optional[int] = None          # generator provenance

    def __post_init__(self):
        if self.frontend not in ("isa", "minicc"):
            raise ValueError(f"unknown frontend {self.frontend!r}")
        self.config_overrides = dict(self.config_overrides)

    def config(self) -> CoreConfig:
        return CoreConfig.scaled(**self.config_overrides)

    def build(self):
        """Assemble/compile the source into a Program (may raise)."""
        if self.frontend == "isa":
            from repro.isa.assembler import assemble
            return assemble(self.source)
        from repro.minicc import compile_to_program
        return compile_to_program(self.source)

    def to_dict(self) -> dict:
        return {
            "schema": self.SCHEMA,
            "case_id": self.case_id,
            "frontend": self.frontend,
            "source": self.source,
            "config_overrides": dict(self.config_overrides),
            "max_instructions": self.max_instructions,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FuzzCase":
        if data.get("schema") != cls.SCHEMA:
            raise ValueError(
                f"case schema {data.get('schema')!r} != {cls.SCHEMA}")
        return cls(case_id=data["case_id"], frontend=data["frontend"],
                   source=data["source"],
                   config_overrides=data["config_overrides"],
                   max_instructions=data["max_instructions"],
                   seed=data["seed"])

    def replace(self, **overrides) -> "FuzzCase":
        return dataclasses.replace(self, **overrides)

    def __repr__(self) -> str:
        return (f"<FuzzCase {self.case_id} {self.frontend} "
                f"{len(self.source.splitlines())} lines "
                f"{len(self.config_overrides)} overrides>")


@dataclasses.dataclass
class CaseOutcome:
    """What the oracle battery concluded about one case."""

    SCHEMA = 1

    case: FuzzCase
    findings: List[dict]
    checks: List[str]
    wall_seconds: float
    instructions: int

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def oracles(self) -> List[str]:
        """Sorted distinct oracle ids that fired."""
        return sorted({f["oracle"] for f in self.findings})

    def to_dict(self) -> dict:
        return {
            "schema": self.SCHEMA,
            "case": self.case.to_dict(),
            "findings": [dict(f) for f in self.findings],
            "checks": list(self.checks),
            "wall_seconds": self.wall_seconds,
            "instructions": self.instructions,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CaseOutcome":
        if data.get("schema") != cls.SCHEMA:
            raise ValueError(
                f"outcome schema {data.get('schema')!r} != {cls.SCHEMA}")
        return cls(case=FuzzCase.from_dict(data["case"]),
                   findings=[dict(f) for f in data["findings"]],
                   checks=list(data["checks"]),
                   wall_seconds=data["wall_seconds"],
                   instructions=data["instructions"])

    def __repr__(self) -> str:
        verdict = "ok" if self.ok else ",".join(self.oracles)
        return f"<CaseOutcome {self.case.case_id} {verdict}>"


@dataclasses.dataclass
class FuzzCaseJob:
    """Engine adapter: one case as an executor job (``kind="fuzz"``).

    Deliberately has no ``spec()`` method and no content key over a
    result cache — fuzz cases are one-shot by design, so no store reads
    or writes them (:func:`repro.engine.job.cacheable`), even behind a
    store-backed engine or daemon, and :attr:`key` only identifies the
    case in journals and in the daemon's in-flight dedupe.
    """

    kind = "fuzz"

    case: FuzzCase

    @property
    def key(self) -> str:
        blob = json.dumps(self.case.to_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    @property
    def label(self) -> str:
        return self.case.case_id

    def to_dict(self) -> dict:
        return {"case": self.case.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "FuzzCaseJob":
        return cls(case=FuzzCase.from_dict(data["case"]))

    def run(self) -> CaseOutcome:
        return run_case(self.case)

    @staticmethod
    def result_from_dict(payload: dict) -> CaseOutcome:
        return CaseOutcome.from_dict(payload)

    def __repr__(self) -> str:
        return f"<FuzzCaseJob {self.case.case_id}>"


# -- oracle battery ----------------------------------------------------------


def _arch_snapshot(sim, result) -> dict:
    """Architecturally visible end state of one technique's run.

    Floats are compared via ``hex()`` so two runs agree bit-for-bit,
    not merely within printing precision.
    """
    emu = sim.frontend.emulator
    return {
        "retired": result.stats.instructions,
        "instret": emu.instret,
        "halted": emu.halted,
        "exit_code": emu.exit_code,
        "x": list(emu.x),
        "f": [v.hex() for v in emu.f],
        "memory": emu.memory.digest(),
        "output": [v.hex() if isinstance(v, float) else v
                   for v in emu.output],
    }


def _reference_snapshot(emu) -> dict:
    return {
        "instret": emu.instret,
        "halted": emu.halted,
        "exit_code": emu.exit_code,
        "x": list(emu.x),
        "f": [v.hex() for v in emu.f],
        "memory": emu.memory.digest(),
        "output": [v.hex() if isinstance(v, float) else v
                   for v in emu.output],
    }


def _diff_keys(a: dict, b: dict) -> List[str]:
    return sorted(k for k in a if a[k] != b[k])


def _timeless(result) -> dict:
    data = result.to_dict()
    data.pop("wall_seconds")  # host timing is not deterministic
    return data


def _simulate(case: FuzzCase, program, config, technique: str):
    """One technique's run of ``case``: ``(simulator, result, episode
    records)``; raises what the simulator raises."""
    from repro.obs import Observability
    from repro.simulator.simulation import Simulator

    obs = Observability(keep_episodes=True, record_addresses=True,
                        label=f"{case.case_id}-{technique}")
    sim = Simulator(program, config=config, technique=technique,
                    max_instructions=case.max_instructions,
                    name=case.case_id, obs=obs)
    return sim, sim.run(), obs.records


def run_case(case: FuzzCase) -> CaseOutcome:
    """Execute one case under the full oracle battery."""
    from repro.functional.emulator import Emulator
    from repro.functional.superblock import forced_threshold
    from repro.simulator.simulation import ALL_TECHNIQUES, SimulationResult

    start = time.perf_counter()
    findings: List[dict] = []
    checks = ["build"]

    def done(instructions: int = 0) -> CaseOutcome:
        return CaseOutcome(case, findings, checks,
                           time.perf_counter() - start, instructions)

    try:
        program = case.build()
        config = case.config()
        config.validate()
    except Exception as exc:  # noqa: BLE001 — the build is the oracle
        findings.append({"oracle": "build", "technique": None,
                         "detail": f"{type(exc).__name__}: {exc}"})
        return done()

    checks.append("crash")
    sims: Dict[str, object] = {}
    results: Dict[str, object] = {}
    episodes: Dict[str, List[dict]] = {}
    for technique in ALL_TECHNIQUES:
        try:
            sims[technique], results[technique], episodes[technique] = \
                _simulate(case, program, config, technique)
        except Exception as exc:  # noqa: BLE001 — crash oracle
            findings.append({"oracle": "crash", "technique": technique,
                             "detail": f"{type(exc).__name__}: {exc}"})

    reference = Emulator(program)
    try:
        # Generous cap: the frontend may legitimately run ahead of the
        # processed-instruction cap by up to a queue depth.
        reference.run(2 * case.max_instructions + 10000)
    except Exception as exc:  # noqa: BLE001 — crash oracle
        findings.append({"oracle": "crash", "technique": "reference",
                         "detail": f"{type(exc).__name__}: {exc}"})
        reference = None

    instructions = 0
    if "nowp" in results:
        instructions = results["nowp"].stats.instructions

    # -- arch: cross-technique + reference equivalence ----------------------
    if len(results) == len(ALL_TECHNIQUES):
        checks.append("arch")
        snaps = {t: _arch_snapshot(sims[t], results[t])
                 for t in ALL_TECHNIQUES}
        base = snaps["nowp"]
        all_halted = all(s["halted"] for s in snaps.values())
        if not all_halted:
            # Cap-hit run: the frontend legitimately runs *ahead* of the
            # processed cap by an amount that depends on refill timing
            # (conv's queue peeks trigger extra refills), so only the
            # retired count is technique-comparable.
            snaps = {t: {"retired": s["retired"]}
                     for t, s in snaps.items()}
            base = snaps["nowp"]
        for technique in ALL_TECHNIQUES[1:]:
            diff = _diff_keys(base, snaps[technique])
            if diff:
                findings.append({
                    "oracle": "arch", "technique": technique,
                    "detail": f"diverges from nowp in {diff}",
                    "fields": diff})
        if reference is not None and reference.halted and all_halted:
            ref = _reference_snapshot(reference)
            base_ref = {k: base[k] for k in ref}
            diff = _diff_keys(ref, base_ref)
            if diff:
                findings.append({
                    "oracle": "arch", "technique": "reference",
                    "detail": f"simulated run diverges from pure "
                              f"emulation in {diff}",
                    "fields": diff})

    # -- roundtrip: to_dict -> JSON -> from_dict -> to_dict -----------------
    checks.append("roundtrip")
    for technique, result in sorted(results.items()):
        try:
            blob = json.dumps(result.to_dict(), sort_keys=True)
            rebuilt = SimulationResult.from_dict(json.loads(blob))
            again = json.dumps(rebuilt.to_dict(), sort_keys=True)
        except Exception as exc:  # noqa: BLE001 — roundtrip oracle
            findings.append({"oracle": "roundtrip",
                             "technique": technique,
                             "detail": f"{type(exc).__name__}: {exc}"})
            continue
        if again != blob:
            findings.append({"oracle": "roundtrip",
                             "technique": technique,
                             "detail": "to_dict changed across "
                                       "serialization round-trip"})

    # -- episode-align + conv-addr ------------------------------------------
    aligned = []
    if "conv" in episodes and "wpemul" in episodes:
        checks.append("episode-align")
        conv_eps = episodes["conv"]
        wp_eps = episodes["wpemul"]
        if len(conv_eps) != len(wp_eps):
            findings.append({
                "oracle": "episode-align", "technique": "conv",
                "detail": f"episode count {len(conv_eps)} != "
                          f"wpemul {len(wp_eps)}"})
        for conv_ep, wp_ep in zip(conv_eps, wp_eps):
            ident_c = tuple(conv_ep[k] for k in _EPISODE_IDENTITY)
            ident_w = tuple(wp_ep[k] for k in _EPISODE_IDENTITY)
            if ident_c != ident_w:
                findings.append({
                    "oracle": "episode-align", "technique": "conv",
                    "detail": f"episode {conv_ep['episode']} identity "
                              f"{ident_c} != wpemul {ident_w}"})
                continue
            aligned.append((conv_ep, wp_ep))

    if case.frontend == "isa" and aligned:
        checks.append("conv-addr")
        for conv_ep, wp_ep in aligned:
            conv_addrs = conv_ep["wp_addresses"]
            wp_addrs = wp_ep["wp_addresses"]
            if not conv_addrs or not wp_addrs:
                continue
            for i in range(min(len(conv_addrs), len(wp_addrs))):
                c_pc, c_addr = conv_addrs[i]
                w_pc, w_addr = wp_addrs[i]
                if c_pc != w_pc:
                    break  # reconstruction diverged from the true path
                if c_addr is not None and c_addr != w_addr:
                    findings.append({
                        "oracle": "conv-addr", "technique": "conv",
                        "detail": f"episode {conv_ep['episode']} "
                                  f"item {i} pc={c_pc:#x}: recovered "
                                  f"address {c_addr:#x} != wpemul "
                                  f"{w_addr if w_addr is None else hex(w_addr)}"})
                    break  # one finding per episode is enough

    # -- perfect-cycles ------------------------------------------------------
    if config.predictor_kind == "perfect" \
            and len(results) == len(ALL_TECHNIQUES):
        checks.append("perfect-cycles")
        cycles = {t: results[t].stats.cycles for t in ALL_TECHNIQUES}
        if len(set(cycles.values())) != 1:
            findings.append({
                "oracle": "perfect-cycles", "technique": None,
                "detail": f"cycle counts differ under a perfect "
                          f"predictor: {cycles}"})
        for technique, result in sorted(results.items()):
            bpu = result.bpu_stats
            wrong = (bpu["cond_mispredicts"]
                     + bpu["indirect_mispredicts"])
            if wrong or result.stats.mispredict_windows:
                findings.append({
                    "oracle": "perfect-cycles", "technique": technique,
                    "detail": f"perfect predictor mispredicted "
                              f"({wrong} bpu, "
                              f"{result.stats.mispredict_windows} "
                              f"windows)"})

    # -- jit: every block compiled on its first visit changes nothing -------
    if results:
        checks.append("jit")
        with forced_threshold(1):
            for technique, result in sorted(results.items()):
                try:
                    _, eager, eager_episodes = _simulate(
                        case, program, config, technique)
                except Exception as exc:  # noqa: BLE001 — jit oracle
                    findings.append({
                        "oracle": "jit", "technique": technique,
                        "detail": f"eager gate: "
                                  f"{type(exc).__name__}: {exc}"})
                    continue
                diff = _diff_keys(_timeless(result), _timeless(eager))
                if eager_episodes != episodes[technique]:
                    diff.append("episodes")
                if diff:
                    findings.append({
                        "oracle": "jit", "technique": technique,
                        "detail": f"eager gate diverges from the default "
                                  f"gate in {diff}",
                        "fields": diff})

    return done(instructions)

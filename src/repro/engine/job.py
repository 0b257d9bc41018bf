"""Job specification: one simulation as content-addressed data.

A :class:`SimJob` names everything that determines a simulation's outcome
— workload (registry name, scale, data seed), technique, instruction cap
and the resolved :class:`~repro.core.config.CoreConfig` — and derives a
stable SHA-256 identity from it plus a fingerprint of the ``repro``
source tree.  Two jobs with the same hash are guaranteed to produce
bit-identical stats (a tested invariant, see ``tests/test_engine.py``),
which is what lets the result store skip re-simulation and the executor
ship jobs to worker processes as plain dicts.

This module is the one home of the result cache's contract for every
job kind: the key bytes (:func:`content_key`, pinned by
``tests/test_job_keys.py``), what is cached (:func:`cacheable`), the
config and workload a job's fields name (:func:`resolve_config`,
:func:`build_job_workload`) and the key-partition check
(:func:`_assert_key_partition`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
from typing import Dict, Optional, Tuple

from repro.core.config import CoreConfig

#: Base-configuration presets a job can start from before overrides.
BASE_CONFIGS = ("scaled", "full")

#: Registry of job kinds the executor can ship to worker processes.
#: Values are ``(module, attr)`` import paths, resolved lazily by
#: :func:`job_class` so the engine never imports non-engine packages at
#: load time (``repro.fuzz`` imports the engine, not vice versa).  A job
#: class provides ``kind`` (a bare class attribute matching its registry
#: entry), ``to_dict``/``from_dict``, ``run`` (returning a result with a
#: ``to_dict``), a ``result_from_dict`` staticmethod, ``key`` and
#: ``label``.  A kind that also defines ``spec()`` is cached (see
#: :func:`cacheable`): its ``key`` is ``content_key(self.spec())`` and it
#: declares ``KEYED_FIELDS``/``KEY_EXCLUDED_FIELDS`` for
#: :func:`_assert_key_partition`.  Populate through
#: :func:`register_job_kind`, never by mutating the dict: duplicate
#: registration must fail loudly, or two subsystems would silently
#: fight over one transport tag.
JOB_KINDS: Dict[str, Tuple[str, str]] = {}


def register_job_kind(kind: str, module: str, attr: str) -> None:
    """Register a job kind for executor/daemon transport.

    Raises ``ValueError`` when ``kind`` is already taken by a different
    class; re-registering the identical entry is a no-op so repeated
    imports stay safe.
    """
    existing = JOB_KINDS.get(kind)
    if existing is not None and existing != (module, attr):
        raise ValueError(
            f"job kind {kind!r} is already registered to "
            f"{existing[0]}.{existing[1]}; refusing to rebind it to "
            f"{module}.{attr}")
    JOB_KINDS[kind] = (module, attr)


register_job_kind("sim", "repro.engine.job", "SimJob")
register_job_kind("fuzz", "repro.fuzz.oracle", "FuzzCaseJob")
register_job_kind("sample", "repro.simulator.sampling",
                  "SampleIntervalJob")
register_job_kind("predict", "repro.analysis.surrogate.job",
                  "PredictJob")


def job_class(kind: str):
    """Resolve a registered job kind to its class (worker-side entry)."""
    try:
        module, attr = JOB_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown job kind {kind!r}; "
                         f"choose from {sorted(JOB_KINDS)}") from None
    return getattr(importlib.import_module(module), attr)


def job_to_transport(job) -> dict:
    """Cross-process/cross-socket form of a job: its kind tag plus its
    plain-dict spec.  The kind routes the payload back through
    :func:`job_class` on the receiving side, so the executor and the
    sweep daemon run any registered job kind without importing it."""
    return {"kind": job.kind, "job": job.to_dict()}


def job_from_transport(data: dict):
    """Rebuild a live job from :func:`job_to_transport` output."""
    return job_class(data["kind"]).from_dict(data["job"])

_CODE_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-256 over every ``.py`` file of the installed ``repro`` package.

    Folding the code version into job hashes means any source change —
    a timing-model fix, a new default — invalidates the on-disk result
    cache automatically, so stale results can never masquerade as fresh
    ones.  Set ``REPRO_CODE_FINGERPRINT`` to pin a value (e.g. a release
    tag) and skip the tree walk.
    """
    global _CODE_FINGERPRINT
    pinned = os.environ.get("REPRO_CODE_FINGERPRINT")
    if pinned:
        return pinned
    if _CODE_FINGERPRINT is None:
        import repro
        root = os.path.dirname(os.path.abspath(repro.__file__))
        digest = hashlib.sha256()
        for dirpath, dirnames, filenames in sorted(os.walk(root)):
            dirnames.sort()
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                digest.update(os.path.relpath(path, root).encode())
                digest.update(b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
                digest.update(b"\0")
        _CODE_FINGERPRINT = digest.hexdigest()
    return _CODE_FINGERPRINT


def content_key(spec: dict) -> str:
    """The key a cached job's result is stored under: SHA-256 over the
    canonical JSON of ``spec`` plus :func:`code_fingerprint`.  Every
    kind's ``key`` property returns ``content_key(self.spec())``."""
    payload = {"spec": spec, "code": code_fingerprint()}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def cacheable(job) -> bool:
    """Whether ``job``'s result is read from and written to a result
    store: iff its kind defines ``spec()``, the hash basis simcheck rule
    SC004 checks.  Other kinds (fuzz cases) have no key over the code
    version, so a stored outcome could outlive the code that produced
    it.  A cached kind's key partition is checked on every call, so no
    job reaches a store under a key that misses one of its fields."""
    if not hasattr(type(job), "spec"):
        return False
    _assert_key_partition(type(job))
    return True


def check_base_config(base_config: str) -> None:
    """Raise ``ValueError`` unless ``base_config`` is one of
    :data:`BASE_CONFIGS`; job kinds call it at construction."""
    if base_config not in BASE_CONFIGS:
        raise ValueError(f"unknown base_config {base_config!r}; "
                         f"choose from {BASE_CONFIGS}")


def resolve_config(base_config: str,
                   overrides: Optional[Dict] = None) -> CoreConfig:
    """The :class:`CoreConfig` a job simulates: the ``base_config``
    preset with ``overrides`` applied."""
    check_base_config(base_config)
    overrides = overrides or {}
    if base_config == "full":
        return CoreConfig().copy(**overrides)
    return CoreConfig.scaled(**overrides)


def build_job_workload(workload: str, scale: str, seed: Optional[int]):
    """Build the registry workload a job names, unchecked, with the
    workload's default data seed unless ``seed`` is set."""
    from repro.workloads import build_workload
    kwargs = {"scale": scale, "check": False}
    if seed is not None:
        kwargs["seed"] = seed
    return build_workload(workload, **kwargs)


@dataclasses.dataclass
class SimJob:
    """One (workload × technique × config) simulation, as plain data."""

    #: Executor transport kind (see :data:`JOB_KINDS`).  A bare class
    #: attribute, not a dataclass field, so it stays out of the cache-key
    #: partition and of ``to_dict``.
    kind = "sim"

    #: Fields folded into the content hash: every one of these is
    #: reachable from :meth:`spec`, so two jobs differing in any of them
    #: get different keys.  simcheck rule SC004 verifies the
    #: reachability statically; :func:`_assert_key_partition` re-checks
    #: the partition at import time.
    KEYED_FIELDS = frozenset({
        "workload", "technique", "scale", "seed", "max_instructions",
        "base_config", "config_overrides",
    })
    #: Fields deliberately NOT part of the hash.  Only side-effect-free
    #: run options belong here: an excluded field must be provably
    #: unable to change the simulated result (``trace_dir`` set the
    #: precedent — a traced and an untraced run are bit-identical and
    #: must share a cache entry).
    KEY_EXCLUDED_FIELDS = frozenset({"trace_dir"})

    workload: str                       # full registry name, e.g. "gap.bfs"
    technique: str = "conv"
    scale: str = "small"
    seed: Optional[int] = None          # workload data seed (None = default)
    max_instructions: Optional[int] = None
    base_config: str = "scaled"         # one of BASE_CONFIGS
    config_overrides: Dict = dataclasses.field(default_factory=dict)
    #: Episode-trace output directory (repro.obs).  Deliberately NOT part
    #: of :meth:`spec`/:attr:`key`: tracing is side-effect-free, so a
    #: traced and an untraced run produce identical results and must
    #: share a cache entry.  It does ride along in :meth:`to_dict` so
    #: pool workers trace too.
    trace_dir: Optional[str] = None

    def __post_init__(self):
        check_base_config(self.base_config)
        self.config_overrides = dict(self.config_overrides)

    # -- identity ----------------------------------------------------------------

    def config(self) -> CoreConfig:
        """The fully resolved core configuration this job simulates."""
        return resolve_config(self.base_config, self.config_overrides)

    def spec(self) -> dict:
        """The job's input parameters (hash basis, minus code version)."""
        return {
            "workload": self.workload,
            "technique": self.technique,
            "scale": self.scale,
            "seed": self.seed,
            "max_instructions": self.max_instructions,
            "base_config": self.base_config,
            "config": dataclasses.asdict(self.config()),
        }

    @property
    def key(self) -> str:
        """Content hash: SHA-256 of the canonical spec + code version."""
        return content_key(self.spec())

    @property
    def label(self) -> str:
        parts = [self.workload, self.technique]
        if self.config_overrides:
            parts.append(",".join(f"{k}={v}" for k, v in
                                  sorted(self.config_overrides.items())))
        return "/".join(parts)

    # -- transport ---------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "technique": self.technique,
            "scale": self.scale,
            "seed": self.seed,
            "max_instructions": self.max_instructions,
            "base_config": self.base_config,
            "config_overrides": dict(self.config_overrides),
            "trace_dir": self.trace_dir,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimJob":
        return cls(**data)

    @staticmethod
    def result_from_dict(payload: dict):
        """Rehydrate this job kind's result payload (executor harvest)."""
        from repro.simulator.simulation import SimulationResult
        return SimulationResult.from_dict(payload)

    # -- execution ---------------------------------------------------------------

    def run(self):
        """Build the workload and simulate it; returns a live
        :class:`~repro.simulator.simulation.SimulationResult`.  With
        :attr:`trace_dir` set, the run writes an episode trace labeled
        after the job (``gap.bfs/conv`` -> ``gap.bfs-conv``)."""
        from repro.simulator.simulation import Simulator
        config = self.config()
        config.validate()
        workload = build_job_workload(self.workload, self.scale, self.seed)
        obs = None
        if self.trace_dir is not None:
            from repro.obs import Observability
            obs = Observability(trace_dir=self.trace_dir,
                                label=self.label)
        return Simulator(workload.program, config=config,
                         technique=self.technique,
                         max_instructions=self.max_instructions,
                         name=workload.name, obs=obs).run()

    def __repr__(self) -> str:
        return f"<SimJob {self.label} scale={self.scale} [{self.key[:12]}]>"


def _assert_key_partition(cls=SimJob) -> None:
    """Raise if a field of the cached job kind ``cls`` is neither in its
    ``KEYED_FIELDS`` nor in its ``KEY_EXCLUDED_FIELDS``.

    A field that silently misses the SHA-256 key would make distinct
    jobs share a cache entry — the result store would then serve wrong
    results with no error anywhere downstream.  Raising here turns that
    silent corruption into a loud failure the moment someone adds a
    field without deciding which side of the partition it lives on
    (the static mirror of this check is simcheck rule SC004).  It runs
    for :class:`SimJob` when this module is imported, and for every
    kind with ``spec()`` whenever :func:`cacheable` admits one of its
    jobs.
    """
    fields = {f.name for f in dataclasses.fields(cls)}
    keyed, excluded = cls.KEYED_FIELDS, cls.KEY_EXCLUDED_FIELDS
    declared = keyed | excluded
    overlap = keyed & excluded
    if fields != declared or overlap:
        problems = []
        for name in sorted(fields - declared):
            problems.append(
                f"field {name!r} is neither in KEYED_FIELDS nor "
                f"KEY_EXCLUDED_FIELDS")
        for name in sorted(declared - fields):
            problems.append(f"declared field {name!r} does not exist "
                            f"on {cls.__name__}")
        for name in sorted(overlap):
            problems.append(f"field {name!r} is both keyed and "
                            f"excluded")
        raise RuntimeError(
            f"{cls.__name__} cache-key partition is stale: "
            + "; ".join(problems))


_assert_key_partition()

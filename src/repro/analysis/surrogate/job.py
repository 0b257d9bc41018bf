"""``kind="predict"`` — surrogate batches as first-class engine jobs.

Shipping predictions through the engine (rather than calling the model
inline) buys the surrogate everything sim jobs already have: transport
to pool workers and the sweep daemon, journaling, and — the point —
**content-addressed caching**.  A :class:`PredictJob`'s key covers the
queried points *and the model's content digest*, so retraining the
model changes every prediction key and a stale model can never be
served from cache; asking the same model the same grid twice is a pure
cache hit.

The model artifact itself rides in the job dict (workers rebuild the
model from it) but is **excluded from the hash** — the digest already
pins its content, and ``__post_init__`` enforces that the digest and
the artifact agree, so the excluded field provably cannot decouple
from the key.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional

from repro.analysis.surrogate.model import SurrogateModel
from repro.analysis.surrogate.predict import Prediction, predict_jobs
from repro.engine.job import SimJob, content_key


class PredictBatch:
    """The stored result of one predict job.

    Carries the journal surface the engine expects of every result
    (``wall_seconds``; ``instructions`` is 0 — no instruction was
    simulated, and rate summaries must not count predicted ones).
    """

    SCHEMA = 1

    def __init__(self, predictions: List[Prediction],
                 model_digest: str, wall_seconds: float = 0.0,
                 instructions: int = 0):
        self.predictions = list(predictions)
        self.model_digest = model_digest
        self.wall_seconds = wall_seconds
        self.instructions = instructions

    def to_dict(self) -> dict:
        return {
            "schema": self.SCHEMA,
            "predictions": [p.to_dict() for p in self.predictions],
            "model_digest": self.model_digest,
            "wall_seconds": self.wall_seconds,
            "instructions": self.instructions,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PredictBatch":
        if data.get("schema") != cls.SCHEMA:
            raise ValueError(
                f"PredictBatch schema {data.get('schema')!r} != "
                f"{cls.SCHEMA}")
        return cls(
            predictions=[Prediction.from_dict(p)
                         for p in data["predictions"]],
            model_digest=data["model_digest"],
            wall_seconds=data["wall_seconds"],
            instructions=data["instructions"])

    def __repr__(self) -> str:
        return (f"<PredictBatch {len(self.predictions)} predictions "
                f"model={self.model_digest[:12]}>")


@dataclasses.dataclass
class PredictJob:
    """One surrogate query batch, as content-addressed data."""

    kind = "predict"

    #: Hash partition (simcheck SC004): the queried points and the
    #: model's content digest determine every prediction, so both are
    #: keyed.  The artifact payload is excluded — its identity is
    #: exactly ``model_digest`` (enforced below), so keying it too
    #: would only bloat the hash input by megabytes.
    KEYED_FIELDS = frozenset({"model_digest", "points"})
    KEY_EXCLUDED_FIELDS = frozenset({"model"})

    model_digest: str
    points: List[Dict]                  # SimJob.to_dict() per queried point
    #: The model artifact (``SurrogateModel.to_dict()``), carried for
    #: workers.  May be None on index/audit paths that never run().
    model: Optional[Dict] = None

    def __post_init__(self):
        self.points = [dict(p) for p in self.points]
        if self.model is not None:
            actual = SurrogateModel.from_dict(self.model).digest()
            if actual != self.model_digest:
                raise ValueError(
                    f"model artifact digest {actual[:12]} does not "
                    f"match declared model_digest "
                    f"{self.model_digest[:12]}")

    @classmethod
    def for_jobs(cls, model: SurrogateModel,
                 jobs: List[SimJob]) -> "PredictJob":
        """Batch up live sim-job shapes for a trained model."""
        return cls(model_digest=model.digest(),
                   points=[job.to_dict() for job in jobs],
                   model=model.to_dict())

    # -- identity ----------------------------------------------------------------

    def spec(self) -> dict:
        return {
            "kind": "predict",
            "model_digest": self.model_digest,
            "points": [dict(p) for p in self.points],
        }

    @property
    def key(self) -> str:
        return content_key(self.spec())

    @property
    def label(self) -> str:
        return (f"predict/{len(self.points)}pts"
                f"/{self.model_digest[:12]}")

    # -- transport ---------------------------------------------------------------

    def to_dict(self) -> dict:
        return {"model_digest": self.model_digest,
                "points": [dict(p) for p in self.points],
                "model": dict(self.model)
                if self.model is not None else None}

    @classmethod
    def from_dict(cls, data: dict) -> "PredictJob":
        return cls(**data)

    @staticmethod
    def result_from_dict(payload: dict) -> PredictBatch:
        return PredictBatch.from_dict(payload)

    # -- execution ---------------------------------------------------------------

    def jobs(self) -> List[SimJob]:
        """The queried points as live sim jobs."""
        return [SimJob.from_dict(p) for p in self.points]

    def run(self) -> PredictBatch:
        if self.model is None:
            raise ValueError(
                "PredictJob carries no model artifact; build it with "
                "PredictJob.for_jobs(model, jobs) to run")
        started = time.perf_counter()
        model = SurrogateModel.from_dict(self.model)
        predictions = predict_jobs(model, self.jobs())
        return PredictBatch(
            predictions=predictions, model_digest=self.model_digest,
            wall_seconds=time.perf_counter() - started)

    def __repr__(self) -> str:
        return f"<PredictJob {self.label} [{self.key[:12]}]>"

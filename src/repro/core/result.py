"""Evaluation records and tuning histories.

Every autotuner in this repository (BaCO and the baselines) produces a
:class:`TuningHistory`: the ordered list of black-box evaluations it
performed.  All of the paper's metrics — best-found runtime after a budget,
performance relative to the expert configuration, number of evaluations
needed to match a baseline — are derived from these histories by
:mod:`repro.experiments.metrics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Protocol, Sequence

import numpy as np

from . import schema

__all__ = [
    "PHASES",
    "ObjectiveResult",
    "ObjectiveFunction",
    "Evaluation",
    "TuningHistory",
    "check_evaluations",
    "configuration_to_json",
    "configuration_from_json",
    "history_declaration",
]

#: the phase a tuner tags each proposal with
PHASES = ("initial", "learning")


def configuration_to_json(configuration: Mapping[str, Any]) -> dict[str, Any]:
    """A configuration as a JSON-safe dict (permutation tuples become lists)."""
    return {
        k: (list(v) if isinstance(v, tuple) else v) for k, v in configuration.items()
    }


def configuration_from_json(payload: Mapping[str, Any]) -> dict[str, Any]:
    """Inverse of :func:`configuration_to_json` (lists become tuples)."""
    return {
        k: (tuple(v) if isinstance(v, list) else v) for k, v in payload.items()
    }


def history_declaration(
    configuration: Any,
    columns: Callable[[list], bool],
    tuner: Any = schema.string,
    benchmark: Any = schema.string,
    seed: Any = schema.nullable(schema.integer()),
    timings: bool = True,
) -> dict[str, Any]:
    """The declaration of :meth:`TuningHistory.to_dict` output whose
    configurations match ``configuration`` and whose ``tuner``, ``benchmark``
    and ``seed`` match theirs; without ``timings``, as in a history cache
    file, the wall-clock fields are absent.  ``columns`` takes the
    evaluations whole (:class:`~repro.core.schema.columns`), and the walk
    checks them entry by entry only when it rejects them."""
    seconds = schema.number(at_least=0)
    timed = {"tuner_seconds": seconds, "evaluation_seconds": seconds} if timings else {}
    evaluation = {
        "index": schema.integer(0),
        "configuration": configuration,
        "value": schema.number(),
        "feasible": schema.boolean,
        "phase": schema.one_of(*PHASES),
    }
    return {"tuner": tuner, "benchmark": benchmark, "seed": seed, **timed,
            "evaluations": schema.columns(evaluation, columns)}


def check_evaluations(payload: Mapping[str, Any], path: str) -> None:
    """A declared history's cross-field rules: evaluation ``i`` has index
    ``i``, and a feasible one a finite value."""
    for i, entry in enumerate(payload["evaluations"]):
        field = schema.join(path, f"evaluations[{i}]")
        if entry["index"] != i:
            schema.fail(f"{field}.index", str(i), entry["index"])
        if entry["feasible"] and not math.isfinite(entry["value"]):
            schema.fail(f"{field}.value", "finite when feasible", entry["value"])


@dataclass(frozen=True)
class ObjectiveResult:
    """The outcome of running one configuration through the compiler toolchain.

    ``value`` is the measured runtime (lower is better).  ``feasible`` is
    ``False`` when a *hidden* constraint was violated (e.g. the generated GPU
    kernel did not fit in memory); in that case ``value`` may be ``inf``.
    """

    value: float
    feasible: bool = True

    def __post_init__(self) -> None:
        if self.feasible and not math.isfinite(self.value):
            raise ValueError("feasible evaluations must have a finite value")


class ObjectiveFunction(Protocol):
    """A black-box compiler toolchain: configuration in, runtime out."""

    def __call__(self, configuration: Mapping[str, Any]) -> ObjectiveResult: ...


@dataclass(frozen=True)
class Evaluation:
    """One evaluated configuration, in the order the tuner requested it."""

    index: int
    configuration: dict[str, Any]
    value: float
    feasible: bool
    phase: str = "learning"

    @property
    def objective(self) -> float:
        """Value used for minimization; infeasible points count as +inf."""
        return self.value if self.feasible else math.inf


@dataclass
class TuningHistory:
    """The full trace of one autotuning run."""

    tuner_name: str
    benchmark_name: str = ""
    seed: int | None = None
    evaluations: list[Evaluation] = field(default_factory=list)
    #: wall-clock seconds spent inside the tuner (excludes black-box time)
    tuner_seconds: float = 0.0
    #: wall-clock seconds spent evaluating the black box
    evaluation_seconds: float = 0.0

    # ------------------------------------------------------------------
    def append(
        self,
        configuration: Mapping[str, Any],
        result: ObjectiveResult,
        phase: str = "learning",
    ) -> Evaluation:
        evaluation = Evaluation(
            index=len(self.evaluations),
            configuration=dict(configuration),
            value=result.value,
            feasible=result.feasible,
            phase=phase,
        )
        self.evaluations.append(evaluation)
        return evaluation

    def __len__(self) -> int:
        return len(self.evaluations)

    def __iter__(self):
        return iter(self.evaluations)

    # ------------------------------------------------------------------
    @property
    def n_feasible(self) -> int:
        return sum(1 for e in self.evaluations if e.feasible)

    @property
    def feasible_evaluations(self) -> list[Evaluation]:
        return [e for e in self.evaluations if e.feasible]

    def best(self, budget: int | None = None) -> Evaluation | None:
        """Best feasible evaluation within the first ``budget`` evaluations."""
        pool = self.evaluations if budget is None else self.evaluations[:budget]
        feasible = [e for e in pool if e.feasible]
        if not feasible:
            return None
        return min(feasible, key=lambda e: e.value)

    def best_value(self, budget: int | None = None) -> float:
        best = self.best(budget)
        return best.value if best is not None else math.inf

    def best_so_far(self, budget: int | None = None) -> np.ndarray:
        """Running minimum of feasible values (``inf`` before the first feasible)."""
        pool = self.evaluations if budget is None else self.evaluations[:budget]
        out = np.empty(len(pool))
        current = math.inf
        for i, evaluation in enumerate(pool):
            if evaluation.feasible and evaluation.value < current:
                current = evaluation.value
            out[i] = current
        return out

    def evaluations_to_reach(self, threshold: float) -> int | None:
        """Number of evaluations needed to reach ``value <= threshold`` (or None)."""
        for evaluation in self.evaluations:
            if evaluation.feasible and evaluation.value <= threshold:
                return evaluation.index + 1
        return None

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable representation (for persisting experiment runs)."""
        return {
            "tuner": self.tuner_name,
            "benchmark": self.benchmark_name,
            "seed": self.seed,
            "tuner_seconds": self.tuner_seconds,
            "evaluation_seconds": self.evaluation_seconds,
            "evaluations": [
                {
                    "index": e.index,
                    "configuration": configuration_to_json(e.configuration),
                    "value": e.value,
                    "feasible": e.feasible,
                    "phase": e.phase,
                }
                for e in self.evaluations
            ],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TuningHistory":
        history = cls(
            tuner_name=payload["tuner"],
            benchmark_name=payload.get("benchmark", ""),
            seed=payload.get("seed"),
            tuner_seconds=payload.get("tuner_seconds", 0.0),
            evaluation_seconds=payload.get("evaluation_seconds", 0.0),
        )
        for entry in payload["evaluations"]:
            config = configuration_from_json(entry["configuration"])
            history.evaluations.append(
                Evaluation(
                    index=entry["index"],
                    configuration=config,
                    value=entry["value"],
                    feasible=entry["feasible"],
                    phase=entry.get("phase", "learning"),
                )
            )
        return history

"""Synthetic hard-constraint benchmark spaces (feasibility densities 1e-2 … 1e-6).

BaCO's headline regime — a feasible region that is a sliver of the dense
space — is under-represented in the three compiler suites once their
constraints are captured by the Chain-of-Trees.  This suite constructs mixed
R/O/C/P spaces whose *known* constraints are left entirely to the sampler:
the spaces are built with ``build_chain_of_trees=False``, modelling the
regime where feasible enumeration exceeds the CoT node budget and candidate
generation has no trees to draw from.

Each instance stacks ``k`` unary divisibility constraints (each keeping 1 in
10 values of a 100-value ordinal) on top of one binary comparison and one
disjunction, giving feasibility densities of roughly ``10**-k``.  Plain
rejection sampling would degrade with ``k``:

* ``hard_constraint_1e-2`` — ``k = 2``, rejection is merely wasteful;
* ``hard_constraint_1e-4`` — ``k = 4``, rejection rounds explode;
* ``hard_constraint_1e-6`` — ``k = 6``, rejection exhausts its default
  budget and raises.

The sampler first narrows each ``x_i`` that carries a unary divisibility
constraint to its ten surviving values, which removes those constraints'
rejections, so every instance draws its feasible rows in a handful of rounds;
the binary comparison and the disjunction are left to the rejection mask.

The objective is a smooth, deterministic synthetic function (no hidden
constraints), so these benchmarks double as end-to-end tuner workloads: the
optimum sits at ``x_i = 40`` — feasible under every density — with mild
mode / permutation / eps terms to keep every parameter type relevant.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Any, Mapping

from ..core.result import ObjectiveResult
from ..space.constraints import Constraint
from ..space.parameters import (
    CategoricalParameter,
    OrdinalParameter,
    PermutationParameter,
    RealParameter,
)
from ..space.space import SearchSpace
from .base import Benchmark

__all__ = [
    "HARD_CONSTRAINT_DENSITIES",
    "build_hard_constraint_benchmark",
    "hard_constraint_benchmark_names",
]

#: density label -> number of stacked 1-in-10 divisibility constraints
HARD_CONSTRAINT_DENSITIES: dict[str, int] = {"1e-2": 2, "1e-4": 4, "1e-6": 6}

_MODE_WEIGHTS = {"low": 0.9, "mid": 1.0, "high": 1.1, "turbo": 1.05}


def build_hard_constraint_space(density: str) -> SearchSpace:
    """The search space of one density instance (fresh, not cached)."""
    k = HARD_CONSTRAINT_DENSITIES[density]
    parameters = [
        OrdinalParameter(f"x{i}", list(range(100)), default=0) for i in range(6)
    ]
    parameters.append(RealParameter("eps", 0.01, 1.0, transform="log", default=0.1))
    parameters.append(
        CategoricalParameter("mode", list(_MODE_WEIGHTS), default="mid")
    )
    parameters.append(PermutationParameter("order", 4))
    constraints = [Constraint(f"x{i} % 10 == 0") for i in range(k)]
    constraints.append(Constraint("x4 <= x5 + 50"))
    constraints.append(Constraint("eps >= 0.05 or x0 <= 50"))
    # no Chain-of-Trees on purpose: this models constraint groups beyond the
    # enumeration budget, which the sampler meets by unary narrowing and
    # rejection
    return SearchSpace(parameters, constraints, build_chain_of_trees=False)


class HardConstraintObjective:
    """Smooth deterministic objective over the hard-constraint space."""

    has_hidden_constraints = False

    def __init__(self, density: str) -> None:
        self.density = density

    def __call__(self, configuration: Mapping[str, Any]) -> ObjectiveResult:
        xs = [float(configuration[f"x{i}"]) for i in range(6)]
        quad = sum(((x - 40.0) / 100.0) ** 2 for x in xs)
        order = tuple(int(v) for v in configuration["order"])
        inversions = sum(
            1
            for i in range(len(order))
            for j in range(i + 1, len(order))
            if order[i] > order[j]
        )
        eps_term = 0.25 * abs(math.log(float(configuration["eps"]) / 0.1))
        weight = _MODE_WEIGHTS[configuration["mode"]]
        value = weight * (1.0 + quad) * (1.0 + 0.02 * inversions) + eps_term
        return ObjectiveResult(value=value, feasible=True)


def hard_constraint_benchmark_names() -> list[str]:
    """Names of the synthetic hard-constraint instances, sparsest last.

    Deliberately *not* part of :func:`repro.workloads.benchmark_names`: that
    list enumerates the paper's 25 Table 3 instances; these spaces are a
    scenario axis of their own and are addressed explicitly by name.
    """
    return [f"hard_constraint_{d}" for d in HARD_CONSTRAINT_DENSITIES]


@lru_cache(maxsize=None)
def build_hard_constraint_benchmark(density: str) -> Benchmark:
    """Construct one hard-constraint benchmark (cached)."""
    if density not in HARD_CONSTRAINT_DENSITIES:
        raise KeyError(
            f"unknown hard-constraint density {density!r}; "
            f"available: {sorted(HARD_CONSTRAINT_DENSITIES)}"
        )
    space = build_hard_constraint_space(density)
    default = space.default_configuration()
    return Benchmark(
        name=f"hard_constraint_{density}",
        framework="Synthetic",
        space=space,
        evaluator=HardConstraintObjective(density),
        full_budget=50,
        default_configuration=default,
        expert_configuration=None,
        description=(
            f"synthetic hard-constraint space at feasibility density ~{density} "
            "(known constraints only, no Chain-of-Trees)"
        ),
    )

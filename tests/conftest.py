"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.space import (
    CategoricalParameter,
    Constraint,
    IntegerParameter,
    OrdinalParameter,
    PermutationParameter,
    RealParameter,
    SearchSpace,
)
from repro.core.result import ObjectiveResult

#: ``HYPOTHESIS_PROFILE=deep`` runs each property that sets no
#: ``max_examples`` of its own at 1,000 examples instead of hypothesis's
#: default 100; CI runs the forest's oracle properties, the distance-table
#: properties, the decode property, the value-table property, the history
#: column-pass property and the log-integer property, among others, under it
settings.register_profile("deep", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line("markers", "slow: a scaled-down headline-claim run (seconds, not milliseconds)")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_space() -> SearchSpace:
    """A tiny mixed-type constrained space used across many tests."""
    parameters = [
        OrdinalParameter("p1", [2, 4, 8, 16], transform="log"),
        OrdinalParameter("p2", [2, 4, 8, 16], transform="log"),
        CategoricalParameter("sched", ["static", "dynamic", "guided"]),
        PermutationParameter("order", 3),
    ]
    constraints = [Constraint("p1 >= p2")]
    return SearchSpace(parameters, constraints)


@pytest.fixture
def unconstrained_space() -> SearchSpace:
    parameters = [
        OrdinalParameter("tile", [1, 2, 4, 8, 16, 32], transform="log"),
        IntegerParameter("threads", 1, 8),
        RealParameter("alpha", 0.1, 10.0, transform="log"),
        CategoricalParameter("mode", ["a", "b"]),
    ]
    return SearchSpace(parameters)


@pytest.fixture
def paper_cot_space() -> SearchSpace:
    """The 5-parameter example of Fig. 4 in the paper."""
    parameters = [
        OrdinalParameter("p1", [2, 4]),
        OrdinalParameter("p2", [2, 4]),
        OrdinalParameter("p3", [1, 4]),
        OrdinalParameter("p4", [1, 2, 4]),
        OrdinalParameter("p5", [2, 4, 8]),
    ]
    constraints = [
        Constraint("p1 >= p2"),
        Constraint("p4 >= p3"),
        Constraint("p5 >= 2 * p4"),
    ]
    return SearchSpace(parameters, constraints)


@pytest.fixture
def quadratic_objective():
    """A smooth objective over `small_space`: minimized at p1=p2, order=(2,1,0)."""

    def objective(config) -> ObjectiveResult:
        value = (
            config["p1"] / config["p2"]
            + sum(i * v for i, v in enumerate(config["order"]))
            + (1.0 if config["sched"] == "static" else 2.0)
            + 0.1
        )
        return ObjectiveResult(value=float(value), feasible=True)

    return objective


@pytest.fixture
def hidden_constraint_objective():
    """Same as `quadratic_objective` but configurations with p1 > 8 fail."""

    def objective(config) -> ObjectiveResult:
        if config["p1"] > 8:
            return ObjectiveResult(value=float("inf"), feasible=False)
        value = (
            config["p1"] / config["p2"]
            + sum(i * v for i, v in enumerate(config["order"]))
            + (1.0 if config["sched"] == "static" else 2.0)
            + 0.1
        )
        return ObjectiveResult(value=float(value), feasible=True)

    return objective

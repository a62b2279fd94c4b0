"""Cross-cutting property-based tests on the core data structures and invariants."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.result import ObjectiveResult, TuningHistory
from repro.models.distances import DistanceComputer
from repro.models.kernels import matern52
from repro.space import (
    CategoricalParameter,
    Constraint,
    OrdinalParameter,
    PermutationParameter,
    SearchSpace,
)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

_ordinal_values = st.lists(
    st.integers(min_value=1, max_value=512), min_size=2, max_size=6, unique=True
)


@st.composite
def mixed_spaces(draw):
    """Random small mixed-type search spaces with an optional constraint."""
    parameters = [
        OrdinalParameter("a", draw(_ordinal_values)),
        OrdinalParameter("b", draw(_ordinal_values)),
        CategoricalParameter("c", ["x", "y", "z"][: draw(st.integers(2, 3))]),
        PermutationParameter("p", draw(st.integers(2, 4))),
    ]
    use_constraint = draw(st.booleans())
    constraints = [Constraint("a >= b")] if use_constraint else []
    max_a, min_b = max(parameters[0].values), min(parameters[1].values)
    if use_constraint and max_a < min_b:
        constraints = []
    return SearchSpace(parameters, constraints)


# ---------------------------------------------------------------------------
# search-space invariants
# ---------------------------------------------------------------------------

@given(mixed_spaces(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_sampled_configurations_always_feasible_and_encodable(space, seed):
    rng = np.random.default_rng(seed)
    configs = space.sample(rng, 5)
    for config in configs:
        assert space.is_feasible(config)
        encoded = space.encode(config)
        assert np.all(np.isfinite(encoded))
    matrix = space.encode_batch(configs)
    assert matrix.shape[0] == 5


@given(mixed_spaces(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_neighbours_preserve_feasibility_and_differ_in_one_parameter(space, seed):
    rng = np.random.default_rng(seed)
    row = space.sample_rows(rng, 1)
    config = space.encoder.decode(row[0])
    neighbours, _ = space.neighbour_rows_batch(row)
    for neighbour in map(space.encoder.decode, neighbours):
        assert space.is_feasible(neighbour)
        differing = [n for n in space.parameter_names if neighbour[n] != config[n]]
        assert len(differing) == 1


@given(mixed_spaces())
@settings(max_examples=20, deadline=None)
def test_feasible_size_never_exceeds_dense_size(space):
    dense = space.dense_size()
    feasible = space.feasible_size()
    if not math.isnan(feasible):
        assert feasible <= dense


# ---------------------------------------------------------------------------
# GP kernel invariants over random spaces
# ---------------------------------------------------------------------------

@given(mixed_spaces(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_matern_kernel_is_psd_over_random_mixed_spaces(space, seed):
    rng = np.random.default_rng(seed)
    configs = space.sample(rng, 12)
    computer = DistanceComputer(space.parameters)
    tensor = computer.pairwise(configs)
    lengthscales = rng.uniform(0.2, 2.0, size=tensor.shape[0])
    kernel = matern52(tensor, lengthscales, outputscale=1.0)
    assert np.allclose(kernel, kernel.T, atol=1e-10)
    eigenvalues = np.linalg.eigvalsh(kernel + 1e-9 * np.eye(len(configs)))
    assert eigenvalues.min() > -1e-7


# ---------------------------------------------------------------------------
# tuning-history invariants
# ---------------------------------------------------------------------------

@given(
    st.lists(
        st.tuples(st.floats(min_value=0.01, max_value=1e6), st.booleans()),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=100, deadline=None)
def test_history_invariants(entries):
    history = TuningHistory(tuner_name="prop")
    for value, feasible in entries:
        history.append(
            {"x": value}, ObjectiveResult(value if feasible else math.inf, feasible=feasible)
        )
    curve = history.best_so_far()
    # monotone non-increasing
    assert all(curve[i + 1] <= curve[i] for i in range(len(curve) - 1))
    # final curve point equals the best value
    assert curve[-1] == history.best_value()
    # the best value is attained by some feasible evaluation
    if history.n_feasible:
        assert any(
            e.feasible and e.value == history.best_value() for e in history.evaluations
        )
    else:
        assert math.isinf(history.best_value())
    # serialization roundtrip preserves the best value and length
    restored = TuningHistory.from_dict(history.to_dict())
    assert restored.best_value() == history.best_value()
    assert len(restored) == len(history)


@given(
    st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=2, max_size=30),
    st.floats(min_value=0.1, max_value=100.0),
)
@settings(max_examples=100, deadline=None)
def test_evaluations_to_reach_consistency(values, threshold):
    history = TuningHistory(tuner_name="prop")
    for value in values:
        history.append({"x": value}, ObjectiveResult(value))
    reached = history.evaluations_to_reach(threshold)
    if reached is None:
        assert all(v > threshold for v in values)
    else:
        assert values[reached - 1] <= threshold
        assert all(v > threshold for v in values[: reached - 1])

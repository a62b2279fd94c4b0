"""Tests for the vectorized feasibility & candidate-generation engine.

Guards for the three layers introduced by the row-space refactor:

* **Compiled constraints** — every expression constraint compiles to a numpy
  column evaluator that must agree with the scalar ``evaluate`` oracle on all
  full configurations (plus the applicability edge cases around missing
  variables, and the frozen eval namespace of the scalar path);
* **Chain-of-Trees leaf tables** — the leaf list and the vectorized
  leaf-index samplers agree with the constraints and the per-level walk's
  distribution;
* **Row-space search-space API** — ``sample_rows`` / ``neighbour_rows_batch``
  agree with the scalar dict paths, pinned both on hand-built spaces and on
  hypothesis-randomized R/I/O/C/P spaces; their rows are checked one by one
  through ``is_feasible`` and the encoding round trip.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.space import (
    CategoricalParameter,
    Constraint,
    IntegerParameter,
    OrdinalParameter,
    PermutationParameter,
    RealParameter,
    SearchSpace,
)
from repro.space.constraints import _SCALAR_GLOBALS, compile_column_evaluator

from oracles import feasible_rows, neighbours, sample_reference


def _mixed_params():
    return [
        OrdinalParameter("p1", [2, 4, 8, 16, 32], transform="log"),
        OrdinalParameter("p2", [2, 4, 8, 16], transform="log"),
        IntegerParameter("w", 1, 12),
        RealParameter("alpha", 0.1, 10.0, transform="log"),
        CategoricalParameter("sched", ["static", "dynamic", "guided"]),
        PermutationParameter("order", 3),
    ]


def _mixed_space() -> SearchSpace:
    return SearchSpace(
        _mixed_params(),
        [
            Constraint("p1 >= p2"),
            Constraint("p1 % p2 == 0"),
            Constraint("w <= 8 or alpha >= 1.0"),
        ],
    )


# ---------------------------------------------------------------------------
# compiled constraints vs the scalar oracle
# ---------------------------------------------------------------------------

class TestCompiledConstraints:
    EXPRESSIONS = [
        "a >= b",
        "a % b == 0",
        "a * b <= 1024",
        "log2(a) >= 2",
        "sqrt(a) < b",
        "min(a, b) >= 2 and max(a, b) <= 512",
        "a in (2, 4, 8)",
        "b not in (3, 5)",
        "not (a < b)",
        "a - b > -100 and (a + b) % 2 == 0",
        "a // b >= 1 or b // a >= 1",
        "(a if a > b else b) >= 4",
        "2 <= a <= 512",
        "abs(a - b) <= 1000",
        "pow(a, 2) >= b",
        "floor(a / b) == a // b",
        "ceil(a / b) >= a // b",
    ]

    @pytest.mark.parametrize("expression", EXPRESSIONS)
    def test_agrees_with_scalar_oracle(self, expression):
        constraint = Constraint(expression)
        rng = np.random.default_rng(7)
        a = rng.integers(1, 513, size=200).astype(float)
        b = rng.integers(1, 513, size=200).astype(float)
        compiled = constraint.compile_columns()
        got = compiled({"a": a, "b": b})
        want = [
            constraint.evaluate({"a": int(x), "b": int(y)}) for x, y in zip(a, b)
        ]
        assert got.dtype == bool
        assert got.tolist() == want

    def test_string_and_membership_columns(self):
        constraint = Constraint("mode in ('fast', 'exact') and tile >= 8")
        modes = np.empty(4, dtype=object)
        modes[:] = ["fast", "slow", "exact", "exact"]
        tiles = np.asarray([8.0, 8.0, 4.0, 16.0])
        got = constraint.compile_columns()({"mode": modes, "tile": tiles})
        want = [
            constraint.evaluate({"mode": m, "tile": int(t)})
            for m, t in zip(modes, tiles)
        ]
        assert got.tolist() == want

    def test_permutation_tuple_columns(self):
        constraint = Constraint("perm == (0, 1, 2) or perm[0] == 2")
        perms = np.empty(4, dtype=object)
        perms[:] = [(0, 1, 2), (2, 1, 0), (1, 0, 2), (2, 0, 1)]
        got = constraint.compile_columns()({"perm": perms})
        want = [constraint.evaluate({"perm": p}) for p in perms]
        assert got.tolist() == want

    def test_callable_constraints_fall_back_to_scalar(self):
        constraint = Constraint.from_callable(
            lambda cfg: cfg["x"] * cfg["y"] <= 6, ["x", "y"]
        )
        assert constraint.compile_columns() is None
        evaluator = compile_column_evaluator(constraint)
        x = np.asarray([1.0, 2.0, 3.0])
        y = np.asarray([2.0, 3.0, 4.0])
        assert evaluator({"x": x, "y": y}).tolist() == [True, True, False]

    def test_compiled_evaluator_is_cached(self):
        constraint = Constraint("a >= b")
        assert constraint.compile_columns() is constraint.compile_columns()

    # -- applicability edge cases ---------------------------------------

    def test_missing_variable_raises_keyerror_in_both_paths(self):
        constraint = Constraint("a >= b")
        with pytest.raises(KeyError):
            constraint.evaluate({"a": 1})
        with pytest.raises(KeyError):
            constraint.compile_columns()({"a": np.asarray([1.0])})

    def test_is_applicable_tracks_missing_variables(self):
        constraint = Constraint("a >= b")
        assert not constraint.is_applicable({"a": 1})
        assert constraint.is_applicable({"a": 1, "b": 2})
        # extra variables are fine in both paths
        assert constraint.evaluate({"a": 2, "b": 1, "c": 99})
        mask = constraint.compile_columns()(
            {"a": np.asarray([2.0]), "b": np.asarray([1.0]), "c": np.asarray([99.0])}
        )
        assert mask.tolist() == [True]

    def test_scalar_namespace_is_frozen_and_not_rebuilt(self):
        snapshot = dict(_SCALAR_GLOBALS)
        constraint = Constraint("a >= b")
        assert constraint.evaluate({"a": 2, "b": 1})
        assert not constraint.evaluate({"a": 1, "b": 2})
        # evaluate must not leak configuration variables into the shared dict
        assert dict(_SCALAR_GLOBALS) == snapshot
        assert "a" not in _SCALAR_GLOBALS and "__builtins__" in _SCALAR_GLOBALS


# ---------------------------------------------------------------------------
# Chain-of-Trees leaf tables
# ---------------------------------------------------------------------------

class TestLeafCaches:
    def _tree(self):
        from repro.space.chain_of_trees import Tree

        return Tree(
            [OrdinalParameter("a", [1, 2]), OrdinalParameter("b", [1, 2, 3, 4])],
            [Constraint("b >= a * a")],
        )

    def test_cache_matches_recursive_walk_and_counts(self):
        tree = self._tree()
        leaves = tree.leaf_values
        assert len(leaves) == tree.n_feasible
        assert len(set(leaves)) == len(leaves)
        for a, b in leaves:
            assert b >= a * a
        # the stack-walk order: the depth-first enumeration reversed
        assert leaves == [(2, 4), (1, 4), (1, 3), (1, 2), (1, 1)]

    def test_uniform_indices_cover_all_leaves(self):
        tree = self._tree()
        rng = np.random.default_rng(3)
        indices = tree.sample_leaf_indices(rng, 2000)
        counts = np.bincount(indices, minlength=tree.n_feasible)
        assert (counts > 0).all()
        assert abs(counts.max() / counts.min() - 1.0) < 0.5

    def test_biased_indices_match_sample_path_distribution(self):
        tree = self._tree()
        rng = np.random.default_rng(4)
        n = 4000
        indices = tree.sample_leaf_indices(rng, n, biased=True)
        hits = sum(1 for i in indices if tree.leaf_values[i][0] == 2)
        # a=2 admits a single leaf reached with per-level probability 1/2
        assert abs(hits / n - 0.5) < 0.05


# ---------------------------------------------------------------------------
# row-space SearchSpace API
# ---------------------------------------------------------------------------

class TestRowSpaceAPI:
    def test_sample_rows_are_feasible_and_decodable(self):
        space = _mixed_space()
        rng = np.random.default_rng(0)
        rows = space.sample_rows(rng, 200)
        assert rows.shape == (200, space.encoder.width)
        assert feasible_rows(space, rows).all()

    def test_sample_matches_reference_distribution(self):
        space = SearchSpace(
            [
                OrdinalParameter("p1", [2, 4, 8]),
                OrdinalParameter("p2", [2, 4, 8]),
                CategoricalParameter("c", ["x", "y"]),
            ],
            [Constraint("p1 >= p2")],
        )
        rng_rows = np.random.default_rng(11)
        rng_ref = np.random.default_rng(12)
        n = 6000
        vector_counts: dict[tuple, int] = {}
        for config in space.sample(rng_rows, n):
            key = space.freeze(config)
            vector_counts[key] = vector_counts.get(key, 0) + 1
        reference_counts: dict[tuple, int] = {}
        for config in sample_reference(space, rng_ref, n):
            key = space.freeze(config)
            reference_counts[key] = reference_counts.get(key, 0) + 1
        assert set(vector_counts) == set(reference_counts)
        for key, count in vector_counts.items():
            assert abs(count - reference_counts[key]) < 0.35 * (n / len(vector_counts))

    def test_sample_reference_remains_the_scalar_oracle(self):
        space = _mixed_space()
        rng = np.random.default_rng(2)
        for config in sample_reference(space, rng, 25):
            assert space.is_feasible(config)

    def test_neighbour_rows_match_dict_neighbours(self):
        space = _mixed_space()
        rng = np.random.default_rng(3)
        rows = space.sample_rows(rng, 8)
        batch, owners = space.neighbour_rows_batch(rows)
        assert feasible_rows(space, batch).all()
        decode = space.encoder.decode
        for i, row in enumerate(rows):
            config = decode(row)
            want = sorted(
                space.freeze(n) for n in neighbours(space, config, feasible_only=True)
            )
            got = sorted(space.freeze(decode(r)) for r in batch[owners == i])
            assert len(got) == len(want)
            # real-valued entries can drift one ulp through the row round
            # trip; every discrete coordinate must match exactly
            for got_key, want_key in zip(got, want):
                for g, w, param in zip(got_key, want_key, space.parameters):
                    if isinstance(param, RealParameter):
                        assert g == pytest.approx(w, rel=1e-12)
                    else:
                        assert g == w


# ---------------------------------------------------------------------------
# property-based equivalence on randomized R/I/O/C/P spaces
# ---------------------------------------------------------------------------

_ordinal_values = st.lists(
    st.integers(min_value=1, max_value=64), min_size=2, max_size=5, unique=True
)


@st.composite
def riocp_spaces(draw):
    """Random spaces covering all five parameter types with real constraints."""
    parameters = [
        RealParameter("r", 0.5, 4.0),
        IntegerParameter("i", 1, draw(st.integers(3, 10))),
        OrdinalParameter("o", draw(_ordinal_values)),
        CategoricalParameter("c", ["x", "y", "z"][: draw(st.integers(2, 3))]),
        PermutationParameter("p", draw(st.integers(2, 3))),
    ]
    constraints = []
    expression_pool = [
        "o >= i",
        "o % 2 == 0 or i <= 3",
        "i * o <= 64",
        "r >= 1.0 or o <= 32",
    ]
    for expression in expression_pool:
        if draw(st.booleans()):
            constraints.append(Constraint(expression))
    space = SearchSpace(parameters, constraints)
    # keep only satisfiable spaces: a feasible witness must exist
    try:
        sample_reference(space, np.random.default_rng(0), 1, max_rejection_rounds=200)
    except RuntimeError:
        return SearchSpace(parameters, [])
    return space


@given(riocp_spaces(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_sample_rows_decode_to_feasible_configurations(space, seed):
    """Property: every sampled row decodes to a configuration the space accepts."""
    rng = np.random.default_rng(seed)
    rows = space.sample_rows(rng, 8)
    for row in rows:
        config = space.encoder.decode(row)
        assert space.is_feasible(config)
        assert np.array_equal(space.encode(config), row)

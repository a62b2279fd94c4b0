"""Tests for the SearchSpace: sampling, feasibility, neighbourhoods, encoding."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.space import (
    CategoricalParameter,
    Constraint,
    OrdinalParameter,
    PermutationParameter,
    RealParameter,
    SearchSpace,
)


class TestConstruction:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace([OrdinalParameter("a", [1]), OrdinalParameter("a", [2])])

    def test_constraint_with_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace([OrdinalParameter("a", [1, 2])], [Constraint("a >= b")])

    def test_chain_of_trees_built_for_constrained_discrete_groups(self, small_space):
        assert small_space.chain_of_trees is not None
        assert set(small_space.chain_of_trees.parameter_names) == {"p1", "p2"}

    def test_no_chain_of_trees_without_constraints(self, unconstrained_space):
        assert unconstrained_space.chain_of_trees is None

    def test_continuous_constrained_group_falls_back_to_rejection(self, rng):
        space = SearchSpace(
            [RealParameter("x", 0.0, 1.0), RealParameter("y", 0.0, 1.0)],
            [Constraint("x >= y")],
        )
        assert space.chain_of_trees is None
        for config in space.sample(rng, 20):
            assert config["x"] >= config["y"]


class TestSizes:
    def test_dense_size(self, small_space):
        # 4 * 4 * 3 * 3! = 288
        assert small_space.dense_size() == 288

    def test_feasible_size_counts_constraint(self, small_space):
        # p1 >= p2 over 4x4 power-of-two grids leaves 10 of 16 combinations
        assert small_space.feasible_size() == 10 * 3 * 6

    def test_feasible_size_matches_brute_force(self, paper_cot_space):
        brute = 0
        for config in paper_cot_space.iter_dense():
            if all(c.evaluate(config) for c in paper_cot_space.constraints):
                brute += 1
        assert paper_cot_space.feasible_size() == brute

    def test_dense_size_infinite_with_real_parameter(self, unconstrained_space):
        assert unconstrained_space.dense_size() == math.inf

    def test_describe_reports_types(self, small_space):
        info = small_space.describe()
        assert info["types"] == "O/C/P"
        assert info["dimension"] == 4
        assert info["n_known_constraints"] == 1


class TestFeasibility:
    def test_is_feasible_checks_constraints(self, small_space):
        feasible = {"p1": 8, "p2": 4, "sched": "static", "order": (0, 1, 2)}
        infeasible = {"p1": 2, "p2": 8, "sched": "static", "order": (0, 1, 2)}
        assert small_space.is_feasible(feasible)
        assert not small_space.is_feasible(infeasible)

    def test_is_feasible_checks_parameter_membership(self, small_space):
        bad_value = {"p1": 3, "p2": 2, "sched": "static", "order": (0, 1, 2)}
        assert not small_space.is_feasible(bad_value)

    def test_missing_parameter_raises(self, small_space):
        with pytest.raises(KeyError):
            small_space.is_feasible({"p1": 2, "p2": 2})

    def test_paper_example_configuration(self, paper_cot_space):
        config = {"p1": 2, "p2": 2, "p3": 4, "p4": 4, "p5": 8}
        assert paper_cot_space.is_feasible(config)


class TestSampling:
    def test_samples_are_feasible(self, small_space, rng):
        for config in small_space.sample(rng, 100):
            assert small_space.is_feasible(config)

    def test_samples_cover_permutations(self, small_space, rng):
        perms = {tuple(c["order"]) for c in small_space.sample(rng, 200)}
        assert len(perms) == 6

    def test_sampling_is_uniform_over_feasible_region(self, paper_cot_space, rng):
        keys = [paper_cot_space.freeze(c) for c in paper_cot_space.sample(rng, 9000)]
        n_feasible = int(paper_cot_space.feasible_size())
        counts = {}
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == n_feasible
        expected = len(keys) / n_feasible
        for count in counts.values():
            assert abs(count - expected) < 0.35 * expected

    def test_first_unseen_is_the_first_unseen_row_of_one_draw(self, small_space):
        rows = small_space.sample_rows(np.random.default_rng(3), 16)
        decoded = [small_space.encoder.decode(row) for row in rows]
        seen = {small_space.freeze(decoded[0]), small_space.freeze(decoded[1])}
        first = next(c for c in decoded if small_space.freeze(c) not in seen)
        rng = np.random.default_rng(3)
        assert small_space.first_unseen(rng, 16, seen) == first
        # one batched draw, whatever row wins
        after = np.random.default_rng(3)
        small_space.sample_rows(after, 16)
        assert rng.bit_generator.state == after.bit_generator.state

    def test_first_unseen_is_none_once_every_draw_is_seen(self, small_space):
        seen = {small_space.freeze(c) for c in small_space.iter_dense()}
        rng = np.random.default_rng(4)
        assert small_space.first_unseen(rng, 32, seen) is None
        assert small_space.first_unseen(rng, 32, seen, biased_cot=True) is None
        assert small_space.first_unseen(rng, 32, set()) is not None

    def test_default_configuration_contains_all_parameters(self, small_space):
        default = small_space.default_configuration()
        assert set(default) == set(small_space.parameter_names)


def _neighbours(space, config):
    """Decoded ``neighbour_rows_batch`` neighbourhood of one configuration."""
    rows, _ = space.neighbour_rows_batch(space.encode(config)[None, :])
    return [space.encoder.decode(row) for row in rows]


class TestNeighbours:
    def test_neighbours_differ_in_exactly_one_parameter(self, small_space):
        config = {"p1": 8, "p2": 4, "sched": "static", "order": (0, 1, 2)}
        for neighbour in _neighbours(small_space, config):
            diffs = [
                name
                for name in small_space.parameter_names
                if neighbour[name] != config[name]
            ]
            assert len(diffs) == 1

    def test_neighbours_are_feasible(self, small_space):
        config = {"p1": 4, "p2": 4, "sched": "dynamic", "order": (2, 1, 0)}
        for neighbour in _neighbours(small_space, config):
            assert small_space.is_feasible(neighbour)

    def test_constrained_neighbours_use_cot_values(self, small_space):
        config = {"p1": 2, "p2": 2, "sched": "static", "order": (0, 1, 2)}
        p2_values = {n["p2"] for n in _neighbours(small_space, config) if n["p2"] != 2}
        # p2 can only stay <= p1 = 2, so no feasible alternative value exists
        assert p2_values == set()

    def test_unconstrained_neighbours(self, unconstrained_space):
        config = {"tile": 4, "threads": 4, "alpha": 1.0, "mode": "a"}
        neighbours = _neighbours(unconstrained_space, config)
        assert any(n["mode"] == "b" for n in neighbours)
        assert any(n["tile"] in (2, 8) for n in neighbours)


class TestEncoding:
    def test_encode_length(self, small_space):
        config = {"p1": 8, "p2": 4, "sched": "static", "order": (0, 2, 1)}
        encoded = small_space.encode(config)
        # p1, p2, sched index, and 3 permutation entries
        assert encoded.shape == (6,)

    def test_encode_many_shape(self, small_space, rng):
        configs = small_space.sample(rng, 7)
        assert small_space.encode_batch(configs).shape == (7, 6)

    def test_log_parameters_encoded_in_log_space(self, small_space):
        a = small_space.encode({"p1": 2, "p2": 2, "sched": "static", "order": (0, 1, 2)})
        b = small_space.encode({"p1": 4, "p2": 2, "sched": "static", "order": (0, 1, 2)})
        c = small_space.encode({"p1": 8, "p2": 2, "sched": "static", "order": (0, 1, 2)})
        assert b[0] - a[0] == pytest.approx(c[0] - b[0])

    def test_freeze_is_hashable_and_stable(self, small_space):
        config = {"p1": 8, "p2": 4, "sched": "static", "order": (0, 2, 1)}
        key = small_space.freeze(config)
        assert key == small_space.freeze(dict(config))
        hash(key)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_any_sampled_configuration_is_feasible(seed):
    """Property: sampling never produces a configuration violating constraints."""
    space = SearchSpace(
        [
            OrdinalParameter("a", [1, 2, 4, 8]),
            OrdinalParameter("b", [1, 2, 4, 8]),
            CategoricalParameter("c", ["x", "y"]),
        ],
        [Constraint("a * b <= 16")],
    )
    rng = np.random.default_rng(seed)
    config = space.sample_one(rng)
    assert space.is_feasible(config)
    assert config["a"] * config["b"] <= 16

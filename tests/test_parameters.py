"""Unit and property-based tests for the parameter types."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    PERMUTATION_METRICS,
    distance,
    hamming_permutation_distance,
    kendall_distance,
    sample_value,
    spearman_distance,
)
from repro.space.parameters import (
    CategoricalParameter,
    IntegerParameter,
    OrdinalParameter,
    PermutationParameter,
    RealParameter,
)


# ---------------------------------------------------------------------------
# RealParameter
# ---------------------------------------------------------------------------

class TestRealParameter:
    def test_sampling_stays_in_bounds(self, rng):
        param = RealParameter("x", 0.5, 2.5)
        samples = [sample_value(param, rng) for _ in range(200)]
        assert all(0.5 <= s <= 2.5 for s in samples)

    def test_log_sampling_stays_in_bounds(self, rng):
        param = RealParameter("x", 1.0, 1024.0, transform="log")
        samples = [sample_value(param, rng) for _ in range(200)]
        assert all(1.0 <= s <= 1024.0 for s in samples)

    def test_distance_is_absolute_difference(self):
        param = RealParameter("x", 0.0, 10.0)
        assert distance(param, 2.0, 5.0) == pytest.approx(3.0)
        assert distance(param, 5.0, 2.0) == pytest.approx(3.0)

    def test_log_distance_matches_paper_example(self):
        """Tile sizes 2/4 should be as similar as 512/1024 (Sec. 4.1)."""
        param = RealParameter("tile", 1.0, 2048.0, transform="log")
        assert distance(param, 2, 4) == pytest.approx(distance(param, 512, 1024))
        assert distance(param, 512, 514) < distance(param, 2, 4)

    def test_contains(self):
        param = RealParameter("x", 0.0, 1.0)
        assert param.contains(0.5)
        assert param.contains(0.0) and param.contains(1.0)
        assert not param.contains(-0.01)
        assert not param.contains("not a number")

    def test_neighbours_stay_in_bounds(self):
        param = RealParameter("x", 0.0, 1.0)
        for value in (0.0, 0.37, 1.0):
            for neighbour in param.neighbours(value):
                assert 0.0 <= neighbour <= 1.0
                assert neighbour != value

    def test_invalid_bounds_raise(self):
        with pytest.raises(ValueError):
            RealParameter("x", 2.0, 1.0)
        with pytest.raises(ValueError):
            RealParameter("x", -1.0, 1.0, transform="log")

    def test_continuous_has_no_cardinality(self):
        param = RealParameter("x", 0.0, 1.0)
        assert param.cardinality() is None
        assert not param.is_discrete


# ---------------------------------------------------------------------------
# IntegerParameter
# ---------------------------------------------------------------------------

class TestIntegerParameter:
    def test_sampling_covers_range(self, rng):
        param = IntegerParameter("n", 1, 4)
        samples = {sample_value(param, rng) for _ in range(300)}
        assert samples == {1, 2, 3, 4}

    def test_contains_rejects_non_integers(self):
        param = IntegerParameter("n", 0, 10)
        assert param.contains(3)
        assert not param.contains(3.5)
        assert not param.contains(11)

    def test_neighbours_are_adjacent(self):
        param = IntegerParameter("n", 0, 10)
        assert set(param.neighbours(5)) >= {4, 6}
        assert 0 not in param.neighbours(0) and -1 not in param.neighbours(0)

    def test_wide_range_neighbours_include_jumps(self):
        param = IntegerParameter("n", 0, 1000)
        neighbours = param.neighbours(500)
        assert any(abs(n - 500) > 1 for n in neighbours)

    def test_values_list_and_cardinality(self):
        param = IntegerParameter("n", 3, 7)
        assert param.values_list() == [3, 4, 5, 6, 7]
        assert param.cardinality() == 5

    def test_log_distance(self):
        param = IntegerParameter("n", 1, 1024, transform="log")
        assert distance(param, 2, 4) == pytest.approx(distance(param, 256, 512))


# ---------------------------------------------------------------------------
# OrdinalParameter
# ---------------------------------------------------------------------------

class TestOrdinalParameter:
    def test_values_are_sorted_and_deduplicated(self):
        param = OrdinalParameter("o", [8, 2, 4, 2])
        assert param.values_list() == [2, 4, 8]

    def test_neighbours_are_adjacent_in_order(self):
        param = OrdinalParameter("o", [1, 2, 4, 8, 16])
        assert param.neighbours(4) == [2, 8]
        assert param.neighbours(1) == [2]
        assert param.neighbours(16) == [8]

    def test_distance_uses_values_not_ranks(self):
        param = OrdinalParameter("o", [1, 2, 100])
        assert distance(param, 1, 2) == pytest.approx(1.0)
        assert distance(param, 2, 100) == pytest.approx(98.0)

    def test_log_transform_distance(self):
        param = OrdinalParameter("o", [2, 4, 512, 1024], transform="log")
        assert distance(param, 2, 4) == pytest.approx(distance(param, 512, 1024))

    def test_default_must_be_member(self):
        with pytest.raises(ValueError):
            OrdinalParameter("o", [1, 2, 4], default=3)

    def test_contains_canonicalizes_floats(self):
        param = OrdinalParameter("o", [1, 2, 4])
        assert param.contains(2.0)
        assert not param.contains(3)

    def test_sample_only_returns_members(self, rng):
        param = OrdinalParameter("o", [1, 2, 4, 8])
        assert {sample_value(param, rng) for _ in range(200)} <= {1, 2, 4, 8}


# ---------------------------------------------------------------------------
# CategoricalParameter
# ---------------------------------------------------------------------------

class TestCategoricalParameter:
    def test_hamming_distance(self):
        param = CategoricalParameter("c", ["a", "b", "c"])
        assert distance(param, "a", "a") == 0.0
        assert distance(param, "a", "b") == 1.0

    def test_neighbours_are_all_other_values(self):
        param = CategoricalParameter("c", ["a", "b", "c"])
        assert set(param.neighbours("a")) == {"b", "c"}

    def test_duplicate_values_collapsed(self):
        param = CategoricalParameter("c", ["a", "b", "a"])
        assert param.values_list() == ["a", "b"]

    def test_default_validation(self):
        with pytest.raises(ValueError):
            CategoricalParameter("c", ["a", "b"], default="z")


# ---------------------------------------------------------------------------
# permutation semimetrics
# ---------------------------------------------------------------------------

class TestPermutationSemimetrics:
    def test_paper_figure3_example(self):
        """Fig. 3: distances between [1,2,3,4] and [2,4,3,1] (0-indexed here)."""
        a = (0, 1, 2, 3)
        b = (1, 3, 2, 0)
        assert kendall_distance(a, b) == 4.0
        assert spearman_distance(a, b) == (1 + 4 + 0 + 9)
        assert hamming_permutation_distance(a, b) == 3.0

    def test_identity_distances_are_zero(self):
        perm = (3, 1, 0, 2)
        for metric in PERMUTATION_METRICS.values():
            assert metric(perm, perm) == 0.0

    def test_symmetry(self):
        a, b = (0, 1, 2, 3, 4), (4, 2, 0, 1, 3)
        for metric in PERMUTATION_METRICS.values():
            assert metric(a, b) == metric(b, a)

    def test_kendall_of_adjacent_swap_is_one(self):
        assert kendall_distance((0, 1, 2, 3), (1, 0, 2, 3)) == 1.0

    def test_spearman_emphasizes_large_moves(self):
        """The paper's example: swapping the outermost loops moves elements far."""
        a = (1, 2, 0, 3)
        b = (3, 2, 0, 1)
        assert spearman_distance(a, b) > kendall_distance(a, b)
        assert spearman_distance(a, b) > hamming_permutation_distance(a, b)

    @given(
        st.permutations(list(range(5))),
        st.permutations(list(range(5))),
    )
    @settings(max_examples=100, deadline=None)
    def test_semimetric_properties(self, a, b):
        """Non-negativity, identity of indiscernibles, and symmetry."""
        for name, metric in PERMUTATION_METRICS.items():
            d_ab = metric(tuple(a), tuple(b))
            assert d_ab >= 0.0
            assert metric(tuple(a), tuple(a)) == 0.0
            assert d_ab == metric(tuple(b), tuple(a))
            if tuple(a) != tuple(b):
                assert d_ab > 0.0, name


# ---------------------------------------------------------------------------
# PermutationParameter
# ---------------------------------------------------------------------------

class TestPermutationParameter:
    def test_sampling_produces_valid_permutations(self, rng):
        param = PermutationParameter("perm", 4)
        for _ in range(50):
            value = sample_value(param, rng)
            assert sorted(value) == [0, 1, 2, 3]

    def test_contains(self):
        param = PermutationParameter("perm", 3)
        assert param.contains((2, 0, 1))
        assert not param.contains((0, 1))
        assert not param.contains((0, 0, 1))
        assert not param.contains("abc")

    def test_cardinality_is_factorial(self):
        assert PermutationParameter("perm", 5).cardinality() == 120

    def test_values_list_small(self):
        param = PermutationParameter("perm", 3)
        values = param.values_list()
        assert len(values) == 6
        assert len(set(values)) == 6

    def test_values_list_refuses_large(self):
        with pytest.raises(TypeError):
            PermutationParameter("perm", 9).values_list()

    def test_neighbours_are_adjacent_swaps(self):
        param = PermutationParameter("perm", 4)
        neighbours = param.neighbours((0, 1, 2, 3))
        assert len(neighbours) == 3
        for n in neighbours:
            assert hamming_permutation_distance((0, 1, 2, 3), n) == 2.0

    def test_metric_selection_changes_distance(self):
        a, b = (0, 1, 2, 3), (3, 2, 1, 0)
        spearman = PermutationParameter("perm", 4, metric="spearman")
        hamming = PermutationParameter("perm", 4, metric="hamming")
        naive = PermutationParameter("perm", 4, metric="naive")
        assert distance(spearman, a, b) == 20.0
        assert distance(hamming, a, b) == 4.0
        assert distance(naive, a, b) == 1.0

    def test_max_distance_is_attained_by_reversal(self):
        """The closed forms equal the oracle metric of the identity and its
        reversal, float for float, for every metric and n = 1..12 (the naive
        metric's maximum is 1 even for one element, whose reversal is the
        identity)."""
        for metric in PERMUTATION_METRICS:
            for n in range(1, 13):
                param = PermutationParameter("perm", n, metric=metric)
                identity = tuple(range(n))
                expected = distance(param, identity, identity[::-1])
                if metric == "naive" and n == 1:
                    expected = 1.0
                assert type(param.max_distance()) is float
                assert param.max_distance() == expected, (metric, n)

    def test_unknown_metric_raises(self):
        with pytest.raises(ValueError):
            PermutationParameter("perm", 4, metric="bogus")

    def test_default_is_identity(self):
        assert PermutationParameter("perm", 4).default == (0, 1, 2, 3)


def test_parameter_names_must_be_nonempty():
    with pytest.raises(ValueError):
        OrdinalParameter("", [1, 2])

"""Tests for the from-scratch decision tree and random forests."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ReferenceTree, forest_reference
from repro.models.random_forest import (
    DecisionTree,
    RandomForestClassifier,
    RandomForestRegressor,
    _mean,
    _var,
)


def _regression_data(rng, n=200):
    x = rng.uniform(-2, 2, size=(n, 3))
    y = np.where(x[:, 0] > 0, 3.0, -1.0) + 0.5 * x[:, 1]
    return x, y


def _classification_data(rng, n=200):
    x = rng.uniform(-1, 1, size=(n, 4))
    y = ((x[:, 0] + x[:, 1]) > 0).astype(float)
    return x, y


class TestDecisionTree:
    def test_fits_step_function(self, rng):
        x, y = _regression_data(rng)
        tree = DecisionTree(max_depth=6, max_features=None, rng=rng)
        tree.fit(x, y)
        predictions = tree.predict(x)
        assert np.mean((predictions - y) ** 2) < np.var(y)

    def test_depth_limit_respected(self, rng):
        x, y = _regression_data(rng)
        tree = DecisionTree(max_depth=2, max_features=None, rng=rng)
        tree.fit(x, y)
        assert tree.depth() <= 2

    def test_constant_targets_produce_leaf(self, rng):
        x = rng.uniform(size=(20, 2))
        tree = DecisionTree(rng=rng)
        tree.fit(x, np.full(20, 7.0))
        assert np.allclose(tree.predict(x), 7.0)
        assert tree.depth() == 0

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTree().predict(np.zeros((2, 2)))

    def test_shape_validation(self, rng):
        tree = DecisionTree(rng=rng)
        with pytest.raises(ValueError):
            tree.fit(np.zeros(5), np.zeros(5))
        with pytest.raises(ValueError):
            tree.fit(np.zeros((5, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            tree.fit(np.zeros((0, 2)), np.zeros(0))

    def test_min_samples_leaf(self, rng):
        x, y = _regression_data(rng, n=30)
        tree = DecisionTree(min_samples_leaf=10, max_features=None, rng=rng)
        tree.fit(x, y)
        leaves = tree.left == -1
        assert leaves.any() and tree.n_samples[leaves].min() >= 10


class TestRandomForestRegressor:
    def test_predictions_track_targets(self, rng):
        x, y = _regression_data(rng)
        forest = RandomForestRegressor(n_trees=16, rng=rng)
        forest.fit(x, y)
        predictions = forest.predict(x)
        assert np.corrcoef(predictions, y)[0, 1] > 0.9

    def test_uncertainty_is_nonnegative(self, rng):
        x, y = _regression_data(rng)
        forest = RandomForestRegressor(n_trees=8, rng=rng)
        forest.fit(x, y)
        _, variance = forest.predict_with_uncertainty(x[:10])
        assert np.all(variance >= 0)

    def test_generalizes_to_test_split(self, rng):
        x, y = _regression_data(rng, n=400)
        forest = RandomForestRegressor(n_trees=20, rng=rng)
        forest.fit(x[:300], y[:300])
        test_error = np.mean((forest.predict(x[300:]) - y[300:]) ** 2)
        assert test_error < np.var(y[300:])

    def test_requires_at_least_one_tree(self):
        with pytest.raises(ValueError):
            RandomForestRegressor(n_trees=0)

    def test_empty_fit_rejected(self, rng):
        with pytest.raises(ValueError):
            RandomForestRegressor(rng=rng).fit(np.zeros((0, 3)), np.zeros(0))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            RandomForestRegressor().predict(np.zeros((1, 2)))


class TestRandomForestClassifier:
    def test_probabilities_in_unit_interval(self, rng):
        x, y = _classification_data(rng)
        forest = RandomForestClassifier(n_trees=16, rng=rng)
        forest.fit(x, y)
        probabilities = forest.predict_proba(x)
        assert np.all(probabilities >= 0.0) and np.all(probabilities <= 1.0)

    def test_accuracy_on_separable_data(self, rng):
        x, y = _classification_data(rng, n=400)
        forest = RandomForestClassifier(n_trees=16, rng=rng)
        forest.fit(x[:300], y[:300])
        accuracy = np.mean(forest.predict(x[300:]) == y[300:])
        assert accuracy > 0.85

    def test_probability_ordering(self, rng):
        x, y = _classification_data(rng, n=300)
        forest = RandomForestClassifier(n_trees=16, rng=rng)
        forest.fit(x, y)
        clearly_positive = np.array([[0.9, 0.9, 0.0, 0.0]])
        clearly_negative = np.array([[-0.9, -0.9, 0.0, 0.0]])
        assert forest.predict_proba(clearly_positive)[0] > forest.predict_proba(clearly_negative)[0]

    def test_rejects_non_binary_targets(self, rng):
        x, _ = _classification_data(rng)
        forest = RandomForestClassifier(rng=rng)
        with pytest.raises(ValueError):
            forest.fit(x, np.full(len(x), 2.0))

    def test_reproducible_with_seeded_rng(self):
        x, y = _classification_data(np.random.default_rng(7), n=120)
        a = RandomForestClassifier(n_trees=8, rng=np.random.default_rng(11)).fit(x, y)
        b = RandomForestClassifier(n_trees=8, rng=np.random.default_rng(11)).fit(x, y)
        assert np.allclose(a.predict_proba(x), b.predict_proba(x))


#: rows of the wrong shape for a model fitted on rows of width 5
_WRONG_WIDTH = {
    "two extra columns": lambda rows: np.hstack([rows, np.full((len(rows), 2), 99.0)]),
    "one column short": lambda rows: rows[:, :-1],
    "one 1-D row": lambda rows: rows[0],
    "zero-width rows": lambda rows: rows[:, :0],
}


def _predictions(model):
    """Every predict method of ``model``, by name."""
    names = {
        DecisionTree: ["predict"],
        RandomForestRegressor: ["predict", "predict_with_uncertainty"],
        RandomForestClassifier: ["predict", "predict_proba"],
    }[type(model)]
    return {name: getattr(model, name) for name in names}


class TestRowWidth:
    """Rows that are not 2-D or not as wide as the training rows raise
    ``ValueError`` naming the width, instead of being read from their
    first columns or failing with an ``IndexError`` inside the walk."""

    @staticmethod
    def _models():
        x = np.random.default_rng(5).uniform(-1, 1, size=(60, 5))
        y = ((x[:, 0] + x[:, 1]) > 0).astype(float)
        return x, [
            DecisionTree(max_features=None, rng=np.random.default_rng(1)).fit(x, y),
            RandomForestRegressor(n_trees=4, rng=np.random.default_rng(2)).fit(x, y),
            RandomForestClassifier(n_trees=4, rng=np.random.default_rng(3)).fit(x, y),
        ]

    @pytest.mark.parametrize("wrong", list(_WRONG_WIDTH))
    def test_wrong_width_raises(self, wrong):
        x, models = self._models()
        bad = _WRONG_WIDTH[wrong](x[:7])
        for model in models:
            for predict in _predictions(model).values():
                with pytest.raises(ValueError, match=r"expected rows of width 5, got shape \("):
                    predict(bad)

    def test_zero_rows_of_the_right_width(self):
        x, models = self._models()
        for model in models:
            for name, predict in _predictions(model).items():
                outputs = predict(x[:0])
                for output in outputs if isinstance(outputs, tuple) else (outputs,):
                    assert output.shape == (0,), name


@pytest.mark.parametrize(
    "forest_class", [RandomForestRegressor, RandomForestClassifier, DecisionTree]
)
@pytest.mark.parametrize(
    "features, targets",
    [
        (np.arange(10.0).reshape(5, 2), np.zeros(7)),  # more targets than rows
        (np.arange(10.0).reshape(5, 2), np.zeros(3)),  # fewer targets than rows
        (np.arange(5.0), np.zeros(5)),  # 1-D features
        (np.full((5, 2), np.nan), np.zeros(5)),  # non-finite features
        (np.zeros((5, 0)), np.array([0.0, 1.0, 0.0, 1.0, 1.0])),  # no columns
    ],
)
def test_rejected_fit_draws_nothing(forest_class, features, targets):
    """Bad input raises ValueError before the forest draws any randomness."""
    generator = np.random.default_rng(3)
    before = generator.bit_generator.state
    with pytest.raises(ValueError):
        forest_class(rng=generator).fit(features, targets)
    assert generator.bit_generator.state == before


# ---------------------------------------------------------------------------
# the flat-array forest against the recursive oracle
# ---------------------------------------------------------------------------


def _column(rng, kind, n):
    if kind == "levels":  # BaCO's regime: a few distinct encoded values
        levels = rng.normal(size=int(rng.integers(2, 9))) * rng.choice([1.0, 8.0])
        return levels[rng.integers(len(levels), size=n)]
    return rng.normal(size=n) * 10.0  # continuous: >33 distinct -> quantiles


def _targets(rng, kind, n):
    if kind == "binary":
        return (rng.random(n) < rng.uniform(0.2, 0.9)).astype(float)
    if kind == "continuous":
        return rng.normal(size=n) * 3.0 + 1.0
    # Ytopt-style: runtimes, with infeasible points at a large penalty
    values = rng.lognormal(size=n)
    infeasible = rng.random(n) < 0.3
    penalty = values[~infeasible].max() * 10.0 if (~infeasible).any() else 1e6
    return np.where(infeasible, penalty, values)


@st.composite
def reduction_inputs(draw):
    """1-D float64 arrays as ``_grow`` and ``_rescore`` reduce them."""
    n = draw(st.integers(1, 300))
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["binary", "penalty", "scaled", "gathered"]))
    if kind in ("binary", "penalty"):
        return _targets(data, kind, n)
    if kind == "scaled":
        return data.normal(size=n) * 10.0 ** data.uniform(-5.0, 5.0)
    # a node's targets, gathered from a larger array with repeats
    targets = _targets(data, draw(st.sampled_from(["binary", "continuous", "penalty"])),
                       n + int(data.integers(1, 300)))
    return targets[data.integers(len(targets), size=n)]


class TestWrapperFreeReductions:
    """``_mean`` and ``_var`` take ``np.mean``'s and ``np.var``'s own
    steps without their Python wrappers, so they agree to the last bit."""

    @settings(deadline=None)
    @given(reduction_inputs())
    def test_bytes_equal_numpy(self, a):
        mean = _mean(a)
        assert type(mean) is float
        assert struct.pack("<d", mean) == struct.pack("<d", float(np.mean(a)))
        assert np.float64(_var(a)).tobytes() == np.float64(np.var(a)).tobytes()


@st.composite
def forest_cases(draw):
    n = draw(st.integers(1, 150))
    n_features = draw(st.integers(1, 12))
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for j in range(n_features):
        kind = draw(st.sampled_from(["levels", "levels", "continuous", "duplicate"]))
        if kind == "duplicate" and columns:
            columns.append(columns[draw(st.integers(0, j - 1))].copy())
        else:
            columns.append(_column(data, "levels" if kind == "duplicate" else kind, n))
    features = np.column_stack(columns)
    target_kind = draw(st.sampled_from(["binary", "continuous", "penalty"]))
    targets = _targets(data, target_kind, n)
    fresh = np.where(
        data.random((40, n_features)) < 0.5,
        features[data.integers(n, size=40)],
        data.normal(size=(40, n_features)) * 10.0,
    )
    params = dict(
        n_trees=draw(st.integers(1, 6)),
        max_depth=draw(st.sampled_from([2, 5, 12])),
        min_samples_split=draw(st.integers(2, 6)),
        min_samples_leaf=draw(st.integers(1, 10)),
        max_features=draw(st.sampled_from([None, "sqrt", draw(st.integers(1, 13))])),
        bootstrap=draw(st.booleans()),
    )
    forest_class = RandomForestClassifier if target_kind == "binary" else RandomForestRegressor
    return forest_class, params, draw(st.integers(0, 2**32 - 1)), features, targets, fresh


@st.composite
def overflow_cases(draw):
    """Regressor fits whose squared target deviations overflow: 3 trees that
    try every feature on 4–5 rows of 1–2 features with targets of magnitude
    up to 10^308, or 4 trees with ``"sqrt"`` features on 4–59 rows of 1–12
    features with targets up to 10^160."""
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        params, rows, width, exponents = (
            dict(n_trees=3, max_features=None, min_samples_leaf=1), (4, 6), (1, 3), (250, 308)
        )
    else:
        params, rows, width, exponents = (
            dict(n_trees=4, max_features="sqrt"), (4, 60), (1, 13), (140, 160)
        )
    n = int(data.integers(*rows))
    features = data.normal(size=(n, int(data.integers(*width))))
    targets = data.uniform(-1, 1, n) * 10.0 ** data.uniform(*exponents, n)
    return params, draw(st.integers(0, 2**32 - 1)), features, targets


def _same(got, want) -> bool:
    """``got == want`` for nested tuples and lists, except that NaN equals NaN."""
    if isinstance(got, (list, tuple)):
        return (
            isinstance(want, (list, tuple))
            and len(got) == len(want)
            and all(_same(a, b) for a, b in zip(got, want))
        )
    return got == want or (got != got and want != want)


def _preorder(node, out):
    out.append((node.feature, node.threshold, node.value, node.n_samples, node.is_leaf()))
    if not node.is_leaf():
        _preorder(node.left, out)
        _preorder(node.right, out)
    return out


def _flat(tree):
    return [
        (int(f), float(t), float(v), int(n), bool(left < 0))
        for f, t, v, n, left in zip(
            tree.feature, tree.threshold, tree.value, tree.n_samples, tree.left
        )
    ]


class TestOracleEquivalence:
    """The flat-array lockstep forest against the recursive implementation
    in ``tests/oracles.py``: same splits, same leaf values, same predictions
    and the same state of the forest's and every tree's generator, compared
    with ``==``.  The properties take their example count from the
    hypothesis profile (``tests/conftest.py``)."""

    @settings(deadline=None)
    @given(forest_cases())
    def test_forest_matches_recursive_oracle(self, case):
        forest_class, params, seed, features, targets, fresh = case
        forest = forest_class(rng=np.random.default_rng(seed), **params)
        forest.fit(features, targets)
        oracle = forest_class(rng=np.random.default_rng(seed), **params)
        reference = forest_reference(oracle, features, targets)

        # node splits and leaf values agree in preorder
        assert [_flat(tree) for tree in forest.trees_] == [
            _preorder(tree._root, []) for tree in reference
        ]
        assert forest._rng.bit_generator.state == oracle._rng.bit_generator.state
        # one draw too many, even after a tree's last split, moves its generator
        assert [tree._rng.bit_generator.state for tree in forest.trees_] == [
            tree._rng.bit_generator.state for tree in reference
        ]

        for rows in (features, fresh, np.zeros((0, features.shape[1]))):
            expected = np.vstack([tree.predict(rows) for tree in reference])
            mean = expected.mean(axis=0)
            if forest_class is RandomForestClassifier:
                proba = np.clip(mean, 0.0, 1.0)
                assert np.array_equal(forest.predict_proba(rows), proba)
                assert np.array_equal(forest.predict(rows), (proba >= 0.5).astype(int))
            else:
                assert np.array_equal(forest.predict(rows), mean)
                got_mean, got_var = forest.predict_with_uncertainty(rows)
                assert np.array_equal(got_mean, mean)
                assert np.array_equal(got_var, expected.var(axis=0) + 1e-12)

    @settings(deadline=None)
    @given(overflow_cases())
    def test_overflowing_targets_split_as_the_oracle_does(self, case):
        """A node whose gains or squared deviations overflow cannot be
        screened, so all its thresholds are re-scored and it splits where
        ``np.var``'s scores split it.  Targets whose sum overflows leave NaN
        leaves on both sides, which compare equal here."""
        params, seed, features, targets = case
        with np.errstate(over="ignore", invalid="ignore"):
            forest = RandomForestRegressor(rng=np.random.default_rng(seed), **params)
            forest.fit(features, targets)
            oracle = RandomForestRegressor(rng=np.random.default_rng(seed), **params)
            reference = forest_reference(oracle, features, targets)
        assert _same(
            [_flat(tree) for tree in forest.trees_],
            [_preorder(tree._root, []) for tree in reference],
        )
        assert [tree._rng.bit_generator.state for tree in forest.trees_] == [
            tree._rng.bit_generator.state for tree in reference
        ]

    @pytest.mark.parametrize("seed", range(3))
    def test_binary_ties_break_like_np_var(self, seed):
        """Small 0/1 data is full of exactly tied gains, which ``np.var``'s
        pairwise summation breaks by element order; the re-score must break
        them the same way (a screened argmax alone does not)."""
        data = np.random.default_rng(seed)
        features = data.integers(0, 4, size=(60, 6)).astype(float)
        targets = (data.random(60) < 0.4).astype(float)
        forest = RandomForestClassifier(n_trees=16, rng=np.random.default_rng(seed))
        forest.fit(features, targets)
        oracle = RandomForestClassifier(n_trees=16, rng=np.random.default_rng(seed))
        reference = forest_reference(oracle, features, targets)
        assert [_flat(tree) for tree in forest.trees_] == [
            _preorder(tree._root, []) for tree in reference
        ]

    def test_tree_matches_recursive_oracle(self, rng):
        x = rng.integers(0, 3, size=(80, 5)).astype(float)
        y = (rng.random(80) < 0.5).astype(float)
        tree = DecisionTree(max_features=2, rng=np.random.default_rng(4)).fit(x, y)
        reference = ReferenceTree(max_features=2, rng=np.random.default_rng(4)).fit(x, y)
        assert _flat(tree) == _preorder(reference._root, [])
        assert tree.depth() == reference.depth()
        assert np.array_equal(tree.predict(x), reference.predict(x))

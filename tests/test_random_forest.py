"""Tests for the from-scratch decision tree and random forests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ReferenceTree, forest_reference, walk_reference
from repro.models.random_forest import DecisionTree, RandomForestClassifier, RandomForestRegressor


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
# the level-wise forest against the split-quality oracle
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


def _assert_split_quality(tree, reference, features, targets):
    """``tree``, fitted on ``features``/``targets``, against the oracle
    ``reference`` on the tree's seed: every node reached by the rows its
    splits send it, in level order; means as ``np.mean`` takes them; each
    split among the drawn candidates' thresholds and as good as the best of
    them by ``np.var`` (within rounding), each leaf one that may not split
    or has no split worth ``1e-12``; and the tree's generator left where the
    oracle's draws leave it."""
    records, min_gain = reference.replay(tree, features, targets)
    assert [record.node for record in records] == list(range(len(tree.value)))
    for record in records:
        assert tree.n_samples[record.node] == record.n_samples
        assert abs(tree.value[record.node] - record.mean) <= 1e-12 * record.spread
        tolerance = 1e-9 * record.parent_score
        if record.taken_gain is None:
            assert tree.left[record.node] == tree.right[record.node] == tree.feature[record.node] == -1
            if record.may_split:
                assert record.best_gain <= min_gain + tolerance
        else:
            assert record.may_split and record.taken_is_candidate
            assert record.taken_gain >= record.best_gain - tolerance
            assert record.taken_gain > min_gain - tolerance
    # one draw too many, even after a tree's last split, moves its generator
    assert tree._rng.bit_generator.state == reference._rng.bit_generator.state


def _assert_forest_quality(forest, oracle, features, targets):
    """Every tree of ``forest`` against the oracle trees that the unfitted
    ``oracle`` (same class, seed and settings) draws."""
    references = forest_reference(oracle, features)
    assert forest._rng.bit_generator.state == oracle._rng.bit_generator.state
    assert len(references) == len(forest.trees_)
    for tree, (reference, idx) in zip(forest.trees_, references):
        _assert_split_quality(tree, reference, features[idx], targets[idx])


class TestSplitQuality:
    """The level-wise forest against the split-quality oracle in
    ``tests/oracles.py``, and its predictions against a per-row walk of its
    own trees.  The properties take their example count from the
    hypothesis profile (``tests/conftest.py``)."""

    @settings(deadline=None)
    @given(forest_cases())
    def test_splits_are_the_best_of_their_candidates(self, case):
        forest_class, params, seed, features, targets, fresh = case
        forest = forest_class(rng=np.random.default_rng(seed), **params).fit(features, targets)
        oracle = forest_class(rng=np.random.default_rng(seed), **params)
        _assert_forest_quality(forest, oracle, features, targets)

        for rows in (features, fresh, np.zeros((0, features.shape[1]))):
            expected = np.vstack([walk_reference(tree, rows) for tree in forest.trees_])
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
    def test_overflowing_targets_still_split_at_their_best(self, case):
        """Targets whose squared deviations (or sums) overflow are scaled by
        a power of two for the fit, so every node that has a split worth
        taking takes its best one instead of staying a leaf, the leaves hold
        finite means, and a second fit grows the same trees."""
        params, seed, features, targets = case
        forest = RandomForestRegressor(rng=np.random.default_rng(seed), **params)
        forest.fit(features, targets)
        again = RandomForestRegressor(rng=np.random.default_rng(seed), **params)
        again.fit(features, targets)
        for tree, twin in zip(forest.trees_, again.trees_):
            for name in ("feature", "threshold", "left", "right", "value", "n_samples"):
                assert getattr(tree, name).tobytes() == getattr(twin, name).tobytes()
            assert np.isfinite(tree.value).all()
        oracle = RandomForestRegressor(rng=np.random.default_rng(seed), **params)
        _assert_forest_quality(forest, oracle, features, targets)

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_ties_go_to_the_first_drawn_candidate(self, seed):
        """Two identical columns split the root equally well, and 0/1
        targets make the screen's gains exact; the tree takes the column
        drawn first."""
        data = np.random.default_rng(seed)
        signal = data.integers(0, 4, size=40).astype(float)
        features = np.column_stack([data.normal(size=40), signal, data.normal(size=40), signal])
        targets = (signal >= 2).astype(float)
        tree = DecisionTree(max_features=None, rng=np.random.default_rng(seed)).fit(features, targets)
        drawn = np.random.default_rng(seed).random((1, 4)).argsort(axis=1)[0].tolist()
        assert tree.feature[0] == min((1, 3), key=drawn.index)
        assert tree.threshold[0] == 1.5

    @pytest.mark.parametrize("forest_class", [RandomForestRegressor, RandomForestClassifier])
    def test_a_split_that_gains_nothing_is_not_taken(self, forest_class):
        """The only threshold leaves both sides' means equal, so it gains
        exactly nothing: every tree stays a single leaf."""
        features = np.array([[0.0], [0.0], [1.0], [1.0]])
        targets = np.array([0.0, 1.0, 0.0, 1.0])
        forest = forest_class(n_trees=3, min_samples_split=2, min_samples_leaf=1,
                              max_features=None, bootstrap=False, rng=np.random.default_rng(0))
        forest.fit(features, targets)
        assert [len(tree.value) for tree in forest.trees_] == [1, 1, 1]

    def test_tree_against_the_oracle(self, rng):
        x = rng.integers(0, 3, size=(80, 5)).astype(float)
        y = (rng.random(80) < 0.5).astype(float)
        tree = DecisionTree(max_features=2, rng=np.random.default_rng(4)).fit(x, y)
        reference = ReferenceTree(max_features=2, rng=np.random.default_rng(4))
        _assert_split_quality(tree, reference, x, y)
        assert np.array_equal(tree.predict(x), walk_reference(tree, x))

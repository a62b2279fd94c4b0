"""Random forests written from scratch on numpy.

Two uses inside the reproduction:

* :class:`RandomForestClassifier` is BaCO's *feasibility model* for hidden
  constraints (Sec. 4.2): it predicts the probability that a configuration
  satisfies constraints that are only discovered by running the compiler.
* :class:`RandomForestRegressor` serves as the alternative surrogate model in
  the GP-vs-RF comparison (Fig. 8) and as the surrogate of the Ytopt-like
  baseline.

Both are built on a shared CART-style :class:`DecisionTree` with bootstrap
sampling and per-split feature subsampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["DecisionTree", "RandomForestRegressor", "RandomForestClassifier"]


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    value: float = 0.0
    n_samples: int = 0

    def is_leaf(self) -> bool:
        return self.left is None


class DecisionTree:
    """A CART regression tree (classification uses 0/1 targets).

    Splits minimize the weighted variance (MSE criterion); for binary
    classification targets this is equivalent to the Gini impurity up to a
    constant factor, so a single implementation serves both forests.
    """

    def __init__(
        self,
        max_depth: int = 12,
        min_samples_split: int = 4,
        min_samples_leaf: int = 2,
        max_features: str | int | None = "sqrt",
        rng: np.random.Generator | None = None,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._root: _Node | None = None
        self.n_features_: int | None = None

    # -- fitting --------------------------------------------------------
    def fit(self, features: np.ndarray, targets: np.ndarray) -> "DecisionTree":
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if len(features) != len(targets):
            raise ValueError("features and targets must have the same length")
        if len(features) == 0:
            raise ValueError("cannot fit a tree on zero samples")
        self.n_features_ = features.shape[1]
        self._root = self._grow(features, targets, depth=0)
        return self

    def _n_split_features(self) -> int:
        if self.max_features is None:
            return self.n_features_
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(self.n_features_)))
        if isinstance(self.max_features, int):
            return max(1, min(self.max_features, self.n_features_))
        raise ValueError(f"unsupported max_features {self.max_features!r}")

    def _grow(self, features: np.ndarray, targets: np.ndarray, depth: int) -> _Node:
        node = _Node(value=float(np.mean(targets)), n_samples=len(targets))
        if (
            depth >= self.max_depth
            or len(targets) < self.min_samples_split
            or np.all(targets == targets[0])
        ):
            return node
        best = self._best_split(features, targets)
        if best is None:
            return node
        feature, threshold, left_mask = best
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(features[left_mask], targets[left_mask], depth + 1)
        node.right = self._grow(features[~left_mask], targets[~left_mask], depth + 1)
        return node

    def _best_split(
        self, features: np.ndarray, targets: np.ndarray
    ) -> tuple[int, float, np.ndarray] | None:
        n_samples = len(targets)
        candidates = self._rng.choice(
            self.n_features_, size=self._n_split_features(), replace=False
        )
        parent_score = np.var(targets) * n_samples
        best_gain = 1e-12
        best: tuple[int, float, np.ndarray] | None = None
        for feature in candidates:
            column = features[:, feature]
            unique = np.unique(column)
            if len(unique) < 2:
                continue
            thresholds = (unique[:-1] + unique[1:]) / 2.0
            if len(thresholds) > 32:
                thresholds = np.quantile(column, np.linspace(0.05, 0.95, 32))
            for threshold in thresholds:
                left_mask = column <= threshold
                n_left = int(left_mask.sum())
                n_right = n_samples - n_left
                if n_left < self.min_samples_leaf or n_right < self.min_samples_leaf:
                    continue
                score = np.var(targets[left_mask]) * n_left + np.var(targets[~left_mask]) * n_right
                gain = parent_score - score
                if gain > best_gain:
                    best_gain = gain
                    best = (int(feature), float(threshold), left_mask)
        return best

    # -- prediction -----------------------------------------------------
    def predict(self, features: np.ndarray) -> np.ndarray:
        """Vectorized batch prediction.

        Rather than walking the tree once per row, the whole batch is routed
        down the tree with boolean masks: each split partitions the index set
        of rows that reached it.  The cost is O(depth) numpy operations per
        *node on the taken paths* instead of O(depth) Python steps per *row*,
        which is what makes 1000-candidate feasibility scoring cheap.
        """
        if self._root is None:
            raise RuntimeError("predict() called before fit()")
        features = np.asarray(features, dtype=float)
        out = np.empty(len(features))
        stack: list[tuple[_Node, np.ndarray]] = [(self._root, np.arange(len(features)))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if node.is_leaf():
                out[idx] = node.value
                continue
            goes_left = features[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[goes_left]))
            stack.append((node.right, idx[~goes_left]))
        return out

    def depth(self) -> int:
        def rec(node: _Node | None) -> int:
            if node is None or node.is_leaf():
                return 0
            return 1 + max(rec(node.left), rec(node.right))

        return rec(self._root)


class _BaseForest:
    def __init__(
        self,
        n_trees: int = 32,
        max_depth: int = 12,
        min_samples_split: int = 4,
        min_samples_leaf: int = 2,
        max_features: str | int | None = "sqrt",
        bootstrap: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        if n_trees < 1:
            raise ValueError("a forest needs at least one tree")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.trees_: list[DecisionTree] = []

    def fit(self, features: np.ndarray, targets: np.ndarray):
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if len(features) == 0:
            raise ValueError("cannot fit a forest on zero samples")
        n = len(features)
        self.trees_ = []
        for _ in range(self.n_trees):
            tree = DecisionTree(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                rng=np.random.default_rng(self._rng.integers(2**32)),
            )
            if self.bootstrap and n > 1:
                idx = self._rng.integers(0, n, size=n)
            else:
                idx = np.arange(n)
            tree.fit(features[idx], targets[idx])
            self.trees_.append(tree)
        return self

    @property
    def is_fitted(self) -> bool:
        return bool(self.trees_)

    def _tree_predictions(self, features: np.ndarray) -> np.ndarray:
        if not self.is_fitted:
            raise RuntimeError("predict() called before fit()")
        features = np.asarray(features, dtype=float)
        return np.vstack([tree.predict(features) for tree in self.trees_])


class RandomForestRegressor(_BaseForest):
    """Bagged regression forest with empirical mean / variance predictions."""

    def predict(self, features: np.ndarray) -> np.ndarray:
        return self._tree_predictions(features).mean(axis=0)

    def predict_with_uncertainty(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mean and across-tree variance, used as a surrogate's uncertainty."""
        predictions = self._tree_predictions(features)
        return predictions.mean(axis=0), predictions.var(axis=0) + 1e-12


class RandomForestClassifier(_BaseForest):
    """Binary classifier returning calibrated-ish probabilities.

    Targets must be 0/1; the predicted probability of class 1 is the mean of
    the per-tree leaf frequencies, which is what BaCO multiplies into its
    acquisition function as the probability of feasibility.
    """

    def fit(self, features: np.ndarray, targets: np.ndarray):
        targets = np.asarray(targets, dtype=float)
        if not np.all(np.isin(targets, (0.0, 1.0))):
            raise ValueError("classification targets must be 0 or 1")
        return super().fit(features, targets)

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        return np.clip(self._tree_predictions(features).mean(axis=0), 0.0, 1.0)

    def predict(self, features: np.ndarray) -> np.ndarray:
        return (self.predict_proba(features) >= 0.5).astype(int)

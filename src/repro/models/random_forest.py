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

Layout.  A fitted tree is six flat node arrays in level order — ``feature``,
``threshold``, ``left``, ``right``, ``value``, ``n_samples`` — where a leaf
has ``left == right == -1`` and ``feature == -1``.  A forest stacks its
trees into one node table at fit time and predicts by walking every tree
for every row at once, one gather per level.

Growth.  All trees of a forest grow together, one level per round
(:func:`_grow`), so a fit screens at most ``max_depth`` times.  A round
settles the whole frontier in one batch: each node's mean target, and
whether it may split (not too deep, at least ``min_samples_split`` rows,
targets not all equal).  Each tree with nodes that may split draws their
candidate features with one call on its own generator — the first ``k``
of an argsort of one row of uniforms per node — so the forest's generator
draws only each tree's seed and bootstrap sample.  One screen
(:func:`_best_splits`) then scores every threshold of the round: feature
columns become integer codes (ranks of the column's distinct values) once
per fit, one ``np.bincount`` gives every (node, candidate feature, code)
row count and target sum, and prefix sums over the codes give each
threshold's reduction of the node's squared deviation.  A node splits at
the screen's argmax, ties going to the first in (candidate, threshold)
order, if that gain exceeds ``1e-12``; one stable sort then hands every
child its rows, left child before right.

Targets are scaled into [-1, 1] by a power of two for the fit, which is
exact, so no sum or gain overflows even for targets near 1e308, and the
screen's sums are taken relative to each node's smallest target, so the
sums of 0/1 targets are exact and their equal gains tie exactly.
``tests/oracles.py`` keeps the historical recursive tree's ``np.var``
split rule as a split-quality oracle.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DecisionTree", "RandomForestRegressor", "RandomForestClassifier"]

#: a node column with more thresholds than this splits at quantiles instead
_MAX_THRESHOLDS = 32
_QUANTILES = np.linspace(0.05, 0.95, _MAX_THRESHOLDS)
#: a split must reduce the node's squared deviation by more than this
_MIN_GAIN = 1e-12


def _training_data(features, targets) -> tuple[np.ndarray, np.ndarray]:
    """Validated float copies of a training set (raises before any draw)."""
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if features.ndim != 2:
        raise ValueError("features must be a 2-D array")
    if features.shape[1] == 0:
        raise ValueError("features must have at least one column")
    if targets.ndim != 1 or len(targets) != len(features):
        raise ValueError("targets must be a 1-D array with one value per feature row")
    if len(features) == 0:
        raise ValueError("cannot fit on zero samples")
    if not (np.isfinite(features).all() and np.isfinite(targets).all()):
        raise ValueError("features and targets must be finite")
    return features, targets


def _n_split_features(max_features: str | int | None, n_features: int) -> int:
    if max_features is None:
        return n_features
    if max_features == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    if isinstance(max_features, int):
        return max(1, min(max_features, n_features))
    raise ValueError(f"unsupported max_features {max_features!r}")


class DecisionTree:
    """A CART regression tree (classification uses 0/1 targets).

    Splits minimize the weighted variance (MSE criterion); for binary
    classification targets this is equivalent to the Gini impurity up to a
    constant factor, so a single implementation serves both forests.
    After :meth:`fit` the tree is the flat level-order node arrays
    described in the module docstring.
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
        self.n_features_: int | None = None
        self.feature: np.ndarray | None = None
        self.threshold: np.ndarray | None = None
        self.left: np.ndarray | None = None
        self.right: np.ndarray | None = None
        self.value: np.ndarray | None = None
        self.n_samples: np.ndarray | None = None
        self._depth = 0

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "DecisionTree":
        features, targets = _training_data(features, targets)
        _grow([self], features, targets, [np.arange(len(targets))])
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self.value is None:
            raise RuntimeError("predict() called before fit()")
        return _walk(_stack([self]), features)[0]

    def depth(self) -> int:
        return self._depth


def _grow(
    trees: list[DecisionTree],
    features: np.ndarray,
    targets: np.ndarray,
    samples: list[np.ndarray],
) -> None:
    """Grow ``trees[t]`` on rows ``samples[t]``, all trees one level per round.

    Every tree shares the first one's hyper-parameters and draws from its
    own generator.  The frontier is every tree's nodes at one depth, tree
    by tree, and each node's rows are one run of ``rows``.
    """
    first = trees[0]
    n_trees, n_features = len(trees), features.shape[1]
    n_candidates = _n_split_features(first.max_features, n_features)
    min_leaf = max(first.min_samples_leaf, 1)  # a child needs a row
    codes = np.empty(features.shape, dtype=np.intp)
    uniques = []
    for column in range(n_features):
        unique, codes[:, column] = np.unique(features[:, column], return_inverse=True)
        uniques.append(unique)
    # column values by code, padded; codes past a column's width never occur
    values = np.zeros((n_features, max(len(unique) for unique in uniques)))
    for column, unique in enumerate(uniques):
        values[column, : len(unique)] = unique
    # an exact power-of-two scale into [-1, 1]: no sum or gain overflows
    exponent = int(np.frexp(np.abs(targets).max())[1])
    scaled = np.ldexp(targets, -exponent)
    min_gain = np.ldexp(_MIN_GAIN, -2 * exponent)

    tree = np.arange(n_trees)
    sizes = np.array([len(rows) for rows in samples])
    rows = np.concatenate(samples)
    # per round: each frontier node's tree, value, row count, feature,
    # threshold and, if it splits, its left child's index among all nodes
    levels = []
    n_nodes = 0
    while True:
        starts = np.cumsum(sizes) - sizes
        node_targets = scaled[rows]
        low = np.minimum.reduceat(node_targets, starts)
        may_split = (sizes >= first.min_samples_split) & (
            low != np.maximum.reduceat(node_targets, starts)
        ) & (len(levels) < first.max_depth)
        feature = np.full(len(sizes), -1)
        threshold = np.zeros(len(sizes))
        child = np.full(len(sizes), -1)
        value = np.ldexp(np.add.reduceat(node_targets, starts) / sizes, exponent)
        levels.append((tree, value, sizes, feature, threshold, child))
        n_nodes += len(sizes)
        splitting = np.flatnonzero(may_split)
        if not len(splitting):
            break
        # each tree draws the candidates of all its splitting nodes in one call
        per_tree = np.bincount(tree[splitting], minlength=n_trees).tolist()
        candidates = np.concatenate([
            trees[t]._rng.random((count, n_features)) for t, count in enumerate(per_tree) if count
        ]).argsort(axis=1)[:, :n_candidates]
        owner = np.repeat(np.arange(len(sizes)), sizes)
        screened = may_split[owner]
        split, split_feature, split_threshold, cut = _best_splits(
            features, codes, uniques, values, rows[screened], sizes[splitting],
            (node_targets - low[owner])[screened], candidates, min_leaf, min_gain,
        )
        if not len(split):
            break
        nodes = splitting[split]
        feature[nodes], threshold[nodes] = split_feature, split_threshold
        child[nodes] = n_nodes + 2 * np.arange(len(nodes))
        # one stable sort hands each child its rows, left child before right
        slot = np.full(len(sizes), -1)
        slot[nodes] = np.arange(len(nodes))
        slot = slot[owner]
        kept = slot >= 0
        rows, slot = rows[kept], slot[kept]
        side = 2 * slot + (codes[rows, split_feature[slot]] > cut[slot])
        rows = rows[np.argsort(side, kind="stable")]
        sizes = np.bincount(side, minlength=2 * len(nodes))
        tree = np.repeat(tree[nodes], 2)

    # number each tree's nodes in level order and cut the tables per tree
    tree, value, n_samples, feature, threshold, child = (
        np.concatenate(column) for column in zip(*levels)
    )
    depth = np.repeat(np.arange(len(levels)), [len(level[0]) for level in levels])
    order = np.argsort(tree, kind="stable")
    counts = np.bincount(tree, minlength=n_trees)
    stops = np.cumsum(counts)
    local = np.empty(n_nodes, dtype=np.intp)
    local[order] = np.arange(n_nodes) - np.repeat(stops - counts, counts)
    left, right = np.full(n_nodes, -1), np.full(n_nodes, -1)
    inner = child >= 0
    left[inner], right[inner] = local[child[inner]], local[child[inner] + 1]
    tables = [array[order] for array in (feature, threshold, left, right, value, n_samples)]
    depth = depth[order]
    for grown, start, stop in zip(trees, (stops - counts).tolist(), stops.tolist()):
        grown.n_features_ = n_features
        (grown.feature, grown.threshold, grown.left, grown.right, grown.value,
         grown.n_samples) = (table[start:stop] for table in tables)
        grown._depth = int(depth[stop - 1])


def _best_splits(
    features: np.ndarray,
    codes: np.ndarray,
    uniques: list[np.ndarray],
    values: np.ndarray,
    rows: np.ndarray,
    sizes: np.ndarray,
    offsets: np.ndarray,
    candidates: np.ndarray,
    min_leaf: int,
    min_gain: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The screen's best split of each node that splits.

    Node ``i`` holds the next ``sizes[i]`` of ``rows``, whose targets less
    the node's smallest are the same run of ``offsets``, and drew the
    features ``candidates[i]``.  Returns the nodes that split, ascending,
    and each one's ``feature``, ``threshold`` and ``cut``: rows whose
    ``codes[:, feature]`` is at most ``cut`` go left, exactly the rows with
    ``features[:, feature] <= threshold``.
    """
    n_nodes, n_slots = candidates.shape
    owner = np.repeat(np.arange(n_nodes), sizes)
    width = values.shape[1]

    # per key (node, slot) and code: row count and offset sum, then prefix
    # sums along the codes = the left side of a cut at that code
    n_bins = n_nodes * n_slots * width
    bins = ((owner[:, None] * n_slots + np.arange(n_slots)) * width
            + codes[rows[:, None], candidates[owner]]).ravel()
    count = np.bincount(bins, minlength=n_bins)
    left_count = count.reshape(-1, width).cumsum(axis=1).ravel()
    left_sum = (np.bincount(bins, np.repeat(offsets, n_slots), n_bins)
                .reshape(-1, width).cumsum(axis=1).ravel())

    # thresholds: midpoints between consecutive codes present in the node,
    # or the node column's quantiles when there are too many of those
    key, code = np.divmod(np.flatnonzero(count), width)
    quantiled = np.bincount(key, minlength=n_nodes * n_slots) > _MAX_THRESHOLDS + 1
    pair = np.flatnonzero((key[1:] == key[:-1]) & ~quantiled[key[1:]])
    key, lower, upper = key[pair], code[pair], code[pair + 1]
    column = candidates.ravel()[key]
    low, high = values[column, lower], values[column, upper]
    threshold = (low + high) / 2.0
    # a rounded midpoint can land on the upper value; it then goes left too
    cut = np.where(threshold >= high, upper, lower)
    if quantiled.any():
        stops = np.cumsum(sizes)
        parts = [(key, cut, threshold)]
        for k in np.flatnonzero(quantiled).tolist():
            f, i = candidates.flat[k], k // n_slots
            q = np.quantile(features[rows[stops[i] - sizes[i] : stops[i]], f], _QUANTILES)
            parts.append((np.full(len(q), k), np.searchsorted(uniques[f], q, side="right") - 1, q))
        order = np.argsort(np.concatenate([p[0] for p in parts]), kind="stable")
        key, cut, threshold = (np.concatenate(p)[order] for p in zip(*parts))
        column = candidates.ravel()[key]
    node = key // n_slots
    if not len(node):
        return node, column, threshold, cut

    # gain n_L n_R / n (mean_L - mean_R)^2, the drop in squared deviation
    n = sizes[node]
    n_left = left_count[key * width + cut]
    n_right = n - n_left
    s_left = left_sum[key * width + cut]
    s_total = left_sum[key * width + width - 1]
    # a midpoint or quantile that overflows to inf or NaN sends every row
    # one way; an empty side (a zero denominator) is never valid either
    valid = np.isfinite(threshold) & (n_left >= min_leaf) & (n_right >= min_leaf)
    gain = (n * s_left - n_left * s_total) ** 2 / np.maximum(n * n_left * n_right, 1)
    gain = np.where(valid, gain, -np.inf)
    # each node's first best threshold, in (candidate, threshold) order
    first = np.ones(len(node), dtype=bool)
    np.not_equal(node[1:], node[:-1], out=first[1:])
    best = np.maximum.reduceat(gain, np.flatnonzero(first))
    segment = np.cumsum(first) - 1
    hits = np.flatnonzero(gain == best[segment])
    first = np.ones(len(hits), dtype=bool)
    np.not_equal(segment[hits[1:]], segment[hits[:-1]], out=first[1:])
    chosen = hits[first][best > min_gain]
    return node[chosen], column[chosen], threshold[chosen], cut[chosen]


def _stack(trees: list[DecisionTree]) -> tuple:
    """One node table for ``trees``: leaves point at themselves.  It ends
    with the deepest tree's depth and the row width the trees were fitted on."""
    sizes = [len(tree.value) for tree in trees]
    offsets = np.cumsum([0] + sizes[:-1])
    own = np.arange(sum(sizes))
    left = np.concatenate([tree.left + o for tree, o in zip(trees, offsets)])
    right = np.concatenate([tree.right + o for tree, o in zip(trees, offsets)])
    leaf = np.concatenate([tree.left < 0 for tree in trees])
    return (
        np.where(leaf, 0, np.concatenate([tree.feature for tree in trees])),
        np.concatenate([tree.threshold for tree in trees]),
        np.where(leaf, own, left),
        np.where(leaf, own, right),
        np.concatenate([tree.value for tree in trees]),
        offsets,
        max(tree.depth() for tree in trees),
        trees[0].n_features_,
    )


def _walk(table: tuple, features: np.ndarray) -> np.ndarray:
    """``(n_trees, n_rows)`` leaf values: every tree, every row, one pass.

    Rows that are not 2-D or not as wide as the training rows raise
    ``ValueError`` rather than being read from their first columns."""
    feature, threshold, left, right, value, roots, depth, width = table
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[1] != width:
        raise ValueError(f"expected rows of width {width}, got shape {features.shape}")
    node = np.repeat(roots[:, None], len(features), axis=1)
    rows = np.arange(len(features))
    for _ in range(depth):
        goes_left = features[rows, feature[node]] <= threshold[node]
        node = np.where(goes_left, left[node], right[node])
    return value[node]


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
        self._table: tuple | None = None

    def fit(self, features: np.ndarray, targets: np.ndarray):
        features, targets = _training_data(features, targets)
        _n_split_features(self.max_features, features.shape[1])  # raises before any draw
        n = len(features)
        trees, samples = [], []
        for _ in range(self.n_trees):
            trees.append(DecisionTree(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                rng=np.random.default_rng(self._rng.integers(2**32)),
            ))
            if self.bootstrap and n > 1:
                samples.append(self._rng.integers(0, n, size=n))
            else:
                samples.append(np.arange(n))
        _grow(trees, features, targets, samples)
        self.trees_ = trees
        self._table = _stack(trees)
        return self

    @property
    def is_fitted(self) -> bool:
        return bool(self.trees_)

    def _tree_predictions(self, features: np.ndarray) -> np.ndarray:
        if not self.is_fitted:
            raise RuntimeError("predict() called before fit()")
        return _walk(self._table, features)


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

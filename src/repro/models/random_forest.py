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

Layout.  A fitted tree is six flat node arrays in preorder — ``feature``,
``threshold``, ``left``, ``right``, ``value``, ``n_samples`` — where a leaf
has ``left == right == -1`` and ``feature == -1``.  A forest stacks its
trees into one node table at fit time and predicts by walking every tree
for every row at once, one gather per level.

Growth.  All trees of a forest grow in lockstep (:func:`_grow`): each
round pops one node per tree in that tree's own preorder, so each tree's
generator draws its candidate features in exactly the order the recursive
implementation did, and the round's splits are scored in one batch.  Feature
columns become integer codes (ranks of the column's distinct values) once
per fit; one ``np.bincount`` per round then gives every (node, candidate
feature, code) count and centred target sum, and prefix sums over the codes
score every threshold of the round.

That screen only ranks.  The split actually taken is the one the
historical arithmetic takes — ``np.var`` of the two masked subsets, the
first strictly greatest gain above ``1e-12`` — because ``np.var``'s
pairwise summation breaks exact ties by element order, which prefix sums
cannot see (a screened argmax alone picks another split at about one node
in a hundred of a ``tune_hidden`` run).  So every threshold whose screened
gain lies within a band of ``1e-9`` × the node's squared deviation of the
best is re-scored with ``np.var``; a lone candidate in the band is taken as
is.  ``tests/oracles.py`` keeps the recursive implementation as the oracle.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DecisionTree", "RandomForestRegressor", "RandomForestClassifier"]

#: a node column with more thresholds than this splits at quantiles instead
_MAX_THRESHOLDS = 32
_QUANTILES = np.linspace(0.05, 0.95, _MAX_THRESHOLDS)
#: a split must reduce the parent's squared deviation by more than this
_MIN_GAIN = 1e-12
#: screened gains this close (× the node's squared deviation) to the best
#: one are re-scored with the historical ``np.var`` arithmetic.  Safe
#: because the screen's prefix sums and ``np.var`` each differ from the
#: exact gain by O(n·ε) of that squared deviation, far inside the band, so
#: the ``np.var`` argmax always lies in it.
_BAND = 1e-9


def _training_data(features, targets) -> tuple[np.ndarray, np.ndarray]:
    """Validated float copies of a training set (raises before any draw)."""
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if features.ndim != 2:
        raise ValueError("features must be a 2-D array")
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
    After :meth:`fit` the tree is the flat preorder node arrays described
    in the module docstring.
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
    """Grow ``trees[t]`` on rows ``samples[t]``, all trees in lockstep.

    Every tree shares the first one's hyper-parameters and draws from its
    own generator.  Each round pops one pending node per tree (preorder:
    left children are pushed last), records it, and screens the splits of
    all nodes that may split in one batch (:func:`_best_splits`).
    """
    first = trees[0]
    n_features = features.shape[1]
    n_candidates = _n_split_features(first.max_features, n_features)
    codes = np.empty(features.shape, dtype=np.intp)
    uniques = []
    for column in range(n_features):
        unique, codes[:, column] = np.unique(features[:, column], return_inverse=True)
        uniques.append(unique)
    # column values by code, padded; codes past a column's width never occur
    values = np.zeros((n_features, max((len(u) for u in uniques), default=0)))
    for column, unique in enumerate(uniques):
        values[column, : len(unique)] = unique

    # per tree: pending (rows, depth, parent, is_left), and one record per
    # node in preorder: [feature, threshold, left, right, value, n_samples, depth]
    stacks = [[(rows, 0, -1, False)] for rows in samples]
    records = [[] for _ in trees]
    while True:
        active = [t for t, stack in enumerate(stacks) if stack]
        if not active:
            break
        popped = [stacks[t].pop() for t in active]
        sizes = np.array([len(rows) for rows, *_ in popped])
        starts = np.cumsum(sizes) - sizes
        node_targets = targets[np.concatenate([rows for rows, *_ in popped])]
        constant = np.minimum.reduceat(node_targets, starts) == np.maximum.reduceat(
            node_targets, starts
        )
        splitting = []
        for a, t in enumerate(active):
            rows, depth, parent, is_left = popped[a]
            nodes = records[t]
            if parent >= 0:
                nodes[parent][2 if is_left else 3] = len(nodes)
            mean = float(node_targets[starts[a] : starts[a] + len(rows)].mean())
            nodes.append([-1, 0.0, -1, -1, mean, len(rows), depth])
            if depth >= first.max_depth or len(rows) < first.min_samples_split or constant[a]:
                continue
            candidates = trees[t]._rng.choice(n_features, size=n_candidates, replace=False)
            splitting.append((t, len(nodes) - 1, rows, candidates))
        if not splitting:
            continue
        splits = _best_splits(
            features,
            targets,
            codes,
            uniques,
            values,
            [rows for _, _, rows, _ in splitting],
            np.array([records[t][index][4] for t, index, _, _ in splitting]),
            np.array([candidates for *_, candidates in splitting]),
            # an empty side never split either: its np.var is NaN
            max(first.min_samples_leaf, 1),
        )
        for (t, index, rows, _), split in zip(splitting, splits):
            if split is None:
                continue
            node = records[t][index]
            node[0], node[1], cut = split
            goes_left = codes[rows, node[0]] <= cut
            stacks[t].append((rows[~goes_left], node[6] + 1, index, False))
            stacks[t].append((rows[goes_left], node[6] + 1, index, True))

    for tree, nodes in zip(trees, records):
        table = np.array(nodes, dtype=float)
        tree.n_features_ = n_features
        tree.feature, tree.left, tree.right, tree.n_samples = (
            table[:, i].astype(np.intp) for i in (0, 2, 3, 5)
        )
        tree.threshold, tree.value = table[:, 1], table[:, 4]
        tree._depth = int(table[:, 6].max())


def _best_splits(
    features: np.ndarray,
    targets: np.ndarray,
    codes: np.ndarray,
    uniques: list[np.ndarray],
    values: np.ndarray,
    node_rows: list[np.ndarray],
    means: np.ndarray,
    candidates: np.ndarray,
    min_leaf: int,
) -> list[tuple[int, float, int] | None]:
    """The historical best split of each node, or ``None`` for a leaf.

    ``node_rows[i]`` are node ``i``'s rows (in the order the recursive
    implementation held them), ``means[i]`` its mean target and ``candidates[i]``
    its drawn feature subset.  A split is ``(feature, threshold, cut)``:
    rows whose ``codes[:, feature]`` is at most ``cut`` go left, exactly the
    rows with ``features[:, feature] <= threshold``.
    """
    n_nodes, n_slots = candidates.shape
    sizes = np.array([len(rows) for rows in node_rows])
    rows = np.concatenate(node_rows)
    owner = np.repeat(np.arange(n_nodes), sizes)
    deviation = targets[rows] - np.repeat(means, sizes)
    width = values.shape[1]

    # per (node, slot, code): row count and centred target sum, then
    # prefix sums along the codes = the left side of a cut at that code
    bins = (np.arange(n_nodes * n_slots).reshape(n_nodes, n_slots)[owner] * width
            + codes[rows[:, None], candidates[owner]]).ravel()
    shape = (n_nodes, n_slots, width)
    count = np.bincount(bins, minlength=n_nodes * n_slots * width).reshape(shape)
    total = np.bincount(bins, np.repeat(deviation, n_slots), n_nodes * n_slots * width)
    left_count = count.cumsum(axis=2)
    left_sum = total.reshape(shape).cumsum(axis=2)

    # thresholds: midpoints between consecutive codes present in the node,
    # or the node column's quantiles when there are too many of those
    present = count > 0
    quantiled = present.sum(axis=2) > _MAX_THRESHOLDS + 1
    code = np.where(present, np.arange(width), width)
    following = np.minimum.accumulate(code[:, :, ::-1], axis=2)[:, :, ::-1]
    upper = np.concatenate([following[:, :, 1:], np.full((n_nodes, n_slots, 1), width)], axis=2)
    node, slot, lower = np.nonzero(present & (upper < width) & ~quantiled[:, :, None])
    upper = upper[node, slot, lower]
    column = candidates[node, slot]
    low, high = values[column, lower], values[column, upper]
    threshold = (low + high) / 2.0
    # a rounded midpoint can land on the upper value; it then goes left too
    cut = np.where(threshold >= high, upper, lower)
    if quantiled.any():
        parts = [(node, slot, cut, threshold)]
        for i, j in zip(*np.nonzero(quantiled)):
            f = candidates[i, j]
            q = np.quantile(features[node_rows[i], f], _QUANTILES)
            n_q = len(q)
            cut_q = np.searchsorted(uniques[f], q, side="right") - 1
            parts.append((np.full(n_q, i), np.full(n_q, j), cut_q, q))
        order = np.argsort(np.concatenate([p[0] for p in parts]) * n_slots
                           + np.concatenate([p[1] for p in parts]), kind="stable")
        node, slot, cut, threshold = (np.concatenate(p)[order] for p in zip(*parts))
        column = candidates[node, slot]

    # screened gain n_L n_R / n (mean_L - mean_R)^2, from centred sums
    n = sizes[node]
    n_left = left_count[node, slot, cut]
    n_right = n - n_left
    s_left = left_sum[node, slot, cut]
    s_total = left_sum[node, slot, -1]
    # a midpoint or quantile that overflows to inf or NaN sent every row to
    # one side in the historical loop, so it never split there
    valid = np.isfinite(threshold) & (n_left >= min_leaf) & (n_right >= min_leaf)
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = (n * s_left - n_left * s_total) ** 2 / (n * n_left * n_right)
    gain = np.where(valid, gain, -np.inf)
    best = np.full(n_nodes, -np.inf)
    np.maximum.at(best, node, gain)
    band = _BAND * np.bincount(owner, deviation * deviation, n_nodes)
    in_band = np.flatnonzero(valid & (gain >= (best - band)[node]))
    bounds = np.searchsorted(node[in_band], np.arange(n_nodes + 1))

    splits: list[tuple[int, float, int] | None] = [None] * n_nodes
    for i in range(n_nodes):
        members = in_band[bounds[i] : bounds[i + 1]]
        if not len(members) or best[i] <= _MIN_GAIN - band[i]:
            continue  # nothing can clear the gain floor
        if len(members) == 1 and best[i] > _MIN_GAIN + band[i]:
            chosen = members[0]
        else:
            chosen = _rescore(features[node_rows[i]], targets[node_rows[i]], members,
                              column[members], threshold[members])
            if chosen is None:
                continue
        splits[i] = (int(column[chosen]), float(threshold[chosen]), int(cut[chosen]))
    return splits


def _rescore(features, targets, members, columns, thresholds):
    """The historical ``_best_split`` loop over one node's ``members``."""
    n_samples = len(targets)
    parent_score = np.var(targets) * n_samples
    best_gain = _MIN_GAIN
    best = None
    for member, column, threshold in zip(members, columns, thresholds):
        left_mask = features[:, column] <= threshold
        n_left = int(left_mask.sum())
        n_right = n_samples - n_left
        score = np.var(targets[left_mask]) * n_left + np.var(targets[~left_mask]) * n_right
        gain = parent_score - score
        if gain > best_gain:
            best_gain = gain
            best = member
    return best


def _stack(trees: list[DecisionTree]) -> tuple:
    """One node table for ``trees``: leaves point at themselves."""
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
    )


def _walk(table: tuple, features: np.ndarray) -> np.ndarray:
    """``(n_trees, n_rows)`` leaf values: every tree, every row, one pass."""
    feature, threshold, left, right, value, roots, depth = table
    features = np.asarray(features, dtype=float)
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

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

Growth.  All trees of a forest grow in lockstep (:func:`_grow`).  When a
round's splits push their children, one batch settles each child as a leaf
(too deep, too few rows or constant targets) or as a node that may split.
Each round, each tree then pops, in its own preorder, its pending leaves and
the next node that may split, which draws its candidate features; the
round's draws are screened in one batch, and its splits partition their
rows with one stable sort.  The draw order is the recursive
implementation's because a leaf draws nothing: each tree's generator still
draws once per node that may split, in that tree's preorder.  The 108 fits
of a ``tune_hidden`` run (24 trees, 12–119 rows) take 1,534 rounds where
one node per tree per round took 2,631.  Node means and the re-score's
variances take ``np.mean``'s and ``np.var``'s own steps without their Python
wrappers (:func:`_mean`, :func:`_var`), so they keep their bits.  Feature
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


def _mean(a: np.ndarray) -> float:
    """``float(np.mean(a))`` of a non-empty 1-D float array: the steps
    ``np.mean`` takes, without its Python wrapper."""
    return float(np.add.reduce(a) / len(a))


def _var(a: np.ndarray) -> np.float64:
    """``np.var(a)`` of a non-empty 1-D float array: the steps ``np.var``
    takes (mean, deviation, its in-place square, a second pairwise sum),
    without its Python wrapper."""
    deviation = a - np.add.reduce(a) / len(a)
    np.multiply(deviation, deviation, out=deviation)
    return np.add.reduce(deviation) / len(a)


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
    own generator.  Each pending node is settled as a leaf or as a node
    that may split when it is pushed (:func:`_push`).  Each round, each
    tree pops (in preorder: left children are pushed last) every pending
    leaf up to its next node that may split, which draws its candidates;
    the round's splits are screened in one batch (:func:`_best_splits`).
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

    # per tree: pending (rows, depth, parent, is_left, mean, may_split), and
    # one record per node in preorder:
    # [feature, threshold, left, right, value, n_samples, depth]
    stacks = [[] for _ in trees]
    records = [[] for _ in trees]
    _push(stacks, targets, first, np.concatenate(samples),
          np.array([len(rows) for rows in samples]),
          [(t, 0, -1, False) for t in range(len(trees))])
    while True:
        splitting = []
        for t, stack in enumerate(stacks):
            nodes = records[t]
            while stack:
                rows, depth, parent, is_left, mean, may_split = stack.pop()
                if parent >= 0:
                    nodes[parent][2 if is_left else 3] = len(nodes)
                nodes.append([-1, 0.0, -1, -1, mean, len(rows), depth])
                if may_split:
                    candidates = trees[t]._rng.choice(n_features, size=n_candidates, replace=False)
                    splitting.append((t, len(nodes) - 1, rows, mean, candidates))
                    break
        if not splitting:
            break
        split, feature, threshold, cut = _best_splits(
            features,
            targets,
            codes,
            uniques,
            values,
            [rows for _, _, rows, _, _ in splitting],
            np.array([mean for *_, mean, _ in splitting]),
            np.array([candidates for *_, candidates in splitting]),
            # an empty side never split either: its np.var is NaN
            max(first.min_samples_leaf, 1),
        )
        if not len(split):
            continue
        parents = [splitting[i] for i in split.tolist()]
        pending = []
        for (t, index, *_), f, th in zip(parents, feature.tolist(), threshold.tolist()):
            node = records[t][index]
            node[0], node[1] = f, th
            pending += [(t, node[6] + 1, index, False), (t, node[6] + 1, index, True)]
        # each parent's right rows, then its left rows (the push order),
        # each side in the parent's row order
        sizes = np.array([len(rows) for _, _, rows, _, _ in parents])
        rows = np.concatenate([rows for _, _, rows, _, _ in parents])
        side = np.repeat(np.arange(0, 2 * len(parents), 2), sizes) + (
            codes[rows, np.repeat(feature, sizes)] <= np.repeat(cut, sizes)
        )
        _push(stacks, targets, first, rows[np.argsort(side, kind="stable")],
              np.bincount(side, minlength=len(pending)), pending)

    for tree, nodes in zip(trees, records):
        table = np.array(nodes, dtype=float)
        tree.n_features_ = n_features
        tree.feature, tree.left, tree.right, tree.n_samples = (
            table[:, i].astype(np.intp) for i in (0, 2, 3, 5)
        )
        tree.threshold, tree.value = table[:, 1], table[:, 4]
        tree._depth = int(table[:, 6].max())


def _push(
    stacks: list[list],
    targets: np.ndarray,
    first: DecisionTree,
    rows: np.ndarray,
    sizes: np.ndarray,
    pending: list[tuple[int, int, int, bool]],
) -> None:
    """Push each ``(tree, depth, parent, is_left)`` of ``pending``, whose
    rows are the next ``sizes[i]`` of ``rows``, with its mean target and
    whether it may split: not too deep, enough rows and targets that are
    not all equal, decided for all of them in one batch."""
    stops = np.cumsum(sizes)
    starts = stops - sizes
    node_targets = targets[rows]
    varied = np.minimum.reduceat(node_targets, starts) != np.maximum.reduceat(
        node_targets, starts
    )
    may_split = varied & (sizes >= first.min_samples_split)
    for (t, depth, parent, is_left), start, stop, split in zip(
        pending, starts.tolist(), stops.tolist(), may_split.tolist()
    ):
        stacks[t].append((rows[start:stop], depth, parent, is_left,
                          _mean(node_targets[start:stop]), split and depth < first.max_depth))


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The historical best split of each node that splits.

    ``node_rows[i]`` are node ``i``'s rows (in the order the recursive
    implementation held them), ``means[i]`` its mean target and ``candidates[i]``
    its drawn feature subset.  Returns the nodes that split, ascending, and
    each one's ``feature``, ``threshold`` and ``cut``: rows whose
    ``codes[:, feature]`` is at most ``cut`` go left, exactly the rows with
    ``features[:, feature] <= threshold``.
    """
    n_nodes, n_slots = candidates.shape
    sizes = np.array([len(rows) for rows in node_rows])
    rows = np.concatenate(node_rows)
    owner = np.repeat(np.arange(n_nodes), sizes)
    deviation = targets[rows] - np.repeat(means, sizes)
    width = values.shape[1]

    # per key (node, slot) and code: row count and centred target sum,
    # then prefix sums along the codes = the left side of a cut at that code
    n_bins = n_nodes * n_slots * width
    bins = ((owner[:, None] * n_slots + np.arange(n_slots)) * width
            + codes[rows[:, None], candidates[owner]]).ravel()
    count = np.bincount(bins, minlength=n_bins)
    left_count = count.reshape(-1, width).cumsum(axis=1).ravel()
    left_sum = (np.bincount(bins, np.repeat(deviation, n_slots), n_bins)
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
        parts = [(key, cut, threshold)]
        for k in np.flatnonzero(quantiled).tolist():
            f = candidates.flat[k]
            q = np.quantile(features[node_rows[k // n_slots], f], _QUANTILES)
            parts.append((np.full(len(q), k), np.searchsorted(uniques[f], q, side="right") - 1, q))
        order = np.argsort(np.concatenate([p[0] for p in parts]), kind="stable")
        key, cut, threshold = (np.concatenate(p)[order] for p in zip(*parts))
        column = candidates.ravel()[key]
    node = key // n_slots

    # screened gain n_L n_R / n (mean_L - mean_R)^2, from centred sums
    n = sizes[node]
    n_left = left_count[key * width + cut]
    n_right = n - n_left
    s_left = left_sum[key * width + cut]
    s_total = left_sum[key * width + width - 1]
    # a midpoint or quantile that overflows to inf or NaN sent every row to
    # one side in the historical loop, so it never split there
    valid = np.isfinite(threshold) & (n_left >= min_leaf) & (n_right >= min_leaf)
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = (n * s_left - n_left * s_total) ** 2 / (n * n_left * n_right)
    gain = np.where(valid, gain, -np.inf)
    best = np.full(n_nodes, -np.inf)
    np.maximum.at(best, node, gain)
    band = _BAND * np.bincount(owner, deviation * deviation, n_nodes)
    with np.errstate(invalid="ignore"):
        floor = best - band
    # a node whose gains or squared deviations overflow is blind: the screen
    # cannot rank its thresholds, so every valid one is re-scored
    blind = ~np.isfinite(floor)
    in_band = np.flatnonzero(valid & ((gain >= floor[node]) | blind[node]))
    bounds = np.searchsorted(node[in_band], np.arange(n_nodes + 1))
    n_band = bounds[1:] - bounds[:-1]

    # a node may split only if its band can clear the gain floor; a lone
    # candidate that clears it by more than the band is taken as is, and
    # the other nodes are re-scored
    clears = (n_band > 0) & ((best > _MIN_GAIN - band) | blind)
    lone = clears & ~blind & (n_band == 1) & (best > _MIN_GAIN + band)
    chosen = np.full(n_nodes, -1)
    chosen[lone] = in_band[bounds[:-1][lone]]
    for i in np.flatnonzero(clears & ~lone).tolist():
        members = in_band[bounds[i] : bounds[i + 1]]
        pick = _rescore(features[node_rows[i]], targets[node_rows[i]], members,
                        column[members], threshold[members])
        if pick is not None:
            chosen[i] = pick
    split = np.flatnonzero(chosen >= 0)
    chosen = chosen[split]
    return split, column[chosen], threshold[chosen], cut[chosen]


def _rescore(features, targets, members, columns, thresholds):
    """The historical ``_best_split`` loop over one node's ``members``."""
    n_samples = len(targets)
    parent_score = _var(targets) * n_samples
    best_gain = _MIN_GAIN
    best = None
    for member, column, threshold in zip(members.tolist(), columns.tolist(), thresholds.tolist()):
        left_mask = features[:, column] <= threshold
        n_left = np.count_nonzero(left_mask)
        n_right = n_samples - n_left
        score = _var(targets[left_mask]) * n_left + _var(targets[~left_mask]) * n_right
        gain = parent_score - score
        if gain > best_gain:
            best_gain = gain
            best = member
    return best


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

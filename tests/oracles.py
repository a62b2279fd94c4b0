"""Reference oracles: the historical scalar implementations.

Each function is the pre-vectorization code path, kept verbatim except that
the distance computer, search space or tree it used to be a method of is now
its first argument.  Nothing in ``src/`` calls these; they are the executable
specifications the vectorized paths are tested against:

* :func:`sample_value` (the per-value ``Parameter.sample``),
  :func:`distance` (the per-value ``Parameter.distance``) and the scalar
  permutation metrics :func:`kendall_distance`, :func:`spearman_distance`
  and :func:`hamming_permutation_distance` are the building blocks of the
  two oracles below;
* :func:`pairwise_reference` pins ``DistanceComputer.pairwise_rows``;
* :func:`sample_reference` pins the distribution of ``SearchSpace.sample``;
* :class:`NodeTree` (recursive ``CoTNode`` growth, the leaf-count pass, the
  membership walk, ``_collect_feasible_values`` / ``_subtree_matches`` and
  the stack walk over the leaves) pins the leaf tables of
  ``repro.space.chain_of_trees.Tree``;
* :func:`sample_leaf` / :func:`sample_path` pin the uniform and biased modes
  of ``Tree.sample_leaf_indices``;
* :func:`sample_chain` composes the two per tree, as the scalar sampler did;
* :func:`neighbours` (the dict path) pins ``SearchSpace.neighbour_rows_batch``;
* :func:`feasible_rows` checks sampler and neighbourhood output row by row
  through ``SearchSpace.is_feasible`` and the encoding round trip;
* :class:`ReferenceTree` (recursive ``_Node`` growth, ``_best_split``'s
  ``np.var`` scoring and the stack-walk ``predict``) and
  :func:`forest_reference` (the per-tree bootstrap loop) pin the flat-array
  lockstep forest of ``repro.models.random_forest``;
* :func:`log_likelihood` reads a fitted GP's log posterior back from its
  cached factor, the yardstick the GP-fit tests compare fits with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from repro.models.distances import DistanceComputer
from repro.models.gp import GaussianProcess
from repro.space.chain_of_trees import FeasibleSetTooLarge, Tree
from repro.space.constraints import Constraint
from repro.space.parameters import (
    CategoricalParameter,
    IntegerParameter,
    NumericParameter,
    OrdinalParameter,
    Parameter,
    PermutationParameter,
    RealParameter,
)
from repro.space.space import Configuration, SearchSpace


def sample_value(param: Parameter, rng: np.random.Generator) -> Any:
    """One value drawn uniformly at random, one scalar RNG call per value."""
    if isinstance(param, RealParameter):
        if param.transform == "log":
            return float(np.exp(rng.uniform(math.log(param.low), math.log(param.high))))
        return float(rng.uniform(param.low, param.high))
    if isinstance(param, IntegerParameter):
        return int(rng.integers(param.low, param.high + 1))
    if isinstance(param, (OrdinalParameter, CategoricalParameter)):
        return param.values[int(rng.integers(len(param.values)))]
    if isinstance(param, PermutationParameter):
        return tuple(int(i) for i in rng.permutation(param.n_elements))
    raise TypeError(f"no sampler for {type(param).__name__}")


# -- permutation semimetrics (Fig. 3 of the paper) ---------------------------

def kendall_distance(a: Sequence[int], b: Sequence[int]) -> float:
    """Number of discordant pairs between two permutations."""
    a = tuple(a)
    b = tuple(b)
    n = len(a)
    count = 0
    for i in range(n):
        for j in range(i + 1, n):
            if (a[i] < a[j]) != (b[i] < b[j]):
                count += 1
    return float(count)


def spearman_distance(a: Sequence[int], b: Sequence[int]) -> float:
    """Sum of squared element displacements between two permutations."""
    return float(sum((int(x) - int(y)) ** 2 for x, y in zip(a, b)))


def hamming_permutation_distance(a: Sequence[int], b: Sequence[int]) -> float:
    """Number of positions whose element differs between the permutations."""
    return float(sum(1 for x, y in zip(a, b) if x != y))


def _naive_distance(a: Sequence[int], b: Sequence[int]) -> float:
    """Treat permutations as categoricals: 0 if identical else 1."""
    return 0.0 if tuple(a) == tuple(b) else 1.0


PERMUTATION_METRICS = {
    "spearman": spearman_distance,
    "kendall": kendall_distance,
    "hamming": hamming_permutation_distance,
    "naive": _naive_distance,
}


def distance(param: Parameter, a: Any, b: Any) -> float:
    """The per-value distance between two values, as the GP kernel reads it
    before normalization (raw semimetric for permutations)."""
    if isinstance(param, PermutationParameter):
        return PERMUTATION_METRICS[param.metric](param.canonical(a), param.canonical(b))
    if isinstance(param, CategoricalParameter):
        return 0.0 if a == b else 1.0
    if isinstance(param, NumericParameter):
        return abs(param._warp(a) - param._warp(b))
    raise TypeError(f"no distance for {type(param).__name__}")


def pairwise_reference(
    computer: DistanceComputer,
    configs_a: Sequence[Mapping[str, Any]],
    configs_b: Sequence[Mapping[str, Any]] | None = None,
) -> np.ndarray:
    """The historical implementation: per-call feature re-derivation from
    raw dicts and a per-pair Python double loop for the Kendall
    semimetric.
    """
    b = configs_a if configs_b is None else configs_b
    out = np.zeros((computer.n_dimensions, len(configs_a), len(b)))
    for k, param in enumerate(computer.parameters):
        values_a = [cfg[param.name] for cfg in configs_a]
        values_b = values_a if configs_b is None else [cfg[param.name] for cfg in b]
        if isinstance(param, PermutationParameter):
            tuples_a = [param.canonical(v) for v in values_a]
            tuples_b = [param.canonical(v) for v in values_b]
            raw = np.empty((len(tuples_a), len(tuples_b)))
            for i, pa in enumerate(tuples_a):
                for j, pb in enumerate(tuples_b):
                    raw[i, j] = distance(param, pa, pb)
            matrix = np.sqrt(raw)
        elif isinstance(param, CategoricalParameter):
            idx_a = np.array([param.index_of(v) for v in values_a])
            idx_b = np.array([param.index_of(v) for v in values_b])
            matrix = (idx_a[:, None] != idx_b[None, :]).astype(float)
        elif isinstance(param, NumericParameter):
            warped_a = np.array([param._warp(v) for v in values_a], dtype=float)
            warped_b = np.array([param._warp(v) for v in values_b], dtype=float)
            matrix = np.abs(warped_a[:, None] - warped_b[None, :])
        else:  # pragma: no cover - defensive fallback
            matrix = np.array(
                [[distance(param, va, vb) for vb in values_b] for va in values_a],
                dtype=float,
            )
        out[k] = matrix / computer.scales[k]
    return out


@dataclass
class CoTNode:
    """One node of a tree: a single value of a single parameter."""

    value: Any
    depth: int
    children: list["CoTNode"] = field(default_factory=list)
    leaf_count: int = 0

    def is_leaf(self) -> bool:
        return not self.children


class NodeTree:
    """The historical node-object Chain-of-Trees tree."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        constraints: Sequence[Constraint],
        max_nodes: int = 2_000_000,
    ) -> None:
        self.parameters = list(parameters)
        self.parameter_names = [p.name for p in parameters]
        self.constraints = list(constraints)
        self._max_nodes = max_nodes
        self.node_count = 0
        self.root = CoTNode(value=None, depth=-1)
        self._build(self.root, {})
        self._count_leaves(self.root)
        if self.root.leaf_count == 0:
            raise ValueError(
                "constraints over parameters "
                f"{self.parameter_names} admit no feasible configuration"
            )

    @classmethod
    def of(cls, tree: Tree) -> "NodeTree":
        return cls(tree.parameters, tree.constraints)

    def _applicable(self, partial: Mapping[str, Any]) -> bool:
        for constraint in self.constraints:
            if constraint.is_applicable(partial) and not constraint.evaluate(partial):
                return False
        return True

    def _build(self, node: CoTNode, partial: dict[str, Any]) -> None:
        depth = node.depth + 1
        if depth == len(self.parameters):
            return
        param = self.parameters[depth]
        for value in param.values_list():
            partial[param.name] = value
            if self._applicable(partial):
                self.node_count += 1
                if self.node_count > self._max_nodes:
                    raise FeasibleSetTooLarge(
                        f"feasible enumeration exceeded {self._max_nodes} nodes"
                    )
                child = CoTNode(value=value, depth=depth)
                self._build(child, partial)
                # only keep children that lead to at least one full assignment
                if depth == len(self.parameters) - 1 or child.children:
                    node.children.append(child)
            del partial[param.name]

    def _count_leaves(self, node: CoTNode) -> int:
        if node.is_leaf():
            node.leaf_count = 1 if node.depth == len(self.parameters) - 1 else 0
            return node.leaf_count
        node.leaf_count = sum(self._count_leaves(child) for child in node.children)
        return node.leaf_count

    @property
    def n_feasible(self) -> int:
        return self.root.leaf_count

    def contains(self, configuration: Mapping[str, Any]) -> bool:
        """Walk the tree to test whether a configuration's projection is feasible."""
        node = self.root
        for param in self.parameters:
            value = param.canonical(configuration[param.name])
            matched = None
            for child in node.children:
                if child.value == value:
                    matched = child
                    break
            if matched is None:
                return False
            node = matched
        return True

    def leaves(self) -> tuple[list[dict[str, Any]], np.ndarray]:
        """The stack walk: every leaf, and the cumulative per-leaf probability
        of the per-level uniform-child walk, in the walk's order."""
        leaves: list[dict[str, Any]] = []
        biased: list[float] = []
        stack: list[tuple[CoTNode, dict[str, Any], float]] = [(self.root, {}, 1.0)]
        while stack:
            node, partial, probability = stack.pop()
            if node.depth == len(self.parameters) - 1:
                leaves.append(dict(partial))
                biased.append(probability)
                continue
            next_param = self.parameters[node.depth + 1]
            share = probability / len(node.children) if node.children else 0.0
            for child in node.children:
                nxt = dict(partial)
                nxt[next_param.name] = child.value
                stack.append((child, nxt, share))
        cumulative = np.cumsum(np.asarray(biased, dtype=float))
        cumulative[-1] = 1.0
        return leaves, cumulative

    def feasible_values(
        self, parameter_name: str, configuration: Mapping[str, Any]
    ) -> list[Any]:
        """Values of one parameter feasible given the others held fixed."""
        if parameter_name not in self.parameter_names:
            raise KeyError(parameter_name)
        target = self.parameter_names.index(parameter_name)
        results: list[Any] = []
        self._collect_feasible_values(self.root, configuration, target, results)
        return results

    def _collect_feasible_values(
        self,
        node: CoTNode,
        configuration: Mapping[str, Any],
        target_depth: int,
        results: list[Any],
    ) -> None:
        depth = node.depth + 1
        if depth == len(self.parameters):
            return
        param = self.parameters[depth]
        for child in node.children:
            if depth == target_depth:
                if self._subtree_matches(child, configuration, depth + 1):
                    if child.value not in results:
                        results.append(child.value)
            else:
                if child.value == param.canonical(configuration[param.name]):
                    self._collect_feasible_values(child, configuration, target_depth, results)

    def _subtree_matches(
        self, node: CoTNode, configuration: Mapping[str, Any], depth: int
    ) -> bool:
        if depth == len(self.parameters):
            return True
        param = self.parameters[depth]
        value = param.canonical(configuration[param.name])
        for child in node.children:
            if child.value == value and self._subtree_matches(child, configuration, depth + 1):
                return True
        return False


def sample_leaf(tree: NodeTree, rng: np.random.Generator) -> dict[str, Any]:
    """Sample a partial configuration uniformly over the leaves (bias-free)."""
    node = tree.root
    values: dict[str, Any] = {}
    for param in tree.parameters:
        weights = np.array([child.leaf_count for child in node.children], dtype=float)
        total = weights.sum()
        probabilities = weights / total
        idx = int(rng.choice(len(node.children), p=probabilities))
        node = node.children[idx]
        values[param.name] = node.value
    return values


def sample_path(tree: NodeTree, rng: np.random.Generator) -> dict[str, Any]:
    """Sample by choosing a uniformly random child at every level (biased)."""
    node = tree.root
    values: dict[str, Any] = {}
    for param in tree.parameters:
        idx = int(rng.integers(len(node.children)))
        node = node.children[idx]
        values[param.name] = node.value
    return values


def sample_chain(
    trees: Sequence[NodeTree], rng: np.random.Generator, biased: bool = False
) -> dict[str, Any]:
    """Sample the constrained part of a configuration.

    With ``biased=False`` (BaCO's fix) the sample is uniform over feasible
    configurations; with ``biased=True`` it reproduces the ATF-style
    uniform-per-level walk that over-weights sparse subtrees.
    """
    values: dict[str, Any] = {}
    for tree in trees:
        draw = sample_path(tree, rng) if biased else sample_leaf(tree, rng)
        values.update(draw)
    return values


def sample_reference(
    space: SearchSpace,
    rng: np.random.Generator,
    n_samples: int = 1,
    biased_cot: bool = False,
    max_rejection_rounds: int = 10_000,
) -> list[Configuration]:
    """The historical scalar sampling loop.

    One configuration at a time: per-level Chain-of-Trees walks, one
    scalar :func:`sample_value` call per uncovered parameter, and one
    Python ``eval`` per residual constraint.
    """
    samples: list[Configuration] = []
    covered = space._covered_names()
    trees = []
    if space.chain_of_trees is not None:
        trees = [NodeTree.of(tree) for tree in space.chain_of_trees.trees]
    attempts = 0
    while len(samples) < n_samples:
        attempts += 1
        if attempts > max_rejection_rounds * max(1, n_samples):
            raise RuntimeError(
                "rejection sampling failed to find feasible configurations; "
                "the feasible region may be too sparse"
            )
        config: Configuration = sample_chain(trees, rng, biased=biased_cot)
        for param in space.parameters:
            if param.name not in covered:
                config[param.name] = sample_value(param, rng)
        if all(c.evaluate(config) for c in space._residual_constraints):
            samples.append(config)
    return samples


def feasible_rows(space: SearchSpace, rows: np.ndarray) -> np.ndarray:
    """Per encoded row: it decodes to a configuration the space accepts, and
    that configuration encodes back to the very same row.

    The round trip pins each row as a faithful encoding of legal values,
    ``is_feasible`` checks those values and every known constraint.
    """
    configs = space.encoder.decode_batch(rows)
    if not configs:
        return np.ones(0, dtype=bool)
    exact = np.all(space.encode_batch(configs) == np.asarray(rows), axis=1)
    return exact & np.array([space.is_feasible(c) for c in configs], dtype=bool)


def neighbours(
    space: SearchSpace, configuration: Mapping[str, Any], feasible_only: bool = True
) -> list[Configuration]:
    """All configurations reachable by modifying a single parameter.

    When a parameter belongs to a Chain-of-Trees tree, its candidate values
    are restricted to those feasible given the other parameters of the same
    tree.
    """
    result: list[Configuration] = []
    for param in space.parameters:
        current = configuration[param.name]
        if (
            feasible_only
            and space.chain_of_trees is not None
            and space.chain_of_trees.covers(param.name)
        ):
            candidates = [
                v
                for v in space.chain_of_trees.feasible_values(param.name, configuration)
                if v != param.canonical(current)
            ]
        else:
            candidates = param.neighbours(current)
        for value in candidates:
            neighbour = dict(configuration)
            neighbour[param.name] = value
            if not feasible_only or space.is_feasible(neighbour):
                result.append(neighbour)
    return result


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


class ReferenceTree:
    """The historical recursive CART tree (``DecisionTree`` before the
    flat-array rewrite).

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
    def fit(self, features: np.ndarray, targets: np.ndarray) -> "ReferenceTree":
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
        of rows that reached it.
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


def forest_reference(forest, features: np.ndarray, targets: np.ndarray) -> list[ReferenceTree]:
    """The historical ``_BaseForest.fit`` bootstrap loop.

    Draws each tree's seed and bootstrap sample from ``forest``'s generator
    and grows one :class:`ReferenceTree` per draw; ``np.vstack`` of the
    trees' ``predict`` rows is what the forests averaged.
    """
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if len(features) == 0:
        raise ValueError("cannot fit a forest on zero samples")
    n = len(features)
    trees = []
    for _ in range(forest.n_trees):
        tree = ReferenceTree(
            max_depth=forest.max_depth,
            min_samples_split=forest.min_samples_split,
            min_samples_leaf=forest.min_samples_leaf,
            max_features=forest.max_features,
            rng=np.random.default_rng(forest._rng.integers(2**32)),
        )
        if forest.bootstrap and n > 1:
            idx = forest._rng.integers(0, n, size=n)
        else:
            idx = np.arange(n)
        tree.fit(features[idx], targets[idx])
        trees.append(tree)
    return trees


def log_likelihood(gp: GaussianProcess) -> float:
    """Log posterior density of a fitted GP at its hyper-parameters.

    Pure readback of the cached ``_cholesky`` / ``_alpha`` / targets: no
    kernel rebuild and no refactorization.
    """
    if not gp.is_fitted:
        raise RuntimeError("model is not fitted")
    y = gp._train_y
    ll = -0.5 * float(y @ gp._alpha)
    ll -= float(np.sum(np.log(np.diag(gp._cholesky))))
    ll -= 0.5 * len(y) * math.log(2.0 * math.pi)
    hp = gp.hyperparameters
    lp = 0.0
    if gp.lengthscale_prior is not None:
        lp += float(np.sum(gp.lengthscale_prior.log_pdf(hp.lengthscales)))
    if gp.noise_prior is not None:
        lp += float(np.sum(gp.noise_prior.log_pdf(hp.noise_variance)))
    if gp.outputscale_prior is not None:
        lp += float(np.sum(gp.outputscale_prior.log_pdf(hp.outputscale)))
    return ll + lp

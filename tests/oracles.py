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
* :func:`sample_reference` pins the distribution of ``SearchSpace.sample``,
  and :func:`sample_rows_reference` (each round's per-parameter
  ``sample_batch`` calls, narrowed values included) the rows, residual
  columns and generator state of ``SearchSpace.sample_rows``;
* :class:`NodeTree` (recursive ``CoTNode`` growth, the leaf-count pass, the
  membership walk, ``_collect_feasible_values`` / ``_subtree_matches`` and
  the stack walk over the leaves) pins the leaf tables of
  ``repro.space.chain_of_trees.Tree``;
* :func:`sample_leaf` / :func:`sample_path` pin the uniform and biased modes
  of ``Tree.sample_leaf_indices``;
* :func:`sample_chain` composes the two per tree, as the scalar sampler did;
* :func:`neighbours` (the dict path) and :func:`neighbour_rows_reference`
  (the per-row body with one dict per row it had before its lookup tables)
  pin ``SearchSpace.neighbour_rows_batch``; :func:`value_columns` is the
  encoder's old column decode the latter reads rows with;
* :func:`feasible_rows` checks sampler and neighbourhood output row by row
  through ``SearchSpace.is_feasible`` and the encoding round trip;
* :class:`ReferenceTree` (``_best_split``'s ``np.var`` scoring, replayed
  over a fitted tree with its level-wise candidate draws) is the
  split-quality oracle of ``repro.models.random_forest``;
  :func:`forest_reference` (the per-tree bootstrap loop) and
  :func:`walk_reference` (one row, one node at a time) pin the forest's
  draws and its predictions;
* :func:`log_likelihood` reads a fitted GP's log posterior back from its
  cached factor, the yardstick the GP-fit tests compare fits with;
* :func:`predict_rows_reference` (``pairwise_rows``, ``matern52`` and
  ``scipy.linalg.solve_triangular`` per call) pins
  ``GaussianProcess.predict_rows`` and its value tables;
* :func:`decode_numeric` (the per-call re-warp of every ordinal value) and
  :func:`decode_reference` pin ``ConfigEncoder.decode``;
* :func:`value_column_reference` (``space._value_column``),
  :func:`raw_column_reference` (``SearchSpace._raw_column``, with the
  categorical override of the neighbour tables' ``_Coded``),
  :func:`ordinal_maps_reference` (the encoder's eager ``_ordinal_*`` maps),
  :func:`encode_value_column_reference`, :func:`catalogue_reference` (the
  three builds of ``_catalogue``) and :func:`code_of_reference` (the
  neighbour tables' ``code_of``) are the per-reader constructions that
  ``ConfigEncoder.table``'s value tables replaced, and pin them;
* :func:`gamma_log_pdf` (``GammaPrior.log_pdf``, one prior per call) pins
  ``repro.models.priors.GammaLogDensities``;
* :func:`map_gradient_reference` (the closed-form gradient on dense
  allocating matrices) pins the gradient of the GP's MAP objective;
* :func:`unique_rows_reference` (``np.unique(axis=0)``) pins the climb's
  duplicate removal, and :func:`signature_reference` (the per-call build)
  the signature an encoder stores.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np
from scipy import linalg
from scipy.special import gammaln, xlogy

from repro.models.distances import DistanceComputer
from repro.models.gp import GaussianProcess
from repro.models.kernels import matern52
from repro.models.priors import GammaPrior
from repro.space.chain_of_trees import FeasibleSetTooLarge, Tree
from repro.space.constraints import Constraint
from repro.space.encoding import _MATH_EXP, _MATH_LOG, ColumnBlock, ConfigEncoder, _decode_permutation
from repro.space.parameters import (
    CategoricalParameter,
    IntegerParameter,
    NumericParameter,
    OrdinalParameter,
    Parameter,
    PermutationParameter,
    RealParameter,
    _draw_from_table,
)
from repro.space.space import Configuration, SearchSpace, _rejection_failure_message


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


def sample_rows_reference(
    space: SearchSpace,
    rng: np.random.Generator,
    n_samples: int = 1,
    biased_cot: bool = False,
    max_rejection_rounds: int = 10_000,
) -> np.ndarray:
    """``SearchSpace.sample_rows`` before its draw tables.

    Every round draws each free parameter with its own ``sample_batch``
    call, a narrowed one from its surviving values (the ``values`` argument
    integers, ordinals and categoricals took), and encodes the drawn column
    with :func:`encode_value_column_reference`.  Trees draw from the
    space's leaf tables; no residual constraint reads a tree parameter, so
    none of their values enters the residual mask.
    """
    if n_samples < 0:
        raise ValueError("n_samples must be non-negative")
    encoder = space.encoder
    tree_tables = space._tree_tables()
    covered = space._covered_names()
    free_params = [p for p in space.parameters if p.name not in covered]
    residuals = space._compiled_residuals()
    residual_vars: set[str] = set()
    for constraint, _ in residuals:
        residual_vars |= constraint.variables
    assert not residual_vars & covered
    narrowed = space._narrowed_values()

    collected: list[np.ndarray] = []
    constraint_passed = [0] * len(residuals)
    accepted = 0
    drawn = 0
    rounds = 0
    budget = max_rejection_rounds * max(1, n_samples)
    while accepted < n_samples:
        need = n_samples - accepted
        if drawn >= budget:
            stats = space._record_sample_stats(
                n_samples, accepted, drawn, rounds, residuals, constraint_passed
            )
            raise RuntimeError(_rejection_failure_message(stats))
        need = min(need, budget - drawn)
        drawn += need
        rounds += 1
        rows = np.empty((need, encoder.width), dtype=float)
        env: dict[str, np.ndarray] = {}
        for tree, _, encoded in tree_tables:
            indices = tree.sample_leaf_indices(rng, need, biased=biased_cot)
            for name, block in encoded.items():
                rows[:, encoder.columns(name)] = block[indices]
        for param in free_params:
            if param.name in narrowed:
                dtype = object if isinstance(param, CategoricalParameter) else float
                column = _draw_from_table(rng, need, narrowed[param.name], dtype, param.name)
            else:
                column = param.sample_batch(rng, need)
            rows[:, encoder.columns(param.name)] = encode_value_column_reference(
                encoder, param.name, column
            )
            if param.name in residual_vars:
                env[param.name] = space._env_column(np.asarray(column))
        if residuals:
            mask = np.ones(need, dtype=bool)
            for slot, (_, evaluator) in enumerate(residuals):
                passed = np.asarray(evaluator(env), dtype=bool)
                constraint_passed[slot] += int(passed.sum())
                mask &= passed
            rows = rows[mask]
        collected.append(rows)
        accepted += len(rows)
    space._record_sample_stats(
        n_samples, accepted, drawn, rounds, residuals, constraint_passed
    )
    if not collected:
        return np.empty((0, encoder.width), dtype=float)
    return np.vstack(collected)[:n_samples]


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


def _nearest_indices(sorted_table: np.ndarray, column: np.ndarray) -> np.ndarray:
    """Index of the nearest table entry per element (ties to the lower index,
    matching the scalar decode's ``argmin``)."""
    positions = np.searchsorted(sorted_table, column).clip(0, len(sorted_table) - 1)
    lower = (positions - 1).clip(0)
    take_lower = np.abs(sorted_table[lower] - column) <= np.abs(
        sorted_table[positions] - column
    )
    return np.where(take_lower, lower, positions)


def value_columns(encoder: ConfigEncoder, rows: np.ndarray) -> dict[str, np.ndarray]:
    """Exact raw values of every parameter as per-parameter columns.

    The vectorized counterpart of ``ConfigEncoder.decode`` for *legal* encoded rows:
    numeric parameters come back as float columns of raw (unwarped)
    values, categorical parameters as object columns of category values,
    permutations as object columns of tuples.  Like ``decode``, arbitrary
    rows are projected to the nearest legal value per parameter.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != encoder.width:
        raise ValueError(f"expected rows of width {encoder.width}, got {rows.shape}")
    columns: dict[str, np.ndarray] = {}
    for block in encoder.blocks:
        param = block.parameter
        name = param.name
        if block.kind == "numeric":
            column = rows[:, block.start]
            if isinstance(param, OrdinalParameter):
                raw, warped, _ = ordinal_maps_reference(param)
                columns[name] = raw[_nearest_indices(warped, column)]
            elif isinstance(param, IntegerParameter):
                raw = np.exp(column) if param.transform == "log" else column
                columns[name] = np.clip(np.rint(raw), param.low, param.high)
            else:  # real
                raw = (
                    _MATH_EXP(column).astype(float)
                    if param.transform == "log"
                    else column.astype(float)
                )
                columns[name] = np.clip(raw, param.low, param.high)
        elif block.kind == "categorical":
            indices = np.clip(
                np.rint(rows[:, block.start]).astype(int), 0, len(param.values) - 1
            )
            table = np.empty(len(param.values), dtype=object)
            table[:] = param.values
            columns[name] = table[indices]
        else:  # permutation
            column = np.empty(len(rows), dtype=object)
            column[:] = [
                _decode_permutation(param, row) for row in rows[:, block.columns]
            ]
            columns[name] = column
    return columns


def neighbour_rows_reference(
    space: SearchSpace, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Feasible one-parameter-change neighbourhoods of several rows at once.

    This is the neighbourhood of BaCO's multi-start local search
    (Sec. 3.3).  Returns ``(neighbour_rows, owners)`` where ``owners[j]``
    is the index of the input row that neighbour ``j`` belongs to; within
    one owner the neighbours are parameter-major.  A parameter a
    Chain-of-Trees tree covers moves only to the values feasible given
    the rest of its tree (no moves are wasted on infeasible
    configurations); any other parameter moves to its
    ``Parameter.neighbours``.  Materialization is one matrix build and
    feasibility one compiled-residual mask.

    The per-row body ``SearchSpace.neighbour_rows_batch`` had before its
    lookup tables; unlike them, it projects an illegal row's values to the
    nearest legal ones instead of raising.
    """
    rows = np.asarray(rows, dtype=float)
    encoder = space.encoder
    value_cols = value_columns(encoder, rows)
    cot = space.chain_of_trees
    residuals = space._compiled_residuals()
    residual_vars: set[str] = set()
    for constraint, _ in residuals:
        residual_vars |= constraint.variables

    blocks: list[np.ndarray] = []
    owners: list[int] = []
    changed_names: list[str] = []
    changed_values: list[Any] = []
    for i in range(len(rows)):
        config: Configuration | None = None
        for param in space.parameters:
            current = value_cols[param.name][i]
            if cot is not None and cot.covers(param.name):
                if config is None:
                    config = {
                        name: value_cols[name][i] for name in space.parameter_names
                    }
                candidates = [
                    v
                    for v in cot.feasible_values(param.name, config)
                    if v != param.canonical(current)
                ]
            else:
                # contains() drops e.g. a real neighbour whose
                # exp(warp(high)) clamp overshot the raw bound by one ulp
                candidates = [
                    v for v in param.neighbours(current) if param.contains(v)
                ]
            if not candidates:
                continue
            block = np.tile(rows[i], (len(candidates), 1))
            block[:, encoder.columns(param.name)] = encode_value_column_reference(
                encoder, param.name, raw_column_reference(param, candidates)
            )
            blocks.append(block)
            owners.extend([i] * len(candidates))
            changed_names.extend([param.name] * len(candidates))
            changed_values.extend(candidates)
    if not blocks:
        return np.empty((0, encoder.width), dtype=float), np.empty(0, dtype=int)
    batch = np.vstack(blocks)
    owner_idx = np.asarray(owners, dtype=int)

    if residuals:
        changed = np.asarray(changed_names, dtype=object)
        env: dict[str, np.ndarray] = {}
        for name in residual_vars:
            column = space._env_column(value_cols[name])[owner_idx]
            replace = changed == name
            if replace.any():
                column = column.copy()
                for j in np.nonzero(replace)[0]:
                    column[j] = changed_values[j]
            env[name] = column
        mask = np.ones(len(batch), dtype=bool)
        for _, evaluator in residuals:
            mask &= evaluator(env)
        batch = batch[mask]
        owner_idx = owner_idx[mask]
    return batch, owner_idx


@dataclass
class SplitRecord:
    """One node of a fitted tree as :meth:`ReferenceTree.replay` scores it.

    Gains are ``np.var`` gains (``np.var`` of the node times its rows, less
    the same for both sides) of targets scaled by ``2**-exponent`` into
    [-1, 1], which is exact, so they stay finite where the raw ones
    overflow.
    """

    node: int
    n_samples: int
    #: ``np.mean`` of the rows' targets, and their largest magnitude (the
    #: scale of a mean's rounding)
    mean: float
    spread: float
    may_split: bool
    #: the node's own ``np.var`` score, the scale of a gain's rounding
    parent_score: float
    #: best gain over the drawn candidates' thresholds, -inf if none is legal
    best_gain: float
    #: gain of the split the tree took (None for a leaf), and whether its
    #: feature was drawn and its threshold is one of that feature's
    taken_gain: float | None = None
    taken_is_candidate: bool = False


class ReferenceTree:
    """The historical recursive CART tree's split rule, kept as an oracle
    of split quality for the level-wise trees of
    ``repro.models.random_forest``.

    :meth:`replay` walks a fitted tree level by level over its training
    rows.  It re-draws each level's candidate features from this tree's
    generator, as the growth draws them: one
    ``random((nodes, F)).argsort(axis=1)[:, :k]`` call per level for the
    level's nodes that may split (enough rows, not too deep, targets not
    all equal), in level order.  It then scores every threshold of every
    drawn feature with ``_best_split``'s ``np.var`` arithmetic: midpoints
    between the node's distinct values, or 32 quantiles when there are
    more, each side holding at least ``min_samples_leaf`` rows.
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

    def _n_split_features(self, n_features: int) -> int:
        if self.max_features is None:
            return n_features
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if isinstance(self.max_features, int):
            return max(1, min(self.max_features, n_features))
        raise ValueError(f"unsupported max_features {self.max_features!r}")

    def replay(self, tree, features: np.ndarray, targets: np.ndarray) -> tuple[list[SplitRecord], float]:
        """Every node of ``tree`` (fitted on ``features``/``targets``) in
        level order, and the smallest legal gain in the records' units."""
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float)
        exponent = int(np.frexp(np.abs(targets).max())[1])
        scaled = np.ldexp(targets, -exponent)
        n_features = features.shape[1]
        records: list[SplitRecord] = []
        frontier = [(0, np.arange(len(targets)))]
        for depth in itertools.count():
            if not frontier:
                break
            splitting = [
                (node, idx) for node, idx in frontier
                if depth < self.max_depth
                and len(idx) >= self.min_samples_split
                and not np.all(targets[idx] == targets[idx][0])
            ]
            may_split = {node for node, _ in splitting}
            draws = iter(
                self._rng.random((len(splitting), n_features)).argsort(axis=1)[
                    :, : self._n_split_features(n_features)
                ]
                if splitting else ()
            )
            next_frontier = []
            for node, idx in frontier:
                y = scaled[idx]
                record = SplitRecord(
                    node=node,
                    n_samples=len(idx),
                    mean=float(np.ldexp(np.mean(y), exponent)),
                    spread=float(np.abs(targets[idx]).max()),
                    may_split=node in may_split,
                    parent_score=float(np.var(y) * len(y)),
                    best_gain=-np.inf,
                )
                records.append(record)
                if not record.may_split:
                    continue
                candidates = next(draws)
                scores = {}
                for feature in candidates.tolist():
                    for threshold, gain in self._gains(features[idx, feature], y):
                        scores[feature, threshold] = gain
                        record.best_gain = max(record.best_gain, gain)
                if tree.left[node] < 0:
                    continue
                feature, threshold = int(tree.feature[node]), float(tree.threshold[node])
                left_mask = features[idx, feature] <= threshold
                record.taken_gain = self._gain(y, left_mask)
                record.taken_is_candidate = (feature, threshold) in scores
                next_frontier += [
                    (int(tree.left[node]), idx[left_mask]),
                    (int(tree.right[node]), idx[~left_mask]),
                ]
            frontier = next_frontier
        return records, float(np.ldexp(1e-12, -2 * exponent))

    def _gains(self, column: np.ndarray, y: np.ndarray):
        unique = np.unique(column)
        if len(unique) < 2:
            return
        thresholds = (unique[:-1] + unique[1:]) / 2.0
        if len(thresholds) > 32:
            thresholds = np.quantile(column, np.linspace(0.05, 0.95, 32))
        for threshold in thresholds.tolist():
            left_mask = column <= threshold
            n_left = int(left_mask.sum())
            if min(n_left, len(y) - n_left) >= max(self.min_samples_leaf, 1):
                yield threshold, self._gain(y, left_mask)

    @staticmethod
    def _gain(y: np.ndarray, left_mask: np.ndarray) -> float:
        n_left = int(left_mask.sum())
        score = np.var(y[left_mask]) * n_left + np.var(y[~left_mask]) * (len(y) - n_left)
        return float(np.var(y) * len(y) - score)


def walk_reference(tree, rows: np.ndarray) -> np.ndarray:
    """Each row's leaf value, walking ``tree``'s node arrays one row and one
    node at a time."""
    out = []
    for row in np.asarray(rows, dtype=float):
        node = 0
        while tree.left[node] >= 0:
            goes_left = row[tree.feature[node]] <= tree.threshold[node]
            node = tree.left[node] if goes_left else tree.right[node]
        out.append(tree.value[node])
    return np.array(out, dtype=float)


def forest_reference(forest, features: np.ndarray) -> list[tuple[ReferenceTree, np.ndarray]]:
    """The historical ``_BaseForest.fit`` bootstrap loop.

    Draws each tree's seed and bootstrap sample from ``forest``'s generator
    and returns one :class:`ReferenceTree` on that seed per draw, with the
    training rows it samples.
    """
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
        trees.append((tree, idx))
    return trees


def unique_rows_reference(rows: np.ndarray) -> np.ndarray:
    """The climb's historical duplicate removal: ``np.unique(axis=0)``, whose
    field-wise compare holds -0.0 equal to 0.0, in first-seen order."""
    if len(rows) == 0:
        return rows
    _, first = np.unique(rows, axis=0, return_index=True)
    return rows[np.sort(first)]


def signature_reference(encoder: ConfigEncoder) -> tuple:
    """``ConfigEncoder.signature()`` as it was built on every call."""
    parts = []
    for block in encoder.blocks:
        transform = getattr(block.parameter, "transform", None)
        values = tuple(block.parameter.values) if block.kind == "categorical" else None
        parts.append((block.parameter.name, block.kind, block.width, transform, values))
    return tuple(parts)


def predict_rows_reference(
    gp: GaussianProcess, rows: np.ndarray, include_noise: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """``GaussianProcess.predict_rows`` before its value tables: the cross
    tensor from ``pairwise_rows`` and scipy's ``solve_triangular``."""
    if not gp.is_fitted:
        raise RuntimeError("predict_rows() called before fit_rows()")
    hp = gp.hyperparameters
    cross = gp._distance.pairwise_rows(rows, gp._train_rows)
    k_star = matern52(cross, hp.lengthscales, hp.outputscale)
    mean = k_star @ gp._alpha
    v = linalg.solve_triangular(gp._cholesky, k_star.T, lower=True)
    prior_var = hp.outputscale
    var = prior_var - np.sum(v**2, axis=0)
    var = np.maximum(var, 1e-12)
    if include_noise:
        var = var + hp.noise_variance
    return mean, var


# -- the per-reader value constructions the encoder's value tables replaced ---

def value_column_reference(param: Parameter, values: Sequence[Any]) -> np.ndarray:
    """Values of a discrete parameter as the column a draw gathered from and
    unary narrowing evaluated: object for a categorical, float otherwise."""
    dtype = object if isinstance(param, CategoricalParameter) else float
    column = np.empty(len(values), dtype=dtype)
    column[:] = list(values)
    return column


def raw_column_reference(param: Parameter, values: Sequence[Any]) -> np.ndarray:
    """The neighbour tables' raw column: ``SearchSpace._raw_column`` (float
    for numbers, object otherwise), except that a categorical stays object.

    ``_raw_column`` read a column's type from its first value, so it turned
    numeric categories into floats and could not build the column of a
    categorical whose first value is a number and another a string.
    """
    if isinstance(param, CategoricalParameter):
        column = np.empty(len(values), dtype=object)
        column[:] = list(values)
        return column
    if isinstance(param, PermutationParameter):
        column = np.empty(len(values), dtype=object)
        column[:] = [tuple(v) for v in values]
        return column
    first = values[0] if values else None
    if isinstance(first, (int, float, np.integer, np.floating)) and not isinstance(first, bool):
        return np.asarray(values, dtype=float)
    column = np.empty(len(values), dtype=object)
    column[:] = list(values)
    return column


def ordinal_maps_reference(param: OrdinalParameter) -> tuple[np.ndarray, np.ndarray, dict]:
    """The encoder's eager per-ordinal maps: raw floats, warps, and warp ->
    value with the first value on a tie."""
    raw = np.asarray([float(v) for v in param.values], dtype=float)
    warped = [param._warp(v) for v in param.values]
    # reversed, so that the first value of a tie is written last
    return raw, np.asarray(warped, dtype=float), dict(zip(warped[::-1], param.values[::-1]))


def encode_value_column_reference(encoder: ConfigEncoder, name: str, values: Any) -> np.ndarray:
    """``ConfigEncoder.encode_value_column`` with :func:`ordinal_maps_reference`."""
    block = encoder._by_name[name]
    param = block.parameter
    if block.kind == "numeric":
        if isinstance(param, OrdinalParameter):
            raw, warped, _ = ordinal_maps_reference(param)
            return warped[np.searchsorted(raw, np.asarray(values, dtype=float))][:, None]
        column = np.asarray(values, dtype=float)
        if getattr(param, "transform", "linear") == "log":
            column = _MATH_LOG(np.asarray(values)).astype(float)
        return column[:, None]
    if block.kind == "categorical":
        index_of = param.index_of
        return np.asarray([index_of(v) for v in values], dtype=float)[:, None]
    if isinstance(values, np.ndarray) and values.ndim == 2:
        return values.astype(float)
    return np.asarray([tuple(v) for v in values], dtype=float)


def catalogue_reference(block: ColumnBlock) -> np.ndarray | None:
    """``_catalogue``'s three builds: category indices, ordinal warps, and
    the permutations of at most five elements in lexicographic order."""
    param = block.parameter
    if block.kind == "categorical":
        return np.arange(len(param.values), dtype=float)[:, None]
    if isinstance(param, OrdinalParameter):
        return ordinal_maps_reference(param)[1][:, None]
    if block.kind == "permutation" and block.width <= 5:
        return np.asarray(list(itertools.permutations(range(block.width))), dtype=float)
    return None


def code_of_reference(encoded: np.ndarray) -> dict[Any, int]:
    """The neighbour tables' ``code_of``: block key (its float, or its
    floats' tuple) -> code, the *last* code of a key that repeats."""
    width = encoded.shape[1]
    return {
        (block[0] if width == 1 else tuple(block)): code
        for code, block in enumerate(encoded.tolist())
    }


def decode_numeric(param: NumericParameter, value: float) -> Any:
    """The encoder's numeric decode before its ordinal tables: an ordinal
    re-warps all of its values on every call."""
    if isinstance(param, OrdinalParameter):
        warped = np.array([param._warp(v) for v in param.values])
        return param.values[int(np.argmin(np.abs(warped - value)))]
    raw = math.exp(value) if param.transform == "log" else value
    if isinstance(param, IntegerParameter):
        return int(min(max(round(raw), param.low), param.high))
    if isinstance(param, RealParameter):
        return float(min(max(raw, param.low), param.high))
    return float(raw)


def decode_reference(encoder: ConfigEncoder, row: Sequence[float]) -> dict[str, Any]:
    """``ConfigEncoder.decode`` with :func:`decode_numeric`."""
    row = np.asarray(row, dtype=float)
    config: dict[str, Any] = {}
    for block in encoder.blocks:
        param = block.parameter
        if block.kind == "numeric":
            config[param.name] = decode_numeric(param, float(row[block.start]))
        elif block.kind == "categorical":
            idx = int(round(float(row[block.start])))
            idx = min(max(idx, 0), len(param.values) - 1)
            config[param.name] = param.values[idx]
        else:
            config[param.name] = _decode_permutation(param, row[block.columns])
    return config


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
        lp += float(np.sum(gamma_log_pdf(gp.lengthscale_prior, hp.lengthscales)))
    if gp.noise_prior is not None:
        lp += float(np.sum(gamma_log_pdf(gp.noise_prior, hp.noise_variance)))
    if gp.outputscale_prior is not None:
        lp += float(np.sum(gamma_log_pdf(gp.outputscale_prior, hp.outputscale)))
    return ll + lp


def gamma_log_pdf(prior: GammaPrior, value: float | np.ndarray) -> float | np.ndarray:
    """Log density, bit for bit what ``scipy.stats.gamma.logpdf`` returns.

    It is the closed form that scipy evaluates inside ``logpdf``, with
    ``z = x / θ`` and ``θ = 1 / rate``, in scipy's operation order::

        xlogy(a - 1, z) - z - gammaln(a) - log(θ)

    Negative values lie outside the support and score ``-inf``; NaN stays
    NaN.  It skips scipy's argument parsing and broadcasting, which cost
    more than the arithmetic in the GP's hyper-parameter fit.  The GP's MAP
    objective called it once per prior before ``GammaLogDensities`` fused
    the three calls into one.
    """
    value = np.asarray(value, dtype=float)
    scale = 1.0 / prior.rate
    z = value / scale
    # log(0) and the masked-out negatives raise no warnings
    with np.errstate(divide="ignore", invalid="ignore"):
        lp = xlogy(prior.shape - 1.0, z) - z - gammaln(prior.shape) - np.log(scale)
    lp = np.where(value < 0.0, -np.inf, lp)
    return lp if lp.shape else float(lp)


def map_gradient_reference(
    gp: GaussianProcess, distance_tensor: np.ndarray, vector: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Gradient of the GP's negative log posterior in its log hyper-parameters,
    dense and allocating: full ``(n, n)`` matrices throughout, ``K⁻¹`` from
    ``cho_solve`` against the identity.

    With ``W = K⁻¹ − ααᵀ`` and ``α = K⁻¹y``, coordinate ``θ`` is
    ``½·Σ W ∘ ∂K/∂θ`` minus the prior's ``d log p / d log v = (a − 1) −
    rate·v``.  ``∂K/∂log lᵢ`` is the Matérn-5/2's
    ``σ·(5/3)(1 + √5r)e^(−√5r)·(dᵢ/lᵢ)²``, ``∂K/∂log σ`` the noiseless
    kernel and ``∂K/∂log noise`` ``noise·I``.  Where the objective scores
    1e25 (``K`` not positive definite, or a non-finite score) the gradient
    is zero.
    """
    tensor = np.asarray(distance_tensor, dtype=float)
    values = np.exp(np.asarray(vector, dtype=float))
    lengthscales, outputscale, noise = values[:-2], values[-2], values[-1]
    n = len(y)
    scaled = (tensor / lengthscales[:, None, None]) ** 2
    r = np.sqrt(scaled.sum(axis=0))
    decay = np.exp(-math.sqrt(5.0) * r)
    kernel = outputscale * (1.0 + math.sqrt(5.0) * r + (5.0 / 3.0) * r**2) * decay
    slope = outputscale * (5.0 / 3.0) * (1.0 + math.sqrt(5.0) * r) * decay
    k = kernel + (noise + 1e-8) * np.eye(n)
    zero = np.zeros(len(values))
    try:
        chol = linalg.cholesky(k, lower=True)
    except linalg.LinAlgError:
        return zero
    alpha = linalg.cho_solve((chol, True), y)
    nll = 0.5 * float(y @ alpha) + float(np.sum(np.log(np.diag(chol))))
    priors = [
        (gp.lengthscale_prior, list(range(len(lengthscales)))),
        (gp.outputscale_prior, [len(values) - 2]),
        (gp.noise_prior, [len(values) - 1]),
    ]
    for prior, entries in priors:
        if prior is not None:
            nll -= float(np.sum(gamma_log_pdf(prior, values[entries])))
    if not math.isfinite(nll):
        return zero
    w = linalg.cho_solve((chol, True), np.eye(n)) - np.outer(alpha, alpha)
    gradient = np.empty(len(values))
    for i in range(len(lengthscales)):
        gradient[i] = 0.5 * np.sum(w * slope * scaled[i])
    gradient[-2] = 0.5 * np.sum(w * kernel)
    gradient[-1] = 0.5 * noise * np.trace(w)
    for prior, entries in priors:
        if prior is not None:
            gradient[entries] -= (prior.shape - 1.0) - prior.rate * values[entries]
    return gradient

"""Reference oracles: the historical scalar implementations.

Each function is the pre-vectorization code path, kept verbatim except that
the distance computer, search space or tree it used to be a method of is now
its first argument.  Nothing in ``src/`` calls these; they are the executable
specifications the vectorized paths are tested against:

* :func:`pairwise_reference` pins ``DistanceComputer.pairwise_rows``;
* :func:`sample_reference` pins the distribution of ``SearchSpace.sample``;
* :func:`sample_leaf` / :func:`sample_path` pin the uniform and biased modes
  of ``Tree.sample_leaf_indices``;
* :func:`sample_chain` composes the two per tree, as the scalar sampler did.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.models.distances import DistanceComputer
from repro.space.chain_of_trees import ChainOfTrees, Tree
from repro.space.parameters import (
    CategoricalParameter,
    NumericParameter,
    PermutationParameter,
)
from repro.space.space import Configuration, SearchSpace


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
                    raw[i, j] = param.distance(pa, pb)
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
                [[param.distance(va, vb) for vb in values_b] for va in values_a],
                dtype=float,
            )
        out[k] = matrix / computer.scales[k]
    return out


def sample_leaf(tree: Tree, rng: np.random.Generator) -> dict[str, Any]:
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


def sample_path(tree: Tree, rng: np.random.Generator) -> dict[str, Any]:
    """Sample by choosing a uniformly random child at every level (biased)."""
    node = tree.root
    values: dict[str, Any] = {}
    for param in tree.parameters:
        idx = int(rng.integers(len(node.children)))
        node = node.children[idx]
        values[param.name] = node.value
    return values


def sample_chain(
    chain: ChainOfTrees, rng: np.random.Generator, biased: bool = False
) -> dict[str, Any]:
    """Sample the constrained part of a configuration.

    With ``biased=False`` (BaCO's fix) the sample is uniform over feasible
    configurations; with ``biased=True`` it reproduces the ATF-style
    uniform-per-level walk that over-weights sparse subtrees.
    """
    values: dict[str, Any] = {}
    for tree in chain.trees:
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
    scalar ``Parameter.sample`` call per uncovered parameter, and one
    Python ``eval`` per residual constraint.
    """
    samples: list[Configuration] = []
    covered = space._covered_names()
    attempts = 0
    while len(samples) < n_samples:
        attempts += 1
        if attempts > max_rejection_rounds * max(1, n_samples):
            raise RuntimeError(
                "rejection sampling failed to find feasible configurations; "
                "the feasible region may be too sparse"
            )
        config: Configuration = {}
        if space.chain_of_trees is not None:
            config.update(sample_chain(space.chain_of_trees, rng, biased=biased_cot))
        for param in space.parameters:
            if param.name not in covered:
                config[param.name] = param.sample(rng)
        if all(c.evaluate(config) for c in space._residual_constraints):
            samples.append(config)
    return samples

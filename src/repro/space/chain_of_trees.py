"""Chain-of-Trees (CoT) representation of constrained discrete search spaces.

Known constraints often make the feasible region a tiny fraction of the
Cartesian product of parameter domains (Table 3 of the paper).  Following
Rasch et al. (ATF) and Sec. 4.2 of the BaCO paper, the feasible region is
pre-computed and stored as a *chain of trees*:

* co-dependent parameters (those transitively linked by constraints) form a
  group, and each group becomes one *tree*;
* each level of a tree corresponds to one parameter of the group and each
  node to one feasible value given the values on the path above it;
* each root-to-leaf path is a feasible *partial configuration*;
* parameters in different trees are independent, so any combination of
  partial configurations is feasible.

BaCO uses the CoT for three things (Sec. 4.2):

1. **Bias-free random sampling** -- sampling uniformly over the leaves of
   each tree (instead of walking down the tree choosing children uniformly,
   which is biased towards sparse subtrees; both strategies are implemented
   so the bias can be studied as in the evaluation's "CoT sampling" baseline).
2. **Fast membership tests** -- checking whether a configuration is feasible
   by walking the trees instead of re-evaluating every constraint.
3. **Neighbour generation** on the feasible region for local search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from .constraints import Constraint
from .parameters import Parameter

__all__ = ["CoTNode", "Tree", "ChainOfTrees", "FeasibleSetTooLarge"]


class FeasibleSetTooLarge(RuntimeError):
    """Raised when enumerating the feasible set would exceed the node budget."""


@dataclass
class CoTNode:
    """One node of a tree: a single value of a single parameter."""

    value: Any
    depth: int
    children: list["CoTNode"] = field(default_factory=list)
    leaf_count: int = 0

    def is_leaf(self) -> bool:
        return not self.children


class Tree:
    """A tree over one group of co-dependent parameters."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        constraints: Sequence[Constraint],
        max_nodes: int = 2_000_000,
    ) -> None:
        for param in parameters:
            if not param.is_discrete:
                raise TypeError(
                    f"Chain-of-Trees requires discrete parameters, got {param.name!r}"
                )
        self.parameters = list(parameters)
        self.parameter_names = [p.name for p in parameters]
        self.constraints = list(constraints)
        self._max_nodes = max_nodes
        self._node_count = 0
        #: materialized-leaf caches, built lazily on first use; the tree is
        #: immutable after construction so they are never invalidated
        self._leaves: list[dict[str, Any]] | None = None
        self._biased_cumulative: np.ndarray | None = None
        self.root = CoTNode(value=None, depth=-1)
        self._build(self.root, {})
        self._count_leaves(self.root)
        if self.root.leaf_count == 0:
            raise ValueError(
                "constraints over parameters "
                f"{self.parameter_names} admit no feasible configuration"
            )

    # -- construction ---------------------------------------------------
    def _applicable(self, partial: Mapping[str, Any]) -> bool:
        for constraint in self.constraints:
            if constraint.is_applicable(partial) and not constraint.evaluate(partial):
                return False
        return True

    def _build(self, node: CoTNode, partial: dict[str, Any]) -> None:
        # no domain propagation: per-node pruning builds the same tree, only
        # slower (docs/architecture.md, "Constraint propagation")
        depth = node.depth + 1
        if depth == len(self.parameters):
            return
        param = self.parameters[depth]
        for value in param.values_list():
            partial[param.name] = value
            if self._applicable(partial):
                self._node_count += 1
                if self._node_count > self._max_nodes:
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

    # -- queries ----------------------------------------------------------
    @property
    def n_feasible(self) -> int:
        """Number of feasible partial configurations represented by this tree.

        O(1): the per-node leaf counts are computed once at build time and the
        tree is immutable afterwards.
        """
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

    def _materialize_leaves(self) -> None:
        """One walk filling both leaf caches (list + biased sampling weights).

        The walk preserves the historical ``iter_leaves`` stack order, and the
        per-leaf probability of the biased per-level sampling scheme (product
        of ``1 / n_children`` along the path) is accumulated alongside so
        ``sample_leaf_indices`` can draw either mode from the same index.
        """
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
        # guard against floating drift so searchsorted can never fall off the end
        cumulative[-1] = 1.0
        # publication order matters under concurrency: every fast-path check
        # gates on `_leaves is None`, so the cumulative weights must be
        # visible before `_leaves` is.  The walk itself is deterministic, so
        # two racing materializations assign identical values (idempotent).
        self._biased_cumulative = cumulative
        self._leaves = leaves

    def leaves(self) -> list[dict[str, Any]]:
        """The materialized feasible partial configurations (cached).

        Trees are immutable after construction, so the first call's walk is
        reused forever.  Callers must not mutate the returned dictionaries.
        """
        if self._leaves is None:
            self._materialize_leaves()
        return self._leaves

    def iter_leaves(self) -> Iterator[dict[str, Any]]:
        """Yield every feasible partial configuration (cached materialization)."""
        for leaf in self.leaves():
            yield dict(leaf)

    def sample_leaf_indices(
        self, rng: np.random.Generator, n: int, biased: bool = False
    ) -> np.ndarray:
        """Draw ``n`` leaf indices (into :meth:`leaves`) in one vectorized pass.

        Uniform mode draws indices uniformly — exactly the bias-free
        uniform-over-leaves distribution of a leaf-count-weighted walk.
        Biased mode inverts the cumulative per-leaf probability of the
        ATF-style walk that picks a uniformly random child per level,
        reproducing that walk's distribution without walking the tree per
        sample.
        """
        if self._leaves is None:
            self._materialize_leaves()
        if not biased:
            return rng.integers(len(self._leaves), size=n)
        return np.searchsorted(
            self._biased_cumulative, rng.random(n), side="right"
        ).clip(0, len(self._leaves) - 1)

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


class ChainOfTrees:
    """The full chain: one tree per group of co-dependent parameters."""

    def __init__(self, trees: Sequence[Tree]) -> None:
        self.trees = list(trees)
        names = [name for tree in self.trees for name in tree.parameter_names]
        if len(names) != len(set(names)):
            raise ValueError("a parameter may appear in at most one tree")
        self.parameter_names = names
        self._tree_of: dict[str, Tree] = {
            name: tree for tree in self.trees for name in tree.parameter_names
        }

    @property
    def n_feasible(self) -> int:
        """Total number of feasible configurations over the chained parameters."""
        total = 1
        for tree in self.trees:
            total *= tree.n_feasible
        return total

    def covers(self, parameter_name: str) -> bool:
        return parameter_name in self._tree_of

    def tree_for(self, parameter_name: str) -> Tree:
        return self._tree_of[parameter_name]

    def contains(self, configuration: Mapping[str, Any]) -> bool:
        return all(tree.contains(configuration) for tree in self.trees)

    def feasible_values(
        self, parameter_name: str, configuration: Mapping[str, Any]
    ) -> list[Any]:
        return self._tree_of[parameter_name].feasible_values(parameter_name, configuration)

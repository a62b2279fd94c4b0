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

A tree is enumerated depth first once and then kept as tables over its
leaves; no node objects survive construction.  BaCO uses the CoT for three
things (Sec. 4.2):

1. **Bias-free random sampling** -- sampling uniformly over the leaves of
   each tree (instead of walking down the tree choosing children uniformly,
   which is biased towards sparse subtrees; both strategies are implemented
   so the bias can be studied as in the evaluation's "CoT sampling" baseline).
2. **Fast membership tests** -- a set lookup of the configuration's
   projection onto each tree instead of re-evaluating every constraint.
3. **Neighbour generation** on the feasible region for local search: per
   level, a map from a leaf's other values to the values that complete it
   (:meth:`Tree.feasible_values`).  The climb reads the same moves from
   the space's :class:`~repro.space.neighbourhood.NeighbourTables`, built
   from :attr:`Tree.leaf_values` on the first neighbourhood call: per
   level, the leaves grouped by their other values in domain order, so a
   leaf's moves are its group minus itself.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Mapping, Sequence

import numpy as np

from .constraints import Constraint
from .parameters import Parameter

__all__ = ["Tree", "ChainOfTrees", "FeasibleSetTooLarge"]


class FeasibleSetTooLarge(RuntimeError):
    """Raised when enumerating the feasible set would exceed the node budget."""


class Tree:
    """A tree over one group of co-dependent parameters, kept as leaf tables.

    Attributes derived once at construction (the tree is immutable):

    * ``leaf_values`` -- every feasible partial configuration as a tuple of
      values in parameter order.  Uniform draws index into this list, so its
      order is part of every trace: it is the depth-first enumeration
      reversed (the order of the stack walk earlier versions used).
    * ``biased_cumulative`` -- cumulative per-leaf probabilities, over
      ``leaf_values``, of the ATF-style walk that picks a uniformly random
      child at every level.
    """

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
        depth_first = self._enumerate(max_nodes)
        if not depth_first:
            raise ValueError(
                "constraints over parameters "
                f"{self.parameter_names} admit no feasible configuration"
            )
        self.leaf_values: list[tuple] = depth_first[::-1]
        self._leaf_set = frozenset(depth_first)
        #: per level: the other values of a leaf -> the values completing it;
        #: filled in depth-first order, so each list is in domain order
        self._completions: list[dict[tuple, list[Any]]] = []
        for level in range(len(self.parameters)):
            table: dict[tuple, list[Any]] = {}
            for leaf in depth_first:
                table.setdefault(leaf[:level] + leaf[level + 1 :], []).append(leaf[level])
            self._completions.append(table)
        self.biased_cumulative = self._biased_cumulative()

    # -- construction ---------------------------------------------------
    def _applicable(self, partial: Mapping[str, Any]) -> bool:
        for constraint in self.constraints:
            if constraint.is_applicable(partial) and not constraint.evaluate(partial):
                return False
        return True

    def _enumerate(self, max_nodes: int) -> list[tuple]:
        """The feasible leaves as value tuples, in depth-first order.

        Every applicable extension of a partial assignment counts as one node
        against ``max_nodes``, dead ends included.  No domain pruning:
        per-node pruning enumerates the same leaves, only slower
        (docs/architecture.md, "Unary constraint narrowing").
        """
        leaves: list[tuple] = []
        partial: dict[str, Any] = {}
        last = len(self.parameters) - 1
        nodes = 0

        def extend(depth: int) -> None:
            nonlocal nodes
            param = self.parameters[depth]
            for value in param.values_list():
                partial[param.name] = value
                if self._applicable(partial):
                    nodes += 1
                    if nodes > max_nodes:
                        raise FeasibleSetTooLarge(
                            f"feasible enumeration exceeded {max_nodes} nodes"
                        )
                    if depth == last:
                        # keys were inserted level by level: parameter order
                        leaves.append(tuple(partial.values()))
                    else:
                        extend(depth + 1)
                del partial[param.name]

        extend(0)
        return leaves

    def _biased_cumulative(self) -> np.ndarray:
        """Cumulative probabilities of the per-level uniform-child walk.

        A leaf's probability is ``1.0`` divided, level by level from the
        top, by the child count of its prefix there, and the sum runs over
        ``leaf_values`` in order.
        """
        probability = np.ones(len(self.leaf_values))
        for depth in range(len(self.parameters)):
            children = Counter(
                prefix[:-1] for prefix in {leaf[: depth + 1] for leaf in self.leaf_values}
            )
            probability /= [children[leaf[:depth]] for leaf in self.leaf_values]
        cumulative = np.cumsum(probability)
        # guard against floating drift so searchsorted can never fall off the end
        cumulative[-1] = 1.0
        return cumulative

    # -- queries ----------------------------------------------------------
    @property
    def n_feasible(self) -> int:
        """Number of feasible partial configurations represented by this tree."""
        return len(self.leaf_values)

    def _key(self, configuration: Mapping[str, Any], skip: int = -1) -> tuple:
        """The configuration's canonical values at every level but ``skip``."""
        return tuple(
            param.canonical(configuration[param.name])
            for level, param in enumerate(self.parameters)
            if level != skip
        )

    def contains(self, configuration: Mapping[str, Any]) -> bool:
        """Whether a configuration's projection onto this tree is a leaf."""
        return self._key(configuration) in self._leaf_set

    def sample_leaf_indices(
        self, rng: np.random.Generator, n: int, biased: bool = False
    ) -> np.ndarray:
        """Draw ``n`` leaf indices (into :attr:`leaf_values`) in one pass.

        Uniform mode draws indices uniformly -- exactly the bias-free
        uniform-over-leaves distribution of a leaf-count-weighted walk.
        Biased mode inverts :attr:`biased_cumulative`, reproducing the
        distribution of the walk that picks a uniformly random child per
        level without walking per sample.
        """
        if not biased:
            return rng.integers(len(self.leaf_values), size=n)
        return np.searchsorted(
            self.biased_cumulative, rng.random(n), side="right"
        ).clip(0, len(self.leaf_values) - 1)

    def feasible_values(
        self, parameter_name: str, configuration: Mapping[str, Any]
    ) -> list[Any]:
        """Values of one parameter feasible given the others held fixed.

        In domain order; empty when the other values complete no leaf.
        """
        if parameter_name not in self.parameter_names:
            raise KeyError(parameter_name)
        level = self.parameter_names.index(parameter_name)
        return list(self._completions[level].get(self._key(configuration, level), ()))


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

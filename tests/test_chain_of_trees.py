"""Tests for the Chain-of-Trees data structure.

The leaf-table ``Tree`` is pinned against the historical node-object tree,
``oracles.NodeTree``, over random small discrete spaces.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.space.chain_of_trees import ChainOfTrees, FeasibleSetTooLarge, Tree
from repro.space.constraints import Constraint
from repro.space.parameters import (
    CategoricalParameter,
    OrdinalParameter,
    PermutationParameter,
    RealParameter,
)

from oracles import NodeTree, sample_chain, sample_leaf, sample_path


def _paper_trees() -> ChainOfTrees:
    """The Fig. 4 example: p1>=p2, p4>=p3, p5>=2*p4."""
    left = Tree(
        [OrdinalParameter("p1", [2, 4]), OrdinalParameter("p2", [2, 4])],
        [Constraint("p1 >= p2")],
    )
    right = Tree(
        [
            OrdinalParameter("p3", [1, 4]),
            OrdinalParameter("p4", [1, 2, 4]),
            OrdinalParameter("p5", [2, 4, 8]),
        ],
        [Constraint("p4 >= p3"), Constraint("p5 >= 2 * p4")],
    )
    return ChainOfTrees([left, right])


def _brute_force_count() -> int:
    count = 0
    for p1, p2, p3, p4, p5 in itertools.product([2, 4], [2, 4], [1, 4], [1, 2, 4], [2, 4, 8]):
        if p1 >= p2 and p4 >= p3 and p5 >= 2 * p4:
            count += 1
    return count


class TestTree:
    def test_leaf_count_matches_brute_force(self):
        cot = _paper_trees()
        assert cot.n_feasible == _brute_force_count()

    def test_left_tree_has_three_leaves(self):
        cot = _paper_trees()
        left = cot.tree_for("p1")
        assert left.n_feasible == 3  # (2,2), (4,2), (4,4)

    def test_membership(self):
        cot = _paper_trees()
        assert cot.contains({"p1": 2, "p2": 2, "p3": 4, "p4": 4, "p5": 8})
        assert not cot.contains({"p1": 2, "p2": 4, "p3": 4, "p4": 4, "p5": 8})
        assert not cot.contains({"p1": 2, "p2": 2, "p3": 4, "p4": 4, "p5": 2})

    def test_leaf_values_are_all_feasible_and_unique(self):
        cot = _paper_trees()
        right = cot.tree_for("p5")
        assert right.parameter_names == ["p3", "p4", "p5"]
        assert len(right.leaf_values) == right.n_feasible
        for p3, p4, p5 in right.leaf_values:
            assert p4 >= p3
            assert p5 >= 2 * p4
        assert len(set(right.leaf_values)) == len(right.leaf_values)

    def test_sample_leaf_is_uniform(self, rng):
        """Bias-free sampling: every feasible leaf has equal probability."""
        cot = _paper_trees()
        right = cot.tree_for("p3")
        reference = NodeTree.of(right)
        counts = {}
        n = 6000
        for _ in range(n):
            leaf = sample_leaf(reference, rng)
            counts[tuple(sorted(leaf.items()))] = counts.get(tuple(sorted(leaf.items())), 0) + 1
        expected = n / right.n_feasible
        for value in counts.values():
            assert abs(value - expected) < 0.25 * expected

    def test_sample_path_is_biased_towards_sparse_subtrees(self, rng):
        """The per-level walk over-samples leaves in sparse branches (Sec. 4.2)."""
        tree = Tree(
            [OrdinalParameter("a", [1, 2]), OrdinalParameter("b", [1, 2, 3, 4])],
            [Constraint("b >= a * a")],
        )
        # a=1 admits b in {1,2,3,4}; a=2 admits only b=4 -> path sampling gives
        # the (2, 4) leaf probability 1/2 instead of the uniform 1/5.
        reference = NodeTree.of(tree)
        n = 4000
        hits = sum(1 for _ in range(n) if sample_path(reference, rng)["a"] == 2)
        assert hits / n > 0.4
        hits_uniform = sum(1 for _ in range(n) if sample_leaf(reference, rng)["a"] == 2)
        assert hits_uniform / n < 0.3

    def test_feasible_values_conditioned_on_others(self):
        cot = _paper_trees()
        values = cot.feasible_values("p5", {"p3": 1, "p4": 4, "p5": 8})
        assert values == [8]
        values = cot.feasible_values("p4", {"p3": 1, "p4": 1, "p5": 8})
        assert sorted(values) == [1, 2, 4]

    def test_infeasible_constraints_raise(self):
        with pytest.raises(ValueError):
            Tree(
                [OrdinalParameter("a", [1, 2]), OrdinalParameter("b", [4, 8])],
                [Constraint("a >= b")],
            )

    def test_continuous_parameters_rejected(self):
        with pytest.raises(TypeError):
            Tree([RealParameter("x", 0.0, 1.0)], [Constraint("x >= 0.5")])

    def test_node_budget_enforced(self):
        params = [OrdinalParameter(f"q{i}", list(range(10))) for i in range(6)]
        constraints = [Constraint("q0 >= 0")]
        with pytest.raises(FeasibleSetTooLarge):
            Tree(params, constraints, max_nodes=100)


class TestChainOfTrees:
    def test_total_count_is_product_of_trees(self):
        cot = _paper_trees()
        left = cot.tree_for("p1")
        right = cot.tree_for("p3")
        assert cot.n_feasible == left.n_feasible * right.n_feasible

    def test_duplicate_parameters_rejected(self):
        tree = Tree([OrdinalParameter("a", [1, 2])], [Constraint("a >= 1")])
        with pytest.raises(ValueError):
            ChainOfTrees([tree, tree])

    def test_sample_respects_all_constraints(self, rng):
        references = [NodeTree.of(tree) for tree in _paper_trees().trees]
        for _ in range(100):
            config = sample_chain(references, rng)
            assert config["p1"] >= config["p2"]
            assert config["p4"] >= config["p3"]
            assert config["p5"] >= 2 * config["p4"]

    def test_covers(self):
        cot = _paper_trees()
        assert cot.covers("p1") and cot.covers("p5")
        assert not cot.covers("zzz")


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=2, max_value=5))
@settings(max_examples=20, deadline=None)
def test_tree_count_matches_brute_force_random_spaces(n_a, n_b):
    """Property: CoT leaf count equals brute-force feasible count."""
    a_values = list(range(1, n_a + 1))
    b_values = list(range(1, n_b + 1))
    tree = Tree(
        [OrdinalParameter("a", a_values), OrdinalParameter("b", b_values)],
        [Constraint("a >= b")],
    )
    brute = sum(1 for a in a_values for b in b_values if a >= b)
    assert tree.n_feasible == brute


_TEMPLATES = (
    "{x} >= {y}",
    "{x} * {y} <= {k}",
    "{x} % {y} == 0",
    "{x} + {y} != {k}",
    "({m} == 'u') or ({x} <= {y})",
)


@st.composite
def discrete_groups(draw):
    """Random small parameter groups (ordinals, maybe a categorical and a
    permutation) with one to three constraints over them."""
    n_ordinal = draw(st.integers(min_value=2, max_value=3))
    parameters = [
        OrdinalParameter(
            f"o{i}",
            draw(st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True)),
        )
        for i in range(n_ordinal)
    ]
    if draw(st.booleans()):
        parameters.append(CategoricalParameter("m", ["u", "v", "w"][: draw(st.integers(1, 3))]))
    if draw(st.booleans()):
        parameters.append(PermutationParameter("p", draw(st.integers(2, 3))))
    parameters = draw(st.permutations(parameters))
    ordinals = [p.name for p in parameters if p.name.startswith("o")]
    templates = _TEMPLATES if any(p.name == "m" for p in parameters) else _TEMPLATES[:-1]
    constraints = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        x, y = draw(st.permutations(ordinals))[:2]
        expression = draw(st.sampled_from(templates)).format(
            x=x, y=y, m="m", k=draw(st.integers(1, 40))
        )
        constraints.append(Constraint(expression))
    return parameters, constraints


@given(discrete_groups())
@settings(max_examples=60, deadline=None)
def test_leaf_tables_equal_node_tree(group):
    """Property: every query of the leaf tables equals the node-tree walk."""
    parameters, constraints = group
    try:
        reference = NodeTree(parameters, constraints)
    except ValueError:
        with pytest.raises(ValueError, match="admit no feasible configuration"):
            Tree(parameters, constraints)
        return
    tree = Tree(parameters, constraints)
    names = tree.parameter_names
    leaves, cumulative = reference.leaves()
    assert tree.leaf_values == [tuple(leaf[name] for name in names) for leaf in leaves]
    assert tree.n_feasible == reference.n_feasible == len(leaves)
    assert tree.biased_cumulative.dtype == cumulative.dtype
    assert np.array_equal(tree.biased_cumulative, cumulative)
    # same node count: both fit in the same budget and overflow one below it
    Tree(parameters, constraints, max_nodes=reference.node_count)
    with pytest.raises(FeasibleSetTooLarge):
        Tree(parameters, constraints, max_nodes=reference.node_count - 1)
    # every cell of the dense product, on the tree and off it
    for values in itertools.product(*(p.values_list() for p in parameters)):
        configuration = dict(zip(names, values))
        assert tree.contains(configuration) == reference.contains(configuration)
        for name in names:
            assert tree.feasible_values(name, configuration) == reference.feasible_values(
                name, configuration
            )

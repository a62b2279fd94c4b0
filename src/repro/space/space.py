"""The :class:`SearchSpace`: parameters + known constraints.

A search space bundles the tunable parameters exposed by a compiler's
scheduling language together with the *known constraints* relating them.  It
offers everything the optimizers need:

* feasible random sampling (through the Chain-of-Trees where possible,
  rejection sampling otherwise, with each free parameter's values first
  narrowed by the residual constraints that read only that parameter),
* feasibility tests against the known constraints,
* neighbour enumeration restricted to the feasible region (for the
  acquisition-function local search),
* the fixed-width encoded rows every model layer consumes,
* size statistics matching Table 3 of the paper (dense size vs. feasible
  size).
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from .chain_of_trees import ChainOfTrees, FeasibleSetTooLarge, Tree
from .constraints import Constraint, compile_column_evaluator, group_codependent
from .encoding import ConfigEncoder
from .neighbourhood import NeighbourTables
from .parameters import (
    CategoricalParameter,
    IntegerParameter,
    OrdinalParameter,
    Parameter,
)

__all__ = ["SearchSpace", "Configuration", "freeze_configuration"]

#: A configuration is a plain mapping from parameter name to value.
Configuration = dict[str, Any]

#: integer ranges wider than this are never enumerated for narrowing
_MAX_NARROWED_INTEGERS = 4096


def _narrowable(param: Parameter) -> bool:
    """Whether unary constraints narrow ``param``'s values before a draw."""
    if isinstance(param, IntegerParameter):
        return param.cardinality() <= _MAX_NARROWED_INTEGERS
    return isinstance(param, (OrdinalParameter, CategoricalParameter))


def freeze_configuration(configuration: Mapping[str, Any], names: Sequence[str]) -> tuple:
    """Hashable, order-normalized representation of a configuration."""
    return tuple(
        tuple(configuration[n]) if isinstance(configuration[n], (list, tuple)) else configuration[n]
        for n in names
    )


class SearchSpace:
    """A constrained, mixed-type autotuning search space."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        constraints: Sequence[Constraint] = (),
        build_chain_of_trees: bool = True,
        max_cot_nodes: int = 2_000_000,
    ) -> None:
        names = [p.name for p in parameters]
        if len(names) != len(set(names)):
            raise ValueError("duplicate parameter names in search space")
        self.parameters: list[Parameter] = list(parameters)
        self.parameter_names: list[str] = names
        self._by_name: dict[str, Parameter] = {p.name: p for p in parameters}
        self.constraints: list[Constraint] = list(constraints)
        for constraint in self.constraints:
            unknown = constraint.variables - set(names)
            if unknown:
                raise ValueError(
                    f"constraint {constraint.name!r} references unknown parameters {sorted(unknown)}"
                )
        #: diagnostics of the latest sample_rows call (acceptance rate,
        #: rounds, breakdowns); a failing call embeds its own in the error
        self.last_sample_stats: dict[str, Any] | None = None
        self.chain_of_trees: ChainOfTrees | None = None
        #: constraints not captured by the CoT (evaluated explicitly)
        self._residual_constraints: list[Constraint] = list(self.constraints)
        if build_chain_of_trees and self.constraints:
            self._build_chain_of_trees(max_cot_nodes)
        #: lazily built vectorized-path caches (compiled constraint closures,
        #: per-tree encoded leaf matrices, narrowed free-parameter values,
        #: neighbourhood tables), each published by one assignment
        self._vector_caches: dict[str, Any] = {}

    def _narrowed_values(self) -> dict[str, list]:
        """Values of the free parameters that unary constraints narrow, cached.

        Node consistency: each residual expression constraint whose only
        variable is :func:`_narrowable` runs its compiled column evaluator
        over that parameter's value-table ``raw`` column, as
        ``sample_rows``' residual mask sees it, and keeps the values it
        accepts in ``values_list()`` order.  A parameter keeps an entry only
        when some value failed; :meth:`_draw_tables` draws it from the
        surviving values.  Residual constraints only read free
        parameters: the co-dependency grouping is transitively closed and
        tree capture is all-or-nothing per group.
        """
        narrowed = self._vector_caches.get("narrowed_values")
        if narrowed is None:
            kept: dict[str, np.ndarray] = {}  # the surviving codes
            for constraint, evaluator in self._compiled_residuals():
                if constraint.compile_columns() is None or len(constraint.variables) != 1:
                    continue  # callables and multi-variable constraints
                [name] = constraint.variables
                if not _narrowable(self._by_name[name]):
                    continue
                raw = self.encoder.table(name).raw
                codes = kept[name] if name in kept else np.arange(len(raw))
                kept[name] = codes[np.asarray(evaluator({name: raw[codes]}), dtype=bool)]
                if not len(kept[name]):
                    raise RuntimeError(
                        f"no value of parameter {name!r} satisfies its unary "
                        "constraints: the known constraints admit no feasible "
                        "configuration"
                    )
            narrowed = {}
            for name, codes in kept.items():
                if len(codes) < self._by_name[name].cardinality():
                    values = self.encoder.table(name).values
                    narrowed[name] = [values[code] for code in codes.tolist()]
            self._vector_caches["narrowed_values"] = narrowed
        return narrowed

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _build_chain_of_trees(self, max_cot_nodes: int) -> None:
        groups = group_codependent(self.parameter_names, self.constraints)
        trees: list[Tree] = []
        captured: list[Constraint] = []
        for group in groups:
            group_constraints = [
                c for c in self.constraints if c.variables <= set(group)
            ]
            if not group_constraints:
                continue
            group_params = [self._by_name[n] for n in group]
            if not all(p.is_discrete for p in group_params):
                continue
            if any(p.cardinality() > 10_000 for p in group_params):
                continue
            try:
                trees.append(Tree(group_params, group_constraints, max_nodes=max_cot_nodes))
            except FeasibleSetTooLarge:
                continue
            captured.extend(group_constraints)
        if trees:
            self.chain_of_trees = ChainOfTrees(trees)
            captured_set = {id(c) for c in captured}
            self._residual_constraints = [
                c for c in self.constraints if id(c) not in captured_set
            ]

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.parameters)

    def __getitem__(self, name: str) -> Parameter:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    @property
    def dimension(self) -> int:
        """Number of tunable parameters (the "Dim" column of Table 3)."""
        return len(self.parameters)

    def dense_size(self) -> float:
        """Cartesian-product size of the space, ``inf`` if any parameter is continuous."""
        total = 1.0
        for param in self.parameters:
            card = param.cardinality()
            if card is None:
                return math.inf
            total *= card
        return total

    def feasible_size(self, max_exhaustive: int = 2_000_000) -> float:
        """Number of configurations satisfying the known constraints.

        Uses the Chain-of-Trees counts when all constraints are captured by
        it; otherwise falls back to exhaustive counting when the dense size
        is small enough, and to ``nan`` otherwise.
        """
        if not self.constraints:
            return self.dense_size()
        if self.chain_of_trees is not None and not self._residual_constraints:
            free = 1.0
            covered = set(self.chain_of_trees.parameter_names)
            for param in self.parameters:
                if param.name in covered:
                    continue
                card = param.cardinality()
                if card is None:
                    return math.inf
                free *= card
            return self.chain_of_trees.n_feasible * free
        dense = self.dense_size()
        if dense is math.inf or dense > max_exhaustive:
            return float("nan")
        count = 0
        for config in self.iter_dense():
            if self.is_feasible(config):
                count += 1
        return float(count)

    def iter_dense(self) -> Iterable[Configuration]:
        """Iterate over the full Cartesian product (discrete spaces only)."""
        values = [p.values_list() for p in self.parameters]

        def rec(depth: int, partial: Configuration):
            if depth == len(self.parameters):
                yield dict(partial)
                return
            name = self.parameters[depth].name
            for value in values[depth]:
                partial[name] = value
                yield from rec(depth + 1, partial)
            partial.pop(name, None)

        yield from rec(0, {})

    # ------------------------------------------------------------------
    # feasibility
    # ------------------------------------------------------------------
    def is_feasible(self, configuration: Mapping[str, Any]) -> bool:
        """Check the known constraints (hidden constraints are *not* checked here)."""
        for param in self.parameters:
            if param.name not in configuration:
                raise KeyError(f"configuration is missing parameter {param.name!r}")
            if not param.contains(configuration[param.name]):
                return False
        if self.chain_of_trees is not None:
            if not self.chain_of_trees.contains(configuration):
                return False
            for constraint in self._residual_constraints:
                if not constraint.evaluate(configuration):
                    return False
            return True
        for constraint in self.constraints:
            if not constraint.evaluate(configuration):
                return False
        return True

    # ------------------------------------------------------------------
    # vectorized candidate-generation caches
    # ------------------------------------------------------------------
    def _covered_names(self) -> set[str]:
        if self.chain_of_trees is None:
            return set()
        return set(self.chain_of_trees.parameter_names)

    def _tree_tables(self) -> list[tuple[Tree, dict[str, np.ndarray], dict[str, np.ndarray]]]:
        """Per tree: (tree, leaf codes, encoded leaf blocks), cached.

        Per tree parameter, every leaf's value code in the parameter's value
        table and the encodings gathered from the table by those codes.  The
        leaf matrices turn one feasible draw into a single ``np.take`` per
        parameter instead of a per-level walk with one weighted
        ``rng.choice`` per tree depth.  No raw leaf column is kept: a tree
        captures every constraint of its co-dependent group, so no residual
        constraint reads a tree parameter.
        """
        tables = self._vector_caches.get("tree_tables")
        if tables is None:
            tables = []
            if self.chain_of_trees is not None:
                for tree in self.chain_of_trees.trees:
                    codes, encoded = {}, {}
                    for level, param in enumerate(tree.parameters):
                        table = self.encoder.table(param.name)
                        index = table.index
                        codes[param.name] = column = np.array(
                            [index[leaf[level]] for leaf in tree.leaf_values], dtype=np.intp
                        )
                        encoded[param.name] = table.encoded[column]
                    tables.append((tree, codes, encoded))
            self._vector_caches["tree_tables"] = tables
        return tables

    def _draw_tables(self) -> tuple[list[tuple], set[str]]:
        """How ``sample_rows`` draws the free parameters, cached.

        Per free parameter (not covered by a tree), in space order:
        ``(param, columns, raw, encoded)``.  An ordinal, a categorical and
        any parameter :meth:`_narrowed_values` narrows draws from a table:
        ``raw`` and ``encoded`` are the rows of its value table
        (:meth:`ConfigEncoder.table`) for its (surviving) values, so a draw
        is ``rng.integers(len(raw), size=n)`` and two gathers: the values
        and the generator state of ``sample_batch``, without rebuilding and
        re-encoding the table per call.  Reals, integers that are not
        narrowed and permutations have ``raw = encoded = None`` and keep
        ``sample_batch``.  Also returns the residual constraints'
        variables, whose raw columns the residual mask reads.  The build
        depends only on the space and is published by one assignment, so
        racing builds are harmless.
        """
        tables = self._vector_caches.get("draw_tables")
        if tables is None:
            covered = self._covered_names()
            narrowed = self._narrowed_values()
            free = []
            for param in self.parameters:
                if param.name in covered:
                    continue
                raw = encoded = None
                values = narrowed.get(param.name)
                if values is not None or isinstance(param, (OrdinalParameter, CategoricalParameter)):
                    table = self.encoder.table(param.name)
                    raw, encoded = table.raw, table.encoded
                    if values is not None:
                        codes = np.array([table.index[v] for v in values], dtype=np.intp)
                        raw, encoded = raw[codes], encoded[codes]
                free.append((param, self.encoder.columns(param.name), raw, encoded))
            residual_vars: set[str] = set()
            for constraint, _ in self._compiled_residuals():
                residual_vars |= constraint.variables
            tables = (free, residual_vars)
            self._vector_caches["draw_tables"] = tables
        return tables

    def _compiled_residuals(self) -> list:
        """``(constraint, compiled column evaluator)`` per residual constraint, cached."""
        evaluators = self._vector_caches.get("compiled_residual")
        if evaluators is None:
            evaluators = [
                (constraint, compile_column_evaluator(constraint))
                for constraint in self._residual_constraints
            ]
            self._vector_caches["compiled_residual"] = evaluators
        return evaluators

    @staticmethod
    def _env_column(column: np.ndarray) -> np.ndarray:
        """Constraint-env view of a column (permutation matrices to tuples)."""
        if column.ndim == 2:
            env = np.empty(len(column), dtype=object)
            env[:] = [tuple(int(v) for v in row) for row in column]
            return env
        return column

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def sample(
        self,
        rng: np.random.Generator,
        n_samples: int = 1,
        biased_cot: bool = False,
        max_rejection_rounds: int = 10_000,
    ) -> list[Configuration]:
        """Draw ``n_samples`` feasible configurations.

        Thin dict boundary over :meth:`sample_rows`: the draw itself happens
        entirely in row space (leaf-matrix CoT draws, batched parameter
        sampling, compiled residual constraints) and each accepted row is
        decoded once.  The feasible distribution matches the historical
        per-configuration scalar loop, which the test suite keeps as its
        oracle; the RNG consumption order is the vectorized scheme's.
        """
        rows = self.sample_rows(
            rng,
            n_samples,
            biased_cot=biased_cot,
            max_rejection_rounds=max_rejection_rounds,
        )
        decode = self.encoder.decode
        return [decode(row) for row in rows]

    def sample_rows(
        self,
        rng: np.random.Generator,
        n_samples: int = 1,
        biased_cot: bool = False,
        max_rejection_rounds: int = 10_000,
    ) -> np.ndarray:
        """Draw ``n_samples`` feasible configurations as encoded rows.

        One vectorized pass per rejection round: every tree contributes a
        leaf-matrix gather, every free parameter one batched draw (a gather
        from its draw table, :meth:`_draw_tables`, or its ``sample_batch``),
        and the residual constraints are evaluated by their compiled column
        evaluators.  Returns an ``(n_samples, width)`` float matrix in the
        shared :class:`~repro.space.encoding.ConfigEncoder` layout.

        A free parameter whose values unary residual constraints narrow
        (:meth:`_narrowed_values`) draws from the surviving values, and the
        residual mask still filters last.  Narrowing only removes values in
        *no* feasible configuration, so the accepted rows are distributed as
        under plain rejection; far fewer draws are rejected.
        """
        if n_samples < 0:
            raise ValueError("n_samples must be non-negative")
        encoder = self.encoder
        tree_tables = self._tree_tables()
        free, residual_vars = self._draw_tables()
        residuals = self._compiled_residuals()

        collected: list[np.ndarray] = []
        constraint_passed = [0] * len(residuals)
        accepted = 0
        drawn = 0
        rounds = 0
        budget = max_rejection_rounds * max(1, n_samples)
        while accepted < n_samples:
            need = n_samples - accepted
            if drawn >= budget:
                stats = self._record_sample_stats(
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
            for param, columns, raw, encoded in free:
                if raw is None:
                    column = param.sample_batch(rng, need)
                    rows[:, columns] = encoder.encode_value_column(param.name, column)
                elif len(raw):
                    indices = rng.integers(len(raw), size=need)
                    rows[:, columns] = encoded[indices]
                    column = raw[indices]
                else:
                    raise ValueError(f"empty domain for parameter {param.name!r}")
                if param.name in residual_vars:
                    env[param.name] = self._env_column(np.asarray(column))
            if residuals:
                mask = np.ones(need, dtype=bool)
                for slot, (_, evaluator) in enumerate(residuals):
                    passed = np.asarray(evaluator(env), dtype=bool)
                    constraint_passed[slot] += int(passed.sum())
                    mask &= passed
                rows = rows[mask]
            collected.append(rows)
            accepted += len(rows)
        self._record_sample_stats(
            n_samples, accepted, drawn, rounds, residuals, constraint_passed
        )
        if not collected:
            return np.empty((0, encoder.width), dtype=float)
        return np.vstack(collected)[:n_samples]

    def _record_sample_stats(
        self,
        requested: int,
        accepted: int,
        drawn: int,
        rounds: int,
        residuals: list,
        constraint_passed: list[int],
    ) -> dict[str, Any]:
        """Store a ``sample_rows`` run's diagnostics and return them (a call
        on another thread may replace :attr:`last_sample_stats` first)."""
        trees = []
        if self.chain_of_trees is not None:
            trees = [
                {"parameters": list(tree.parameter_names), "leaves": tree.n_feasible}
                for tree in self.chain_of_trees.trees
            ]
        stats = {
            "requested": requested,
            "accepted": accepted,
            "drawn": drawn,
            "rounds": rounds,
            "acceptance_rate": accepted / drawn if drawn else float("nan"),
            "constraints": [
                {
                    "name": constraint.name,
                    "passed": passed,
                    "rate": passed / drawn if drawn else float("nan"),
                }
                for (constraint, _), passed in zip(residuals, constraint_passed)
            ],
            "trees": trees,
        }
        self.last_sample_stats = stats
        return stats

    def sample_one(self, rng: np.random.Generator, biased_cot: bool = False) -> Configuration:
        return self.sample(rng, 1, biased_cot=biased_cot)[0]

    def first_unseen(
        self,
        rng: np.random.Generator,
        n: int,
        seen: "set[tuple] | frozenset[tuple]",
        biased_cot: bool = False,
    ) -> Configuration | None:
        """The first of one ``n``-row :meth:`sample_rows` draw whose key is
        not in ``seen``, decoded; ``None`` when every drawn key is in it."""
        decode = self.encoder.decode
        for row in self.sample_rows(rng, n, biased_cot=biased_cot):
            config = decode(row)
            if self.freeze(config) not in seen:
                return config
        return None

    def default_configuration(self) -> Configuration:
        """The per-parameter defaults (may be infeasible for constrained spaces)."""
        config: Configuration = {}
        for p in self.parameters:
            default = getattr(p, "default", None)
            config[p.name] = default if default is not None else p.values_list()[0]
        return config

    # ------------------------------------------------------------------
    # neighbourhoods
    # ------------------------------------------------------------------
    def neighbour_rows_batch(
        self, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Feasible one-parameter-change neighbourhoods of several rows at once.

        This is the neighbourhood of BaCO's multi-start local search
        (Sec. 3.3).  Returns ``(neighbour_rows, owners)`` where ``owners[j]``
        is the index of the input row that neighbour ``j`` belongs to; within
        one owner the neighbours are parameter-major.  A parameter a
        Chain-of-Trees tree covers moves only to the values feasible given
        the rest of its tree (no moves are wasted on infeasible
        configurations); any other parameter moves to its
        ``Parameter.neighbours``.  The moves are looked up in
        :class:`~repro.space.neighbourhood.NeighbourTables`, built on the
        first call, and feasibility is one compiled-residual mask.

        Rows must be legal: a discrete or permutation block that encodes no
        value of its parameter raises :class:`ValueError` naming it.
        """
        tables = self._vector_caches.get("neighbour_tables")
        if tables is None:
            tables = self._vector_caches["neighbour_tables"] = NeighbourTables(self)
        return tables.neighbours(rows)

    # ------------------------------------------------------------------
    # encodings
    # ------------------------------------------------------------------
    @cached_property
    def encoder(self) -> ConfigEncoder:
        """The fixed-width numeric encoder shared by every model layer."""
        return ConfigEncoder(self.parameters)

    def encode(self, configuration: Mapping[str, Any]) -> np.ndarray:
        """Flat numeric encoding of a configuration (one encoder row)."""
        return self.encoder.encode(configuration)

    def encode_batch(self, configurations: Sequence[Mapping[str, Any]]) -> np.ndarray:
        """Encode a batch of configurations as an ``(n, width)`` float matrix."""
        return self.encoder.encode_batch(configurations)

    def freeze(self, configuration: Mapping[str, Any]) -> tuple:
        """Hashable key for a configuration (used for de-duplication)."""
        return freeze_configuration(configuration, self.parameter_names)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def parameter_type_codes(self) -> str:
        """Short type summary like "O/C/P" used in Table 3."""
        codes = []
        for param in self.parameters:
            if param.type_code not in codes:
                codes.append(param.type_code)
        order = {"R": 0, "I": 1, "O": 2, "C": 3, "P": 4}
        return "/".join(sorted(codes, key=lambda c: order.get(c, 9)))

    def describe(self) -> dict[str, Any]:
        """Summary statistics in the spirit of Table 3."""
        return {
            "dimension": self.dimension,
            "types": self.parameter_type_codes(),
            "dense_size": self.dense_size(),
            "feasible_size": self.feasible_size(),
            "n_known_constraints": len(self.constraints),
        }


def _rejection_failure_message(stats: Mapping[str, Any]) -> str:
    """Rich diagnostics for an exhausted rejection budget.

    Keeps the historical first line (callers and tests match on it) and
    appends the measured acceptance rate, the rounds attempted, the
    per-residual-constraint pass rates, and the per-tree leaf counts so a
    too-sparse space can be diagnosed from the error alone.
    """
    lines = [
        "rejection sampling failed to find feasible configurations; "
        "the feasible region may be too sparse.",
        f"  requested {stats['requested']} samples, accepted "
        f"{stats['accepted']} of {stats['drawn']} draws "
        f"(acceptance rate {stats['acceptance_rate']:.3g}) "
        f"over {stats['rounds']} rounds",
    ]
    for entry in stats["constraints"]:
        lines.append(
            f"  residual constraint {entry['name']!r}: "
            f"{entry['passed']} passed (rate {entry['rate']:.3g})"
        )
    for entry in stats["trees"]:
        lines.append(
            f"  tree over {entry['parameters']}: {entry['leaves']} feasible "
            "leaves (tree draws are always feasible by construction)"
        )
    return "\n".join(lines)

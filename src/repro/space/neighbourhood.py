"""Feasible one-parameter-change neighbourhoods by table lookup.

BaCO maximises its acquisition function by hill-climbing over the feasible
configurations that differ from the current one in a single parameter
(Sec. 3.3), with the Chain-of-Trees supplying the feasible moves of every
parameter it covers (Sec. 4.2).  :class:`NeighbourTables` holds, for one
:class:`~repro.space.space.SearchSpace`, everything those moves need that
does not depend on the row, as flat arrays plus offsets:

* **Trees.**  A map from a row's encoded tree columns to its leaf, and per
  level the leaves grouped by their values at the other levels, each group
  in domain order.  A leaf's moves at a level are its group minus itself:
  two runs of one flat encoding array, which is ``Tree.feasible_values``
  minus the current value.  A legal row whose projection is no leaf still
  moves to ``Tree.feasible_values``, read from the tree.
* **Free ordinals and categoricals.**  Per value code, the runs of
  ``[v for v in param.neighbours(value) if param.contains(v)]``.
* **Free permutations.**  The adjacent swaps of the row's own block, so
  nothing is enumerated and ``n`` may exceed 8.
* **Integers and reals.**  ``Parameter.neighbours`` of the decoded value,
  per row; reals keep ``math.log`` / ``math.exp`` per element, so their
  bits are those of the scalar path.

A call makes one Python pass over its rows that only looks codes up and
appends index ranges, then one ``rows[owners]`` gather, one scatter of the
looked-up encodings (and one of any computed per row) and the compiled
residual-constraint mask.  A climb step passes about three rows and gets
about sixty neighbours, so the per-row lookups cost less than one numpy
gather per parameter would.  The output is byte for byte that of the
per-row oracle ``neighbour_rows_reference`` in ``tests/oracles.py``:
owner-major, then ``space.parameters`` order, then candidate order.

Rows must be legal: a discrete or permutation block that encodes no value
of its parameter raises :class:`ValueError` naming the parameter; no
value is projected to a nearest legal one.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from .encoding import _MATH_EXP, ValueTable
from .parameters import (
    IntegerParameter,
    Parameter,
    PermutationParameter,
    RealParameter,
)

if TYPE_CHECKING:
    from .space import SearchSpace

__all__ = ["NeighbourTables"]


def _illegal(name: str, index: int) -> ValueError:
    return ValueError(f"row {index} does not encode a legal value of parameter {name!r}")


class _Batch:
    """What one call collects, row by row, before it builds the output.

    ``src`` / ``dest`` pair positions of the tables' flat encoding array
    with flat positions of the output; ``values`` / ``value_dest`` carry
    encodings computed for this call.  ``size`` counts output rows so far.
    """

    __slots__ = ("width", "size", "src", "dest", "values", "value_dest", "current", "moved")

    def __init__(self, width: int) -> None:
        self.width = width
        self.size = 0
        self.src: list[int] = []
        self.dest: list[int] = []
        self.values: list[float] = []
        self.value_dest: list[int] = []
        #: per formula slot: the decoded value of every input row
        self.current: dict[str, Any] = {}
        #: per formula slot read by a residual constraint: (rows, raw values)
        self.moved: dict[str, tuple[list[int], list[Any]]] = {}

    def add_runs(self, runs: tuple[int, ...], column: int, width: int) -> None:
        """Append the table entries ``runs[0]:runs[1]``, ``runs[2]:runs[3]``,
        ... as moves of the parameter whose block starts at ``column``."""
        src = self.src
        count = 0
        for k in range(0, len(runs), 2):
            src.extend(range(runs[k], runs[k + 1]))
            count += runs[k + 1] - runs[k]
        self.add_rows(count // width, column, width, self.dest)

    def add_values(self, values: Sequence[float], column: int, width: int) -> None:
        """Append moves given by their encodings, ``width`` values each."""
        self.values.extend(values)
        self.add_rows(len(values) // width, column, width, self.value_dest)

    def add_rows(self, count: int, column: int, width: int, dest: list[int]) -> None:
        """Append the output positions of ``count`` moves of one parameter."""
        stride = self.width
        row = self.size
        if width == 1:
            dest.extend(range(row * stride + column, (row + count) * stride + column, stride))
        else:
            for r in range(row * stride + column, (row + count) * stride + column, stride):
                dest.extend(range(r, r + width))
        self.size = row + count


class _FlatArray:
    """Float blocks appended into one flat array; ``add`` returns the offset."""

    def __init__(self) -> None:
        self.chunks: list[np.ndarray] = []
        self.size = 0

    def add(self, block: np.ndarray) -> int:
        offset = self.size
        flat = np.ascontiguousarray(block, dtype=float).reshape(-1)
        self.chunks.append(flat)
        self.size += len(flat)
        return offset

    def build(self) -> np.ndarray:
        return np.concatenate(self.chunks) if self.chunks else np.empty(0)


class _Slot:
    """One parameter's moves.  ``add`` appends a row's moves to a batch,
    given ``trees``, each tree's :meth:`_Tree.lookup` of the row; ``env``
    returns the parameter's raw column over the output rows, as the
    compiled residual constraints read it."""

    def __init__(self, param: Parameter, columns: slice) -> None:
        self.param = param
        self.name = param.name
        self.column = columns.start
        self.width = columns.stop - columns.start

    def add(self, batch: _Batch, row: list[float], index: int, trees: list) -> None:
        raise NotImplementedError

    def env(self, out: np.ndarray, owners: np.ndarray, batch: _Batch) -> np.ndarray:
        raise NotImplementedError


class _Coded(_Slot):
    """A discrete parameter read through its encoder value table: values
    in domain order, their raw column, encodings and codes."""

    def __init__(self, param: Parameter, columns: slice, table: ValueTable) -> None:
        super().__init__(param, columns)
        self.table = table
        self.code_of = table.code_of

    def code(self, row: list[float], index: int) -> int:
        column, width = self.column, self.width
        code = self.code_of.get(row[column] if width == 1 else tuple(row[column : column + width]))
        if code is None:
            raise _illegal(self.name, index)
        return code


class _Table(_Coded):
    """A free ordinal or categorical: per code, the runs of its moves."""

    def __init__(
        self, param: Parameter, columns: slice, table: ValueTable, flat: _FlatArray
    ) -> None:
        super().__init__(param, columns, table)
        base = flat.add(table.encoded)
        self.runs: list[tuple[int, ...]] = []
        for value in table.values:
            runs: list[int] = []
            for move in param.neighbours(value):
                if not param.contains(move):
                    continue
                entry = base + table.index[param.canonical(move)]
                if runs and runs[-1] == entry:
                    runs[-1] += 1
                else:
                    runs += [entry, entry + 1]
            self.runs.append(tuple(runs))

    def add(self, batch: _Batch, row: list[float], index: int, trees: list) -> None:
        code = self.code_of.get(row[self.column])
        if code is None:
            raise _illegal(self.name, index)
        batch.add_runs(self.runs[code], self.column, 1)

    def env(self, out: np.ndarray, owners: np.ndarray, batch: _Batch) -> np.ndarray:
        # ordinal and categorical encodings ascend with the code
        table = self.table
        return table.raw[np.searchsorted(table.encoded[:, 0], out[:, self.column])]


class _Tree:
    """A Chain-of-Trees tree: its leaf lookup and per-level group spans.

    ``leaf_of`` maps a row's encoded tree columns to its leaf, and
    ``spans[leaf, 3 * level : 3 * level + 3]`` holds the flat-array offsets
    of the leaf's group at that level: its start, the leaf's own entry and
    its stop.  ``leaf_codes`` and ``encoded`` are the space's tree table
    (``SearchSpace._tree_tables``).
    """

    def __init__(self, tree: Any, levels: list[_TreeLevel], leaf_codes: dict, encoded: dict,
                 flat: _FlatArray) -> None:
        self.levels = levels
        n = tree.n_feasible
        columns = [c for level in levels for c in range(level.column, level.column + level.width)]
        # the leaves' encoded tree columns, keyed as the getter keys a row:
        # a tuple, or the one float of a one-column tree
        self.key = itemgetter(*columns)
        keys = np.hstack([encoded[level.name] for level in levels]).tolist()
        keys = [key[0] for key in keys] if len(columns) == 1 else map(tuple, keys)
        self.leaf_of = {key: leaf for leaf, key in enumerate(keys)}
        codes = np.stack([leaf_codes[level.name] for level in levels])
        self.spans = np.empty((n, 3 * len(levels)), dtype=np.int64)
        for k, level in enumerate(levels):
            others = [codes[m] for m in range(len(levels)) if m != k]
            # groups share the other levels' codes; a group lists its
            # leaves in domain order, as Tree.feasible_values does
            order = np.lexsort((codes[k], *others[::-1]))
            new_group = np.ones(n, dtype=bool)
            if others:
                sorted_others = np.stack(others)[:, order]
                new_group[1:] = (sorted_others[:, 1:] != sorted_others[:, :-1]).any(axis=0)
            else:
                new_group[1:] = False
            starts = np.flatnonzero(new_group)
            group = np.cumsum(new_group) - 1
            stops = np.append(starts[1:], n)
            base = flat.add(encoded[level.name][order])
            own = np.empty(n, dtype=np.int64)
            own[order] = np.arange(n)
            w = level.width
            self.spans[:, 3 * k] = base + w * starts[group[own]]
            self.spans[:, 3 * k + 1] = base + w * own
            self.spans[:, 3 * k + 2] = base + w * stops[group[own]]

    def lookup(self, row: list[float], index: int) -> list[int] | dict[str, Any]:
        """The row's leaf spans, or, for a legal row whose projection is no
        leaf, its configuration over this tree's parameters."""
        leaf = self.leaf_of.get(self.key(row))
        if leaf is not None:
            return self.spans[leaf].tolist()
        return {level.name: level.table.values[level.code(row, index)] for level in self.levels}


class _TreeLevel(_Coded):
    """A parameter a tree covers: its leaf group minus the leaf itself."""

    def __init__(self, param: Parameter, columns: slice, table: ValueTable, tree: Any,
                 tree_index: int) -> None:
        super().__init__(param, columns, table)
        self.tree = tree
        self.tree_index = tree_index
        self.level = tree.parameter_names.index(param.name)
        #: where the tree's leaf spans hold this level's (start, own, stop)
        self.span_columns = slice(3 * self.level, 3 * self.level + 3)

    def add(self, batch: _Batch, row: list[float], index: int, trees: list) -> None:
        spans = trees[self.tree_index]
        if isinstance(spans, dict):
            # the row is no leaf, so its own value completes none of these
            moves = self.tree.feasible_values(self.name, spans)
            batch.add_values(
                self.table.encoded[[self.table.index[v] for v in moves]].reshape(-1).tolist(),
                self.column,
                self.width,
            )
            return
        start, own, stop = spans[self.span_columns]
        batch.src.extend(range(start, own))
        batch.src.extend(range(own + self.width, stop))
        batch.add_rows((stop - start) // self.width - 1, self.column, self.width, batch.dest)


class _Swaps(_Slot):
    """A free permutation: the adjacent swaps of the row's block."""

    def __init__(self, param: PermutationParameter, columns: slice,
                 tuples: Callable[[np.ndarray], np.ndarray]) -> None:
        super().__init__(param, columns)
        n = self.width
        self.identity = [float(v) for v in range(n)]
        # the n - 1 swapped blocks, concatenated, as positions in the block
        swaps = []
        for i in range(n - 1):
            order = list(range(n))
            order[i], order[i + 1] = order[i + 1], order[i]
            swaps += order
        self.swapped = itemgetter(*swaps) if len(swaps) > 1 else None
        self._tuples = tuples

    def add(self, batch: _Batch, row: list[float], index: int, trees: list) -> None:
        block = row[self.column : self.column + self.width]
        if sorted(block) != self.identity:
            raise _illegal(self.name, index)
        if self.swapped is not None:
            # re-encoded from integers, as the scalar path encodes the tuples
            batch.add_values(self.swapped([int(v) for v in block]), self.column, self.width)

    def env(self, out: np.ndarray, owners: np.ndarray, batch: _Batch) -> np.ndarray:
        return self._tuples(out[:, self.column : self.column + self.width])


class _Formula(_Slot):
    """An integer or real: ``Parameter.neighbours`` of the decoded value."""

    def __init__(self, param: IntegerParameter | RealParameter, columns: slice,
                 residual: bool) -> None:
        super().__init__(param, columns)
        self.log = param.transform == "log"
        self.residual = residual

    def decode(self, rows: np.ndarray, batch: _Batch) -> None:
        param = self.param
        column = rows[:, self.column]
        if isinstance(param, IntegerParameter):
            raw = np.exp(column) if self.log else column
            current = np.clip(np.rint(raw), param.low, param.high)
        else:
            raw = _MATH_EXP(column).astype(float) if self.log else column.astype(float)
            current = np.clip(raw, param.low, param.high)
        batch.current[self.name] = current
        if self.residual:
            batch.moved[self.name] = ([], [])

    def encode(self, value: Any) -> float:
        return math.log(float(value)) if self.log else float(value)

    def add(self, batch: _Batch, row: list[float], index: int, trees: list) -> None:
        param = self.param
        current = float(batch.current[self.name][index])
        if isinstance(param, IntegerParameter) and self.encode(current) != row[self.column]:
            raise _illegal(self.name, index)
        # contains() drops e.g. a real neighbour whose exp(warp(high)) clamp
        # overshot the raw bound by one ulp
        moves = [v for v in param.neighbours(current) if param.contains(v)]
        if self.residual:
            rows, values = batch.moved[self.name]
            rows.extend(range(batch.size, batch.size + len(moves)))
            values.extend(moves)
        batch.add_values([self.encode(v) for v in moves], self.column, 1)

    def env(self, out: np.ndarray, owners: np.ndarray, batch: _Batch) -> np.ndarray:
        column = batch.current[self.name][owners]
        rows, values = batch.moved[self.name]
        if rows:
            column[rows] = values
        return column


class NeighbourTables:
    """The per-space tables behind ``SearchSpace.neighbour_rows_batch``.

    Built once, on the first call, and immutable afterwards, so threads
    that share a space may call :meth:`neighbours` concurrently.
    """

    def __init__(self, space: "SearchSpace") -> None:
        encoder = space.encoder
        self.width = encoder.width
        residuals = space._compiled_residuals()
        self._residuals = [evaluator for _, evaluator in residuals]
        residual_vars = set().union(*(constraint.variables for constraint, _ in residuals))
        tree_tables = space._tree_tables()
        tree_of = {
            name: t for t, (tree, _, _) in enumerate(tree_tables) for name in tree.parameter_names
        }
        flat = _FlatArray()
        self.slots: list[_Slot] = []
        for param in space.parameters:
            columns = encoder.columns(param.name)
            if param.name in tree_of:
                t = tree_of[param.name]
                slot: _Slot = _TreeLevel(
                    param, columns, encoder.table(param.name), tree_tables[t][0], t
                )
            elif isinstance(param, PermutationParameter):
                slot = _Swaps(param, columns, space._env_column)
            elif isinstance(param, (IntegerParameter, RealParameter)):
                slot = _Formula(param, columns, param.name in residual_vars)
            else:
                slot = _Table(param, columns, encoder.table(param.name), flat)
            self.slots.append(slot)
        by_name = {slot.name: slot for slot in self.slots}
        self.trees: list[_Tree] = []
        for tree, leaf_codes, encoded in tree_tables:
            levels = [by_name[name] for name in tree.parameter_names]
            self.trees.append(_Tree(tree, levels, leaf_codes, encoded, flat))
        self.source = flat.build()
        self._formulas = [slot for slot in self.slots if isinstance(slot, _Formula)]
        # residual constraints read free parameters only: a tree captures
        # every constraint of its co-dependent group
        self._env_slots = [slot for slot in self.slots if slot.name in residual_vars]

    def neighbours(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(neighbour_rows, owners)`` of legal encoded rows; see
        ``SearchSpace.neighbour_rows_batch``."""
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.width:
            raise ValueError(f"expected rows of width {self.width}, got {rows.shape}")
        batch = _Batch(self.width)
        for slot in self._formulas:
            slot.decode(rows, batch)
        counts: list[int] = []
        for index, row in enumerate(rows.tolist()):
            start = batch.size
            trees = [tree.lookup(row, index) for tree in self.trees]
            for slot in self.slots:
                slot.add(batch, row, index, trees)
            counts.append(batch.size - start)
        if not batch.size:
            return np.empty((0, self.width), dtype=float), np.empty(0, dtype=int)
        owners = np.repeat(np.arange(len(rows), dtype=int), counts)
        out = rows[owners]
        flat = out.reshape(-1)
        if batch.src:
            flat[batch.dest] = self.source[batch.src]
        if batch.values:
            flat[batch.value_dest] = np.asarray(batch.values, dtype=float)
        if self._residuals:
            env = {slot.name: slot.env(out, owners, batch) for slot in self._env_slots}
            mask = np.ones(len(out), dtype=bool)
            for evaluator in self._residuals:
                mask &= evaluator(env)
            out = out[mask]
            owners = owners[mask]
        return out, owners

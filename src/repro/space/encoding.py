"""Fixed-width numeric encoding of configurations (the tuner's hot-path layer).

Every model in the tuner — the GP surrogate, the random-forest feasibility
classifier, the RF surrogate of the Fig. 8 comparison — ultimately consumes a
*numeric* view of a configuration: warped reals/ints (``log`` where the
parameter says so, Sec. 4.1), category indices, and canonical permutation
tuples.  Historically each consumer re-derived those features from the raw
``Configuration`` dicts on every call, which put a Python loop inside every
distance computation and every acquisition evaluation.

:class:`ConfigEncoder` performs that derivation **once** per configuration,
producing a fixed-width ``float64`` row.  The column layout is:

* numeric parameters (real / integer / ordinal): one column holding the
  warped value (``log`` applied for ``transform="log"``),
* categorical parameters: one column holding the category index,
* permutation parameters: ``n_elements`` columns holding the canonical
  permutation tuple.

This is the one numeric view of a configuration below the tuner boundary:
the samplers build rows directly (:meth:`ConfigEncoder.encode_value_column`),
and the models fit, predict and score on them.  Rows round-trip:
:meth:`ConfigEncoder.decode` maps any encoded row back to a configuration
(nearest legal value per parameter, rank-projection for permutation blocks),
and ``decode(encode(c)) == c`` up to canonicalization for every parameter
type.
"""
# repro: hot-path — row-space module: per-row Python loops, .tolist(), and in-loop decode are flagged (see repro.analysis)

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from .parameters import (
    CategoricalParameter,
    IntegerParameter,
    NumericParameter,
    OrdinalParameter,
    Parameter,
    PermutationParameter,
    RealParameter,
)

__all__ = ["ColumnBlock", "ConfigEncoder"]

#: Elementwise ``math.log`` / ``math.exp``.  Deliberately NOT ``np.log`` /
#: ``np.exp``: vectorized libm kernels may differ from the scalar functions
#: in the last ulp, and the scalar ``Parameter._warp`` path defines the
#: canonical encoding.  ``frompyfunc`` keeps column code bit-identical to it.
_MATH_LOG = np.frompyfunc(math.log, 1, 1)
_MATH_EXP = np.frompyfunc(math.exp, 1, 1)


def _nearest_indices(sorted_table: np.ndarray, column: np.ndarray) -> np.ndarray:
    """Index of the nearest table entry per element (ties to the lower index,
    matching the scalar decode's ``argmin``)."""
    positions = np.searchsorted(sorted_table, column).clip(0, len(sorted_table) - 1)
    lower = (positions - 1).clip(0)
    take_lower = np.abs(sorted_table[lower] - column) <= np.abs(
        sorted_table[positions] - column
    )
    return np.where(take_lower, lower, positions)


@dataclass(frozen=True)
class ColumnBlock:
    """The columns of the encoded matrix owned by one parameter."""

    parameter: Parameter
    start: int
    width: int
    #: "numeric" | "categorical" | "permutation"
    kind: str

    @property
    def stop(self) -> int:
        return self.start + self.width

    @property
    def columns(self) -> slice:
        return slice(self.start, self.stop)


class ConfigEncoder:
    """Maps configurations to fixed-width float rows and back."""

    def __init__(self, parameters: Sequence[Parameter]) -> None:
        self.parameters: list[Parameter] = list(parameters)
        blocks: list[ColumnBlock] = []
        offset = 0
        for param in self.parameters:
            if isinstance(param, PermutationParameter):
                kind, width = "permutation", param.n_elements
            elif isinstance(param, CategoricalParameter):
                kind, width = "categorical", 1
            elif isinstance(param, NumericParameter):
                kind, width = "numeric", 1
            else:
                raise TypeError(
                    f"cannot encode parameter type {type(param).__name__}"
                )
            blocks.append(ColumnBlock(param, offset, width, kind))
            offset += width
        self.blocks: list[ColumnBlock] = blocks
        self.width: int = offset
        self._by_name = {b.parameter.name: b for b in blocks}
        # Per-block lookup tables for the vectorized column paths.  np.log is
        # not bitwise-identical to math.log on every libm, so discrete
        # parameters warp through tables built with the scalar ``_warp`` once;
        # column encodings are then exact ``np.take`` lookups that agree bit
        # for bit with :meth:`encode_batch`.
        self._ordinal_raw: dict[str, np.ndarray] = {}
        self._ordinal_warped: dict[str, np.ndarray] = {}
        for block in blocks:
            param = block.parameter
            if block.kind == "numeric" and isinstance(param, OrdinalParameter):
                self._ordinal_raw[param.name] = np.asarray(
                    [float(v) for v in param.values], dtype=float
                )
                self._ordinal_warped[param.name] = np.asarray(
                    [param._warp(v) for v in param.values], dtype=float
                )

    # ------------------------------------------------------------------
    def columns(self, name: str) -> slice:
        """Column slice owned by the named parameter."""
        return self._by_name[name].columns

    def signature(self) -> tuple:
        """Layout + warp identity: equal signatures produce equal encodings.

        Two encoders with the same signature map any configuration to the
        same row, so consumers (GP vs. feasibility model) can share one
        encoded matrix.
        """
        parts = []
        for block in self.blocks:
            transform = getattr(block.parameter, "transform", None)
            # categorical encoding depends on the category order too
            values = (
                tuple(block.parameter.values) if block.kind == "categorical" else None
            )
            parts.append(
                (block.parameter.name, block.kind, block.width, transform, values)
            )
        return tuple(parts)

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------
    def encode(self, configuration: Mapping[str, Any]) -> np.ndarray:
        """Encode one configuration as a ``(width,)`` float row."""
        return self.encode_batch([configuration])[0]

    def encode_batch(self, configurations: Sequence[Mapping[str, Any]]) -> np.ndarray:
        """Encode a batch of configurations as an ``(n, width)`` matrix.

        Values are extracted column-wise so per-parameter work (warping,
        category lookup) happens once per configuration, not once per use.
        The per-value warp deliberately goes through ``Parameter._warp``
        (scalar ``math.log``) so rows are bit-identical to the historical
        per-pair path.
        """
        n = len(configurations)
        out = np.empty((n, self.width), dtype=float)
        if n == 0:
            return out
        for block in self.blocks:
            name = block.parameter.name
            column = [cfg[name] for cfg in configurations]
            if block.kind == "numeric":
                warp = block.parameter._warp
                out[:, block.start] = [warp(v) for v in column]
            elif block.kind == "categorical":
                index_of = block.parameter.index_of
                out[:, block.start] = [index_of(v) for v in column]
            else:  # permutation
                out[:, block.columns] = np.asarray(
                    [block.parameter.canonical(v) for v in column], dtype=float
                )
        return out

    # ------------------------------------------------------------------
    # column (whole-batch) paths
    # ------------------------------------------------------------------
    def encode_value_column(self, name: str, values: Any) -> np.ndarray:
        """Encode one parameter's raw-value column as its ``(n, width)`` block.

        Values must be legal, canonical values of the parameter (the batch
        samplers and leaf caches guarantee this).  Discrete parameters encode
        through exact lookup tables, so the result is bit-identical to
        :meth:`encode_batch` of the corresponding configurations.
        """
        block = self._by_name[name]
        param = block.parameter
        if block.kind == "numeric":
            if name in self._ordinal_warped:
                indices = np.searchsorted(
                    self._ordinal_raw[name], np.asarray(values, dtype=float)
                )
                return self._ordinal_warped[name][indices][:, None]
            column = np.asarray(values, dtype=float)
            if getattr(param, "transform", "linear") == "log":
                column = _MATH_LOG(np.asarray(values)).astype(float)
            return column[:, None]
        if block.kind == "categorical":
            index_of = param.index_of
            return np.asarray([index_of(v) for v in values], dtype=float)[:, None]
        # permutation: accept an (n, k) matrix or a column of tuples
        if isinstance(values, np.ndarray) and values.ndim == 2:
            return values.astype(float)
        return np.asarray([tuple(v) for v in values], dtype=float)

    def value_columns(self, rows: np.ndarray) -> dict[str, np.ndarray]:
        """Exact raw values of every parameter as per-parameter columns.

        The vectorized counterpart of :meth:`decode` for *legal* encoded rows:
        numeric parameters come back as float columns of raw (unwarped)
        values, categorical parameters as object columns of category values,
        permutations as object columns of tuples.  Like ``decode``, arbitrary
        rows are projected to the nearest legal value per parameter.
        """
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.width:
            raise ValueError(f"expected rows of width {self.width}, got {rows.shape}")
        columns: dict[str, np.ndarray] = {}
        for block in self.blocks:
            param = block.parameter
            name = param.name
            if block.kind == "numeric":
                column = rows[:, block.start]
                if name in self._ordinal_warped:
                    columns[name] = self._ordinal_raw[name][
                        _nearest_indices(self._ordinal_warped[name], column)
                    ]
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

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------
    def decode(self, row: Sequence[float]) -> dict[str, Any]:
        """Map an encoded row back to a configuration.

        Exact inverse on encoded rows; arbitrary rows are projected to the
        nearest legal value per parameter (nearest warped value for
        numerics, nearest index for categoricals, rank projection for
        permutation blocks).
        """
        row = np.asarray(row, dtype=float)
        if row.shape != (self.width,):
            raise ValueError(
                f"expected a row of width {self.width}, got shape {row.shape}"
            )
        config: dict[str, Any] = {}
        for block in self.blocks:
            param = block.parameter
            if block.kind == "numeric":
                config[param.name] = _decode_numeric(param, float(row[block.start]))
            elif block.kind == "categorical":
                idx = int(round(float(row[block.start])))
                idx = min(max(idx, 0), len(param.values) - 1)
                config[param.name] = param.values[idx]
            else:
                config[param.name] = _decode_permutation(param, row[block.columns])
        return config

    def decode_batch(self, rows: np.ndarray) -> list[dict[str, Any]]:
        return [self.decode(row) for row in np.asarray(rows, dtype=float)]


def _decode_numeric(param: NumericParameter, value: float) -> Any:
    if isinstance(param, OrdinalParameter):
        warped = np.array([param._warp(v) for v in param.values])
        return param.values[int(np.argmin(np.abs(warped - value)))]
    raw = math.exp(value) if param.transform == "log" else value
    if isinstance(param, IntegerParameter):
        return int(min(max(round(raw), param.low), param.high))
    if isinstance(param, RealParameter):
        return float(min(max(raw, param.low), param.high))
    return float(raw)


def _decode_permutation(param: PermutationParameter, values: np.ndarray) -> tuple[int, ...]:
    rounded = [int(round(v)) for v in values]
    if sorted(rounded) == list(range(param.n_elements)):
        return tuple(rounded)
    # Not a valid permutation: project by rank (stable, ties by position).
    ranks = np.argsort(np.argsort(values, kind="stable"), kind="stable")
    return tuple(int(r) for r in ranks)

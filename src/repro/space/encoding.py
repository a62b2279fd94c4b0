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

Each discrete parameter has one :class:`ValueTable` (:meth:`ConfigEncoder.table`,
built on first use), which the sampler, the climb and the decoder read.  The
table's encodings are the block's *value catalogue* (:meth:`ConfigEncoder.catalogue`)
for an ordinal or categorical parameter or a permutation of at most five elements.
:meth:`ConfigEncoder.value_codes` maps a row matrix to each block's
catalogue index in one vectorised search, so a model can tabulate what it
computes per value once and gather it by code.
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

__all__ = ["ColumnBlock", "ConfigEncoder", "ValueTable"]

#: Elementwise ``math.log`` / ``math.exp``.  Deliberately NOT ``np.log`` /
#: ``np.exp``: vectorized libm kernels may differ from the scalar functions
#: in the last ulp, and the scalar ``Parameter._warp`` path defines the
#: canonical encoding.  ``frompyfunc`` keeps column code bit-identical to it.
_MATH_LOG = np.frompyfunc(math.log, 1, 1)
_MATH_EXP = np.frompyfunc(math.exp, 1, 1)

#: permutations of at most this many elements are catalogued (5! = 120 values)
_MAX_CATALOGUED_ELEMENTS = 5


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


@dataclass(frozen=True)
class ValueTable:
    """A discrete parameter's ``values_list()``; a value's *code* is its index.

    ``raw`` is the column residual constraints read (float for numbers,
    object for categories and permutation tuples), ``encoded`` the
    ``(V, width)`` encodings with the bits of :meth:`ConfigEncoder.encode_batch`,
    ``index`` maps a value to its code and ``code_of`` a block's key (its
    float, or its floats' tuple) to its code: no two values share a key,
    as a numeric parameter rejects values whose warps tie.  The arrays are
    read-only.
    """

    values: tuple
    raw: np.ndarray
    encoded: np.ndarray
    index: dict[Any, int]
    code_of: dict[Any, int]


def _value_table(param: Parameter) -> ValueTable:
    values = tuple(param.values_list())
    if isinstance(param, PermutationParameter):
        encodings = [tuple(map(float, value)) for value in values]
    elif isinstance(param, CategoricalParameter):
        encodings = [(float(code),) for code in range(len(values))]
    else:  # the scalar warp: np.log may differ from math.log in the last ulp
        encodings = [(param._warp(value),) for value in values]
    raw = np.empty(len(values), dtype=float if isinstance(param, NumericParameter) else object)
    raw[:] = values
    encoded = np.array(encodings, dtype=float)
    raw.flags.writeable = encoded.flags.writeable = False
    keys = encodings if encoded.shape[1] > 1 else [key for (key,) in encodings]
    index = {value: code for code, value in enumerate(values)}
    code_of = dict(zip(keys, range(len(values))))
    return ValueTable(values, raw, encoded, index, code_of)


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
        self._signature = tuple(
            (
                block.parameter.name,
                block.kind,
                block.width,
                getattr(block.parameter, "transform", None),
                # categorical encoding depends on the category order too
                tuple(block.parameter.values) if block.kind == "categorical" else None,
            )
            for block in blocks
        )
        self._by_name = {b.parameter.name: b for b in blocks}
        # built on first use and published by one assignment each, so
        # threads sharing the encoder may race to build them harmlessly
        self._tables: dict[str, ValueTable] = {}
        #: the ordinals' tables, filled at the first decode
        self._ordinal_tables: dict[str, ValueTable] | None = None
        self._catalogue: _ValueCatalogue | None = None

    # ------------------------------------------------------------------
    def columns(self, name: str) -> slice:
        """Column slice owned by the named parameter."""
        return self._by_name[name].columns

    def table(self, name: str) -> ValueTable:
        """The named discrete parameter's :class:`ValueTable`, built on first use."""
        table = self._tables.get(name)
        if table is None:
            table = self._tables[name] = _value_table(self._by_name[name].parameter)
        return table

    def signature(self) -> tuple:
        """Layout + warp identity: equal signatures produce equal encodings.

        Two encoders with the same signature map any configuration to the
        same row, so consumers (GP vs. feasibility model) can share one
        encoded matrix.  Built once with the encoder, whose blocks are fixed.
        """
        return self._signature

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
        samplers and leaf caches guarantee this).  An ordinal encodes
        through its value table, so the result is bit-identical to
        :meth:`encode_batch` of the corresponding configurations.
        """
        block = self._by_name[name]
        param = block.parameter
        if block.kind == "numeric":
            if isinstance(param, OrdinalParameter):
                table = self.table(name)
                return table.encoded[np.searchsorted(table.raw, np.asarray(values, dtype=float))]
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

    # ------------------------------------------------------------------
    # value catalogues
    # ------------------------------------------------------------------
    def _value_catalogue(self) -> "_ValueCatalogue":
        if self._catalogue is None:
            self._catalogue = _ValueCatalogue(self)
        return self._catalogue

    def catalogue(self, index: int) -> np.ndarray | None:
        """The encodings of block ``index``'s legal values, ``(V, width)``,
        in code order; ``None`` for an integer, real or longer permutation
        block, which has no catalogue."""
        return self._value_catalogue().catalogues[index]

    def value_codes(self, rows: np.ndarray) -> np.ndarray:
        """Each row's value code in every block, ``(len(blocks), len(rows))``.

        A code indexes the concatenation of the blocks' catalogues, in block
        order; the row of that concatenation equals the row's block exactly.
        It is -1 where none does: a block without a catalogue, an illegal
        value, NaN.  ``rows`` must be a float matrix of the encoder's width.
        """
        return self._value_catalogue().codes(rows)

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------
    def decode(self, row: Sequence[float]) -> dict[str, Any]:
        """Map an encoded row back to a configuration.

        Exact inverse on encoded rows; arbitrary rows are projected to the
        nearest legal value per parameter (nearest warped value for
        numerics, nearest index for categoricals, rank projection for
        permutation blocks).  A value that cannot be converted raises a
        ``ValueError`` naming the parameter and the value: NaN outside an
        ordinal, and a value whose conversion to an integer overflows.  A
        real clamps ±inf, and a log warp whose ``exp`` overflows, to its
        bounds; an ordinal projects NaN and ±inf to its first value.
        """
        row = np.asarray(row, dtype=float)
        if row.shape != (self.width,):
            raise ValueError(
                f"expected a row of width {self.width}, got shape {row.shape}"
            )
        ordinals = self._ordinal_tables
        if ordinals is None:
            ordinals = self._ordinal_tables = {
                b.parameter.name: self.table(b.parameter.name)
                for b in self.blocks
                if isinstance(b.parameter, OrdinalParameter)
            }
        config: dict[str, Any] = {}
        for block in self.blocks:
            param = block.parameter
            try:  # a conversion that fails is the error; a legal row pays nothing
                if block.kind == "numeric":
                    value = float(row[block.start])
                    table = ordinals.get(param.name)
                    if table is None:
                        config[param.name] = _decode_numeric(param, value)
                    else:
                        code = table.code_of.get(value)
                        if code is None:  # the nearest warp; NaN and ±inf give the first
                            code = int(np.argmin(np.abs(table.encoded[:, 0] - value)))
                        config[param.name] = table.values[code]
                elif block.kind == "categorical":
                    idx = int(round(float(row[block.start])))
                    idx = min(max(idx, 0), len(param.values) - 1)
                    config[param.name] = param.values[idx]
                else:
                    config[param.name] = _decode_permutation(param, row[block.columns])
            except (ValueError, OverflowError):
                shown = row[block.start] if block.width == 1 else row[block.columns]
                raise ValueError(
                    f"cannot decode parameter {param.name!r} from {shown}"
                ) from None
        return config

    def decode_batch(self, rows: np.ndarray) -> list[dict[str, Any]]:
        return [self.decode(row) for row in np.asarray(rows, dtype=float)]


class _ValueCatalogue:
    """The blocks' catalogues, and one sorted search over all of them.

    Each catalogued value has a key: its encoding for a one-column block,
    ``Σ xⱼ·nⁿ⁻¹⁻ʲ`` for a permutation of ``n`` elements (distinct exact
    integers over the catalogue).  Keys live in one complex array, the
    real part the block index and the imaginary part the key, which numpy
    sorts and searches lexicographically; a row's query is built the same
    way (NaN real parts for blocks without a catalogue, which sort after
    every key), so one ``searchsorted`` finds every block's candidate code,
    and an equality check, of the whole block for a permutation, confirms
    it.  A value the search cannot find is only computed directly.
    """

    def __init__(self, encoder: ConfigEncoder) -> None:
        blocks = encoder.blocks
        # value-table encodings, in ascending key order: ordinal values
        # ascend, and permutations are listed lexicographically
        self.catalogues = [
            encoder.table(b.parameter.name).encoded
            if isinstance(b.parameter, (OrdinalParameter, CategoricalParameter))
            or (b.kind == "permutation" and b.width <= _MAX_CATALOGUED_ELEMENTS)
            else None
            for b in blocks
        ]
        offsets = np.cumsum([0] + [0 if c is None else len(c) for c in self.catalogues])
        keys = [np.empty(0, dtype=complex)]
        #: (block index, its columns, key weights, its values at every code)
        self.permutations: list[tuple[int, slice, np.ndarray, np.ndarray]] = []
        for index, (block, values) in enumerate(zip(blocks, self.catalogues)):
            if values is None:
                continue
            if block.kind == "permutation":
                weights = float(block.width) ** np.arange(block.width - 1, -1, -1)
                at_codes = np.zeros((offsets[-1], block.width))
                at_codes[offsets[index] : offsets[index + 1]] = values
                self.permutations.append((index, block.columns, weights, at_codes))
                keys.append(index + 1j * (values @ weights))
            else:
                keys.append(index + 1j * values[:, 0])
        self.keys = np.concatenate(keys)
        self.ids = np.array([[np.nan if c is None else i] for i, c in enumerate(self.catalogues)])
        self.single = np.array([i for i, b in enumerate(blocks) if b.width == 1], dtype=np.intp)
        self.single_columns = np.array([blocks[i].start for i in self.single], dtype=np.intp)

    def codes(self, rows: np.ndarray) -> np.ndarray:
        query = np.zeros((len(self.catalogues), len(rows)), dtype=complex)
        if not len(self.keys):
            return np.full(query.shape, -1, dtype=np.intp)
        query.real = self.ids
        query.imag[self.single] = rows[:, self.single_columns].T
        for index, columns, weights, _ in self.permutations:
            query.imag[index] = rows[:, columns] @ weights
        codes = np.searchsorted(self.keys, query)
        np.minimum(codes, len(self.keys) - 1, out=codes)
        hit = self.keys[codes] == query
        for index, columns, _, at_codes in self.permutations:
            hit[index] &= (at_codes[codes[index]] == rows[:, columns]).all(axis=1)
        return np.where(hit, codes, -1)


def _decode_numeric(param: NumericParameter, value: float) -> Any:
    """An integer or real value from its encoding (ordinals decode by table).
    A log warp whose ``exp`` overflows reads as ``+inf``."""
    raw = value
    if param.transform == "log":
        try:
            raw = math.exp(value)
        except OverflowError:
            raw = math.inf
    if isinstance(param, IntegerParameter):
        return int(min(max(round(raw), param.low), param.high))
    if isinstance(param, RealParameter):
        if raw != raw:
            raise ValueError("NaN has no nearest real value")
        return float(min(max(raw, param.low), param.high))
    return float(raw)


def _decode_permutation(param: PermutationParameter, values: np.ndarray) -> tuple[int, ...]:
    rounded = [int(round(v)) for v in values]
    if sorted(rounded) == list(range(param.n_elements)):
        return tuple(rounded)
    # Not a valid permutation: project by rank (stable, ties by position).
    ranks = np.argsort(np.argsort(values, kind="stable"), kind="stable")
    return tuple(int(r) for r in ranks)

"""Per-parameter distance computations feeding the GP kernel.

The BaCO kernel (Eq. 1-2) combines one distance measure per parameter into a
single weighted Euclidean norm.  This module computes, for a batch of
configurations, the *per-dimension distance matrices* ``d_k(x_i, x_j)`` so the
kernel can scale each dimension by its learned lengthscale.

Distances are normalized by each parameter's maximum attainable distance so
that a single set of lengthscale priors works across parameters of very
different scales (Sec. 3.2: "By normalizing the input data, BaCO can use a
single set of priors that works well for the majority of parameters").

The entry point is :meth:`DistanceComputer.pairwise_rows`, which
operates on **pre-encoded** matrices produced by
:class:`repro.space.encoding.ConfigEncoder`, one block at a time through
:meth:`DistanceComputer.block_rows`: every per-type block — numeric
absolute differences, categorical Hamming, and all four permutation
semimetrics including Kendall — is computed with vectorized numpy, with no
per-pair Python loop anywhere.  Callers holding configuration dicts encode
them first.  The historical per-pair implementation and the scalar
permutation metrics live on in ``tests/oracles.py`` as the ground truth
these blocks are pinned against.

:class:`IncrementalDistanceTensor` grows the symmetric train-train tensor one
observation at a time: appending a row computes only the new cross block, so
the per-iteration cost of extending the GP's Gram inputs is O(n·D) instead of
O(n²·D).  Block assembly is bit-identical to a full recompute.

Candidate rows get their scaled distance to the training rows from a
:class:`DistanceTable`: every parameter of the paper's benchmarks is
ordinal, categorical or a short permutation, with 64 to 150 legal values
in all against hundreds of candidate rows scored per fit, so the table
computes each legal value's squared scaled slice once per fit and a
predict gathers the slices by value code.  Integer and real blocks, and
any block whose batch holds a value outside its catalogue, are computed
with :meth:`DistanceComputer.block_rows`; the result has the bits of
``scaled_distance(pairwise_rows(rows, train), lengthscales)``.
"""
# repro: hot-path — row-space module: per-row Python loops, .tolist(), and in-loop decode are flagged (see repro.analysis)

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..space.encoding import ConfigEncoder
from ..space.parameters import (
    CategoricalParameter,
    NumericParameter,
    Parameter,
    PermutationParameter,
)

__all__ = [
    "parameter_scale",
    "DistanceComputer",
    "DistanceTable",
    "IncrementalDistanceTensor",
    "kendall_pairwise_rows",
]


def parameter_scale(parameter: Parameter) -> float:
    """Maximum attainable distance for a parameter (used for normalization).

    For permutation parameters the scale applies to the *Hilbertian square
    root* of the semimetric (see :func:`_permutation_block_rows`), hence the
    square root of the maximum semimetric value.
    """
    if isinstance(parameter, PermutationParameter):
        return max(np.sqrt(parameter.max_distance()), 1.0)
    if isinstance(parameter, CategoricalParameter):
        return 1.0
    if isinstance(parameter, NumericParameter):
        if hasattr(parameter, "values"):
            values = parameter.values
            lo, hi = values[0], values[-1]
        else:
            lo, hi = parameter.low, parameter.high
        span = abs(parameter._warp(hi) - parameter._warp(lo))
        return span if span > 0 else 1.0
    raise TypeError(f"unsupported parameter type {type(parameter).__name__}")


# ---------------------------------------------------------------------------
# vectorized per-type blocks over encoded rows
# ---------------------------------------------------------------------------

def kendall_pairwise_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs Kendall (discordant-pair) distances between two permutation
    matrices of shape ``(n_a, m)`` and ``(n_b, m)``.

    Each permutation is expanded into its binary pairwise-order code over the
    ``m·(m-1)/2`` index pairs ``p < q`` (1 where ``x[p] < x[q]``); the number
    of discordant pairs between two permutations is then the Hamming distance
    between their codes, computed for all pairs at once as
    ``A·(1-B)ᵀ + (1-A)·Bᵀ``.  All arithmetic is on exact small integers, so
    the result matches the per-pair double loop bit for bit.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m = a.shape[1]
    if m < 2:
        return np.zeros((a.shape[0], b.shape[0]))
    p_idx, q_idx = np.triu_indices(m, k=1)
    codes_a = (a[:, p_idx] < a[:, q_idx]).astype(float)
    codes_b = (b[:, p_idx] < b[:, q_idx]).astype(float)
    return codes_a @ (1.0 - codes_b).T + (1.0 - codes_a) @ codes_b.T


def _numeric_block_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a[:, None] - b[None, :])


def _categorical_block_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a[:, None] != b[None, :]).astype(float)


def _permutation_block_rows(
    param: PermutationParameter, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Kernel distances for permutations: the square root of the semimetric.

    The permutation semimetrics (Kendall, Spearman, Hamming) are conditionally
    negative definite but not Euclidean; following Lomelí et al. their square
    root is Hilbertian, so combining it inside the weighted Euclidean norm of
    Eq. (2) keeps the Matérn kernel a valid (positive semi-definite)
    covariance.  :func:`_raw_permutation_block_rows` holds the paper's raw
    semimetric values.
    """
    return np.sqrt(_raw_permutation_block_rows(param, a, b))


def _raw_permutation_block_rows(
    param: PermutationParameter, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    if param.metric == "spearman":
        sq_a = np.sum(a**2, axis=1)[:, None]
        sq_b = np.sum(b**2, axis=1)[None, :]
        d = sq_a + sq_b - 2.0 * (a @ b.T)
        return np.maximum(d, 0.0)
    if param.metric == "hamming":
        total = np.zeros((len(a), len(b)))
        for k in range(param.n_elements):
            total += (a[:, k][:, None] != b[:, k][None, :]).astype(float)
        return total
    if param.metric == "naive":
        equal = np.ones((len(a), len(b)), dtype=bool)
        for k in range(param.n_elements):
            equal &= a[:, k][:, None] == b[:, k][None, :]
        return (~equal).astype(float)
    return kendall_pairwise_rows(a, b)


class DistanceComputer:
    """Computes normalized per-dimension distance tensors between encoded rows.

    Built around a :class:`ConfigEncoder`: :meth:`pairwise_rows` consumes
    matrices in its layout.
    """

    def __init__(
        self, parameters: Sequence[Parameter], encoder: ConfigEncoder | None = None
    ) -> None:
        self.parameters = list(parameters)
        self.encoder = encoder if encoder is not None else ConfigEncoder(self.parameters)
        self.scales = np.array([parameter_scale(p) for p in self.parameters])

    @property
    def n_dimensions(self) -> int:
        return len(self.parameters)

    def check_rows(self, rows: np.ndarray) -> np.ndarray:
        """``rows`` as a float matrix of the encoder's width, or ``ValueError``."""
        rows = np.asarray(rows, dtype=float)
        width = self.encoder.width
        if rows.ndim != 2 or rows.shape[1] != width:
            raise ValueError(f"expected rows of width {width}, got shape {rows.shape}")
        return rows

    def block_rows(self, k: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Normalized distances ``d_k / scale_k`` of block ``k``, ``(n_a, n_b)``,
        between the encoded row matrices ``a`` and ``b``.

        A non-finite value carries into a numeric or Spearman distance, and
        the GP's kernel check rejects it; a categorical block and a Kendall,
        Hamming or naive permutation block only compare values, under which
        NaN is merely unequal, so they reject one themselves with the same
        ``ValueError``.
        """
        block = self.encoder.blocks[k]
        if block.kind == "numeric":
            matrix = _numeric_block_rows(a[:, block.start], b[:, block.start])
        else:
            a, b = a[:, block.columns], b[:, block.columns]
            compares = block.kind == "categorical" or block.parameter.metric != "spearman"
            if compares and not (np.isfinite(a).all() and np.isfinite(b).all()):
                raise ValueError("array must not contain infs or NaNs")
            if block.kind == "categorical":
                matrix = _categorical_block_rows(a[:, 0], b[:, 0])
            else:
                matrix = _permutation_block_rows(block.parameter, a, b)
        return matrix / self.scales[k]

    def pairwise_rows(
        self, rows_a: np.ndarray, rows_b: np.ndarray | None = None
    ) -> np.ndarray:
        """Distance tensor ``(D, n_a, n_b)`` from pre-encoded row matrices.

        When ``rows_b`` is ``None`` the (symmetric) self-distance tensor of
        ``rows_a`` is computed.
        """
        a = self.check_rows(rows_a)
        b = a if rows_b is None else self.check_rows(rows_b)
        out = np.empty((self.n_dimensions, a.shape[0], b.shape[0]))
        for k in range(len(out)):
            out[k] = self.block_rows(k, a, b)
        return out


class DistanceTable:
    """Squared scaled distances from every legal value to fixed training rows.

    For each block ``k`` with a value catalogue
    (:meth:`~repro.space.encoding.ConfigEncoder.catalogue`) the table holds
    ``((d_k(v, train) / scale_k) / l_k)²`` for every legal value ``v``:
    one ``(V_k, n)`` slab, computed once.  :meth:`distance` gathers each
    query row's slices by value code and computes directly only the blocks
    without a catalogue (integers, reals) and any block whose batch holds a
    value outside its catalogue.  A catalogued value's encoding equals the
    row's block exactly, and each entry is an elementwise function of the
    two encodings, so every slice has the bits ``pairwise_rows`` and
    :func:`~repro.models.kernels.scaled_distance` give it; the slices are
    then summed over the parameter axis with ``np.sum`` of the same
    ``(D, r, n)`` layout and square-rooted, as ``scaled_distance`` does.
    """

    def __init__(
        self, computer: DistanceComputer, train: np.ndarray, lengthscales: np.ndarray
    ) -> None:
        self._computer = computer
        self._train = computer.check_rows(train)
        self._lengthscales = np.asarray(lengthscales, dtype=float)
        encoder = computer.encoder
        slabs = []
        for k, block in enumerate(encoder.blocks):
            values = encoder.catalogue(k)
            if values is not None:
                value_rows = np.zeros((len(values), encoder.width))
                value_rows[:, block.columns] = values
                slabs.append(self._square(k, computer.block_rows(k, value_rows, self._train)))
        n = len(self._train)
        self._table = np.concatenate(slabs) if slabs else np.empty((0, n))

    def _square(self, k: int, scaled: np.ndarray) -> np.ndarray:
        """``(scaled / l_k)²`` in place, ``scaled_distance``'s two steps."""
        np.divide(scaled, self._lengthscales[k], out=scaled)
        return np.square(scaled, out=scaled)

    def _direct(self, k: int, rows: np.ndarray, out: np.ndarray) -> None:
        """Block ``k``'s squared scaled distances computed, not gathered."""
        out[...] = self._computer.block_rows(k, rows, self._train)
        self._square(k, out)

    def distance(self, rows: np.ndarray) -> np.ndarray:
        """The scaled distance ``(r, n)`` of Eq. (2) from ``rows`` to the
        training rows: ``scaled_distance(pairwise_rows(rows, train), l)``."""
        rows = self._computer.check_rows(rows)
        codes = self._computer.encoder.value_codes(rows)
        (depth, r), n = codes.shape, len(self._train)
        out = np.empty((depth, r, n))
        if len(self._table):
            # a miss (-1) clips to code 0; its block is recomputed below
            flat = out.reshape(depth * r, n)
            np.take(self._table, codes.reshape(-1), axis=0, out=flat, mode="clip")
        for k in np.flatnonzero((codes < 0).any(axis=1)):
            self._direct(k, rows, out[k])
        distance = np.sum(out, axis=0)
        return np.sqrt(distance, out=distance)


class IncrementalDistanceTensor:
    """Grows a symmetric train-train distance tensor one batch at a time.

    The tuner appends each new observation's encoded row as it is evaluated
    (and a restore the whole history in one batch); only the cross block
    against the existing rows is computed, never the full tensor.  Buffer
    capacity is the smallest power of two (at least 8) that holds the rows,
    which is what one-row appends reach by doubling, so any split of the
    same rows into appends gives equal bytes, buffer shapes and view
    strides.  Views handed out by :attr:`tensor` / :attr:`rows` stay valid
    snapshots even after later appends trigger a reallocation.
    """

    def __init__(self, computer: DistanceComputer) -> None:
        self._computer = computer
        self._n = 0
        self._rows_buf: np.ndarray | None = None
        self._tensor_buf: np.ndarray | None = None

    def __len__(self) -> int:
        return self._n

    @property
    def rows(self) -> np.ndarray:
        """Encoded rows appended so far, shape ``(n, width)`` (read-only view)."""
        if self._rows_buf is None:
            return np.empty((0, self._computer.encoder.width))
        view = self._rows_buf[: self._n]
        view.flags.writeable = False
        return view

    @property
    def tensor(self) -> np.ndarray:
        """Distance tensor over the appended rows, shape ``(D, n, n)`` (read-only view)."""
        if self._tensor_buf is None:
            return np.empty((self._computer.n_dimensions, 0, 0))
        view = self._tensor_buf[:, : self._n, : self._n]
        view.flags.writeable = False
        return view

    def reset(self) -> None:
        self._n = 0
        self._rows_buf = None
        self._tensor_buf = None

    def _ensure_capacity(self, needed: int) -> None:
        width = self._computer.encoder.width
        depth = self._computer.n_dimensions
        capacity = 0 if self._rows_buf is None else self._rows_buf.shape[0]
        if needed <= capacity:
            return
        new_capacity = max(8, 1 << (needed - 1).bit_length())
        rows = np.empty((new_capacity, width))
        tensor = np.empty((depth, new_capacity, new_capacity))
        if self._n:
            rows[: self._n] = self._rows_buf[: self._n]
            tensor[:, : self._n, : self._n] = self._tensor_buf[:, : self._n, : self._n]
        self._rows_buf = rows
        self._tensor_buf = tensor

    def append(self, new_rows: np.ndarray) -> None:
        """Append encoded rows, extending the tensor by their cross blocks."""
        new_rows = self._computer.check_rows(np.atleast_2d(new_rows))
        k = new_rows.shape[0]
        if k == 0:
            return
        n = self._n
        self._ensure_capacity(n + k)
        self._rows_buf[n : n + k] = new_rows
        if n:
            cross = self._computer.pairwise_rows(new_rows, self._rows_buf[:n])
            self._tensor_buf[:, n : n + k, :n] = cross
            self._tensor_buf[:, :n, n : n + k] = np.swapaxes(cross, 1, 2)
        self._tensor_buf[:, n : n + k, n : n + k] = self._computer.pairwise_rows(new_rows)
        self._n = n + k


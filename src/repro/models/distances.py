"""Per-parameter distance computations feeding the GP kernel.

The BaCO kernel (Eq. 1-2) combines one distance measure per parameter into a
single weighted Euclidean norm.  This module computes, for a batch of
configurations, the *per-dimension distance matrices* ``d_k(x_i, x_j)`` so the
kernel can scale each dimension by its learned lengthscale.

Distances are normalized by each parameter's maximum attainable distance so
that a single set of lengthscale priors works across parameters of very
different scales (Sec. 3.2: "By normalizing the input data, BaCO can use a
single set of priors that works well for the majority of parameters").

The one entry point is :meth:`DistanceComputer.pairwise_rows`, which
operates on **pre-encoded** matrices produced by
:class:`repro.space.encoding.ConfigEncoder`: every per-type block — numeric
absolute differences, categorical Hamming, and all four permutation
semimetrics including Kendall — is computed with vectorized numpy, with no
per-pair Python loop anywhere.  Callers holding configuration dicts encode
them first.  The historical per-pair implementation and the scalar
permutation metrics live on in ``tests/oracles.py`` as the ground truth
these blocks are pinned against.

:class:`IncrementalDistanceTensor` grows the symmetric train-train tensor one
observation at a time: appending a row computes only the new cross block, so
the per-iteration cost of extending the GP's Gram inputs is O(n·D) instead of
O(n²·D).  Block assembly is bit-identical to a full recompute.  Candidate
rows get their test-train cross tensor from one
:meth:`DistanceComputer.pairwise_rows` call per predict.
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

    def pairwise_rows(
        self, rows_a: np.ndarray, rows_b: np.ndarray | None = None
    ) -> np.ndarray:
        """Distance tensor ``(D, n_a, n_b)`` from pre-encoded row matrices.

        When ``rows_b`` is ``None`` the (symmetric) self-distance tensor of
        ``rows_a`` is computed.
        """
        a = np.asarray(rows_a, dtype=float)
        b = a if rows_b is None else np.asarray(rows_b, dtype=float)
        out = np.empty((self.n_dimensions, a.shape[0], b.shape[0]))
        for k, block in enumerate(self.encoder.blocks):
            if block.kind == "numeric":
                matrix = _numeric_block_rows(a[:, block.start], b[:, block.start])
            elif block.kind == "categorical":
                matrix = _categorical_block_rows(a[:, block.start], b[:, block.start])
            else:
                matrix = _permutation_block_rows(
                    block.parameter, a[:, block.columns], b[:, block.columns]
                )
            out[k] = matrix / self.scales[k]
        return out


class IncrementalDistanceTensor:
    """Grows a symmetric train-train distance tensor one batch at a time.

    The tuner appends each new observation's encoded row as it is evaluated;
    only the cross block against the existing rows is computed, never the
    full tensor.  Buffers grow by capacity doubling, so views handed out by
    :attr:`tensor` / :attr:`rows` stay valid snapshots even after later
    appends trigger a reallocation.
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
        new_capacity = max(needed, max(8, 2 * capacity))
        rows = np.empty((new_capacity, width))
        tensor = np.empty((depth, new_capacity, new_capacity))
        if self._n:
            rows[: self._n] = self._rows_buf[: self._n]
            tensor[:, : self._n, : self._n] = self._tensor_buf[:, : self._n, : self._n]
        self._rows_buf = rows
        self._tensor_buf = tensor

    def append(self, new_rows: np.ndarray) -> None:
        """Append encoded rows, extending the tensor by their cross blocks."""
        new_rows = np.atleast_2d(np.asarray(new_rows, dtype=float))
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


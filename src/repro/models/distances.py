"""Per-parameter distance computations feeding the GP kernel.

The BaCO kernel (Eq. 1-2) combines one distance measure per parameter into a
single weighted Euclidean norm.  This module computes, for a batch of
configurations, the *per-dimension distance matrices* ``d_k(x_i, x_j)`` so the
kernel can scale each dimension by its learned lengthscale.

Distances are normalized by each parameter's maximum attainable distance so
that a single set of lengthscale priors works across parameters of very
different scales (Sec. 3.2: "By normalizing the input data, BaCO can use a
single set of priors that works well for the majority of parameters").

The primary entry point is :meth:`DistanceComputer.pairwise_rows`, which
operates on **pre-encoded** matrices produced by
:class:`repro.space.encoding.ConfigEncoder`: every per-type block — numeric
absolute differences, categorical Hamming, and all four permutation
semimetrics including Kendall — is computed with vectorized numpy, with no
per-pair Python loop anywhere.  :meth:`DistanceComputer.pairwise` remains as
a thin adapter for callers holding raw configuration dicts (it encodes, then
delegates).  The historical per-pair implementation lives on in the test
suite as the ground truth these blocks are pinned against.

:class:`IncrementalDistanceTensor` grows the symmetric train-train tensor one
observation at a time: appending a row computes only the new cross block, so
the per-iteration cost of extending the GP's Gram inputs is O(n·D) instead of
O(n²·D).  Block assembly is bit-identical to a full recompute.

:class:`CrossDistanceTensor` mirrors that on the candidate side: it caches the
``(D, P, n)`` cross tensor between a persistent candidate pool (``P`` rows)
and the growing training set (``n`` rows).  Each new observation appends one
column block (O(P·D)); replacing individual pooled candidates recomputes only
their rows (O(k·n·D)).  Because every per-type block is computed per
(candidate, train) pair independently — elementwise differences, Hamming
indicators, and matmul inner products whose summation never crosses pairs —
block assembly is again bit-identical to a full
:meth:`DistanceComputer.pairwise_rows` recompute.
"""
# repro: hot-path — row-space module: per-row Python loops, .tolist(), and in-loop decode are flagged (see repro.analysis)

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from ..space.encoding import ColumnBlock, ConfigEncoder
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
    "CrossDistanceTensor",
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
    covariance.  The user-facing :meth:`PermutationParameter.distance` keeps
    the paper's raw semimetric values.
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
    """Computes normalized per-dimension distance tensors between configurations.

    Built around a :class:`ConfigEncoder`: the fast path
    (:meth:`pairwise_rows`) consumes encoded matrices directly; the dict path
    (:meth:`pairwise`) is a thin adapter that encodes first.
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

    # ------------------------------------------------------------------
    # fast path: encoded rows
    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # dict path (thin adapter)
    # ------------------------------------------------------------------
    def pairwise(
        self,
        configs_a: Sequence[Mapping[str, Any]],
        configs_b: Sequence[Mapping[str, Any]] | None = None,
    ) -> np.ndarray:
        """Distance tensor ``(D, len(a), len(b))`` from configuration dicts."""
        rows_a = self.encoder.encode_batch(configs_a)
        rows_b = None if configs_b is None else self.encoder.encode_batch(configs_b)
        return self.pairwise_rows(rows_a, rows_b)


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


class CrossDistanceTensor:
    """Caches candidate-pool-to-training-set cross distances incrementally.

    The acquisition hot path predicts over the same pooled candidate rows
    every iteration; rebuilding their ``(D, P, n)`` cross-distance tensor per
    predict is O(P·n·D) of redundant work.  This cache computes the tensor
    once per pool (:meth:`set_pool`), extends it by one *column* block per new
    observation (:meth:`extend_train`), and recomputes only the rows of
    replaced candidates (:meth:`refresh_pool_rows`).  The train axis grows by
    capacity doubling; :attr:`tensor` hands out read-only snapshot views.

    Invariant: ``tensor`` always equals
    ``computer.pairwise_rows(pool_rows, train_rows)`` bit for bit (see module
    docstring for why block assembly cannot drift).
    """

    def __init__(self, computer: DistanceComputer) -> None:
        self._computer = computer
        self._pool: np.ndarray | None = None
        self._train_n = 0
        self._tensor_buf: np.ndarray | None = None

    def __len__(self) -> int:
        """Number of training rows covered (the tensor's column count)."""
        return self._train_n

    @property
    def n_pool(self) -> int:
        return 0 if self._pool is None else self._pool.shape[0]

    @property
    def pool_rows(self) -> np.ndarray:
        """The pooled candidate rows, shape ``(P, width)`` (read-only view)."""
        if self._pool is None:
            return np.empty((0, self._computer.encoder.width))
        view = self._pool[:]
        view.flags.writeable = False
        return view

    @property
    def tensor(self) -> np.ndarray:
        """Cross tensor, shape ``(D, P, n_train)`` (read-only view)."""
        if self._pool is None or self._tensor_buf is None:
            return np.empty((self._computer.n_dimensions, self.n_pool, 0))
        view = self._tensor_buf[:, :, : self._train_n]
        view.flags.writeable = False
        return view

    def reset(self) -> None:
        self._pool = None
        self._train_n = 0
        self._tensor_buf = None

    def _ensure_capacity(self, needed: int) -> None:
        capacity = 0 if self._tensor_buf is None else self._tensor_buf.shape[2]
        if needed <= capacity:
            return
        new_capacity = max(needed, max(8, 2 * capacity))
        tensor = np.empty(
            (self._computer.n_dimensions, self.n_pool, new_capacity)
        )
        if self._train_n:
            tensor[:, :, : self._train_n] = self._tensor_buf[:, :, : self._train_n]
        self._tensor_buf = tensor

    def set_pool(self, pool_rows: np.ndarray, train_rows: np.ndarray) -> None:
        """(Re)build the cache for a fresh pool against ``train_rows``."""
        self._pool = np.array(pool_rows, dtype=float, copy=True)
        train_rows = np.asarray(train_rows, dtype=float)
        self._train_n = 0
        self._tensor_buf = None
        if len(train_rows):
            self._ensure_capacity(len(train_rows))
            self._tensor_buf[:, :, : len(train_rows)] = self._computer.pairwise_rows(
                self._pool, train_rows
            )
            self._train_n = len(train_rows)

    def extend_train(self, new_train_rows: np.ndarray) -> None:
        """Append the column block for newly observed training rows."""
        if self._pool is None:
            raise RuntimeError("extend_train() before set_pool()")
        new_train_rows = np.atleast_2d(np.asarray(new_train_rows, dtype=float))
        k = new_train_rows.shape[0]
        if k == 0:
            return
        n = self._train_n
        self._ensure_capacity(n + k)
        self._tensor_buf[:, :, n : n + k] = self._computer.pairwise_rows(
            self._pool, new_train_rows
        )
        self._train_n = n + k

    def refresh_pool_rows(
        self, indices: Sequence[int], new_pool_rows: np.ndarray, train_rows: np.ndarray
    ) -> None:
        """Replace pooled candidates at ``indices`` and recompute their rows.

        ``train_rows`` must be the same ``(n_train, width)`` matrix the cached
        columns were built against (the caller's incremental train cache).
        """
        if self._pool is None:
            raise RuntimeError("refresh_pool_rows() before set_pool()")
        indices = np.asarray(indices, dtype=int)
        if len(indices) == 0:
            return
        new_pool_rows = np.atleast_2d(np.asarray(new_pool_rows, dtype=float))
        if len(new_pool_rows) != len(indices):
            raise ValueError(
                f"{len(indices)} indices but {len(new_pool_rows)} replacement rows"
            )
        train_rows = np.asarray(train_rows, dtype=float)
        if len(train_rows) != self._train_n:
            raise ValueError(
                f"cache covers {self._train_n} training rows, got {len(train_rows)}"
            )
        self._pool[indices] = new_pool_rows
        if self._train_n:
            self._tensor_buf[:, indices, : self._train_n] = (
                self._computer.pairwise_rows(new_pool_rows, train_rows)
            )

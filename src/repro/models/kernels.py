"""Covariance kernels over mixed-type autotuning spaces.

BaCO uses a Matérn-5/2 kernel (Eq. 1 of the paper) over a weighted Euclidean
combination of per-parameter distances (Eq. 2):

.. math::

    k(x, x') = \\sigma \\left(1 + \\sqrt{5} d + \\tfrac{5}{3} d^2\\right)
               e^{-\\sqrt{5} d},
    \\qquad
    d = \\sqrt{\\sum_i d(x_i, x'_i)^2 / l_i^2}

where the per-dimension distances come from
:class:`repro.models.distances.DistanceComputer` and the lengthscales
``l_i`` are learned by MAP estimation.

Each function takes an optional ``out`` :class:`KernelWork`: its arrays hold
the intermediates and the result, so a caller that builds many kernels over
one distance tensor (the GP's hyper-parameter fit) allocates nothing per
build.  Without ``out`` a fresh one is allocated.  Either way the same ufuncs
run in the same order, so the result's bits do not depend on ``out``.
"""
# repro: hot-path — row-space module: per-row Python loops, .tolist(), and in-loop decode are flagged (see repro.analysis)

from __future__ import annotations

import numpy as np

__all__ = ["KernelWork", "matern52", "scaled_distance"]

_SQRT5 = np.sqrt(5.0)


class KernelWork:
    """Work arrays for kernels over distance tensors of shape ``(D, *shape)``.

    ``scaled`` has the tensor's shape; ``distance``, ``term`` and ``kernel``
    have ``shape``.  All are C-contiguous, as numpy's own temporaries would be.
    """

    __slots__ = ("scaled", "distance", "term", "kernel")

    def __init__(self, tensor_shape: tuple[int, ...]) -> None:
        self.scaled = np.empty(tensor_shape)
        self.distance = np.empty(tensor_shape[1:])
        self.term = np.empty(tensor_shape[1:])
        self.kernel = np.empty(tensor_shape[1:])


def scaled_distance(
    distance_tensor: np.ndarray, lengthscales: np.ndarray, out: KernelWork | None = None
) -> np.ndarray:
    """Combine per-dimension distances into the weighted Euclidean norm of Eq. (2).

    ``distance_tensor`` has shape ``(D, n, m)`` (pairwise matrices) or
    ``(D, n)`` (a single cross column, e.g. one new observation against the
    training set during a rank-1 Cholesky extension); ``lengthscales`` has
    shape ``(D,)``.  The leading dimension is always the parameter axis.
    The result is ``out.distance``.
    """
    distance_tensor = np.asarray(distance_tensor, dtype=float)
    lengthscales = np.asarray(lengthscales, dtype=float)
    lengthscales = lengthscales.reshape(-1, *([1] * (distance_tensor.ndim - 1)))
    if distance_tensor.shape[0] != lengthscales.shape[0]:
        raise ValueError(
            f"distance tensor has {distance_tensor.shape[0]} dimensions but "
            f"{lengthscales.shape[0]} lengthscales were given"
        )
    if out is None:
        out = KernelWork(distance_tensor.shape)
    scaled = np.divide(distance_tensor, lengthscales, out=out.scaled)
    np.square(scaled, out=scaled)
    return np.sqrt(np.sum(scaled, axis=0, out=out.distance), out=out.distance)


def matern52(
    distance_tensor: np.ndarray,
    lengthscales: np.ndarray,
    outputscale: float = 1.0,
    out: KernelWork | None = None,
) -> np.ndarray:
    """Matérn-5/2 kernel matrix (or cross vector) from a distance tensor.

    ``outputscale * (1 + √5·d + 5/3·d²) * exp(-√5·d)``, grouped as written;
    the result is ``out.kernel``.
    """
    if out is None:
        out = KernelWork(np.shape(distance_tensor))
    d = scaled_distance(distance_tensor, lengthscales, out)
    sqrt5_d = np.multiply(_SQRT5, d, out=out.term)
    k = np.add(1.0, sqrt5_d, out=out.kernel)
    d2 = np.square(d, out=d)
    np.add(k, np.multiply(5.0 / 3.0, d2, out=d2), out=k)
    np.multiply(outputscale, k, out=k)
    decay = np.exp(np.negative(sqrt5_d, out=sqrt5_d), out=sqrt5_d)
    return np.multiply(k, decay, out=k)

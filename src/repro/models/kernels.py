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

:func:`matern52` is :func:`scaled_distance` followed by
:func:`matern52_of_distance`.  The GP's hyper-parameter fit builds ``d`` its
own way, on the packed triangle of the train tensor, and its predict gathers
it from a :class:`~repro.models.distances.DistanceTable`; both call
:func:`matern52_of_distance` on it, so the formula is written once.
"""
# repro: hot-path — row-space module: per-row Python loops, .tolist(), and in-loop decode are flagged (see repro.analysis)

from __future__ import annotations

import numpy as np

__all__ = ["matern52", "matern52_of_distance", "scaled_distance"]

_SQRT5 = np.sqrt(5.0)


def scaled_distance(distance_tensor: np.ndarray, lengthscales: np.ndarray) -> np.ndarray:
    """Combine per-dimension distances into the weighted Euclidean norm of Eq. (2).

    ``distance_tensor`` has shape ``(D, n, m)`` (pairwise matrices) or
    ``(D, n)`` (a single cross column, e.g. one new observation against the
    training set during a rank-1 Cholesky extension); ``lengthscales`` has
    shape ``(D,)``.  The leading dimension is always the parameter axis, and
    the sum over it adds the ``D`` scaled slices one after another.
    """
    distance_tensor = np.asarray(distance_tensor, dtype=float)
    lengthscales = np.asarray(lengthscales, dtype=float)
    lengthscales = lengthscales.reshape(-1, *([1] * (distance_tensor.ndim - 1)))
    if distance_tensor.shape[0] != lengthscales.shape[0]:
        raise ValueError(
            f"distance tensor has {distance_tensor.shape[0]} dimensions but "
            f"{lengthscales.shape[0]} lengthscales were given"
        )
    scaled = np.divide(distance_tensor, lengthscales)
    np.square(scaled, out=scaled)
    distance = np.sum(scaled, axis=0)
    return np.sqrt(distance, out=distance)


def matern52_of_distance(
    distance: np.ndarray, outputscale: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Matérn-5/2 of a scaled distance ``d`` (a matrix or a vector).

    ``outputscale * (1 + √5·d + 5/3·d²) * exp(-√5·d)``, grouped as written.
    ``distance`` is left as it is; the result is written to ``out`` when
    given (same shape, not ``distance`` itself) and to a fresh array
    otherwise.
    """
    sqrt5_d = np.multiply(_SQRT5, distance)
    k = np.add(1.0, sqrt5_d, out=out)
    d2 = np.square(distance)
    np.add(k, np.multiply(5.0 / 3.0, d2, out=d2), out=k)
    np.multiply(outputscale, k, out=k)
    decay = np.exp(np.negative(sqrt5_d, out=sqrt5_d), out=sqrt5_d)
    return np.multiply(k, decay, out=k)


def matern52(
    distance_tensor: np.ndarray, lengthscales: np.ndarray, outputscale: float = 1.0
) -> np.ndarray:
    """Matérn-5/2 kernel matrix (or cross vector) from a distance tensor."""
    return matern52_of_distance(scaled_distance(distance_tensor, lengthscales), outputscale)

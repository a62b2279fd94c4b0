"""Prior distributions for GP hyper-parameters.

BaCO uses gamma priors on the kernel lengthscales (Sec. 3.2) to stop the MLE
from collapsing some lengthscales towards zero (which would make the GP
behave like a sparse model over discrete inputs) or inflating them to
infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import gammaln, xlogy

__all__ = ["GammaPrior", "GammaLogDensities"]


@dataclass(frozen=True)
class GammaPrior:
    """Gamma(shape, rate) prior with positive support and long tails."""

    shape: float = 2.0
    rate: float = 2.0

    def sample(self, rng: np.random.Generator, size: int | tuple[int, ...] = 1) -> np.ndarray:
        return rng.gamma(self.shape, 1.0 / self.rate, size=size)

    @property
    def mean(self) -> float:
        return self.shape / self.rate


class GammaLogDensities:
    """Log densities of positive values, entry ``i`` under ``priors[i]``, in
    one vectorized pass.

    Each entry is bit for bit what ``scipy.stats.gamma.logpdf`` returns for
    it: the closed form scipy evaluates inside ``logpdf``, with ``z = x / θ``
    and ``θ = 1 / rate``, in scipy's operation order::

        xlogy(a - 1, z) - z - gammaln(a) - log(θ)

    ``a - 1``, ``θ``, ``gammaln(a)`` and ``log(θ)`` are computed once, per
    prior and as scalars, as a per-prior evaluation computes them.  The GP's
    MAP objective scores its lengthscales, noise and outputscale with one
    call instead of one scipy-sized call per prior.  Values must be positive
    (the objective's are ``exp`` of its search vector): the density's
    ``-inf`` below zero is not evaluated.  Like ``logpdf``, a zero or
    non-finite value gives a non-finite result without a warning.
    """

    def __init__(self, priors: Sequence[GammaPrior]) -> None:
        scales = [1.0 / prior.rate for prior in priors]
        self._shape_minus_one = np.array([prior.shape - 1.0 for prior in priors])
        self._scale = np.array(scales)
        self._log_gamma_shape = np.array([gammaln(prior.shape) for prior in priors])
        self._log_scale = np.array([np.log(scale) for scale in scales])

    def __call__(self, values: np.ndarray) -> np.ndarray:
        z = values / self._scale
        with np.errstate(divide="ignore", invalid="ignore"):
            return xlogy(self._shape_minus_one, z) - z - self._log_gamma_shape - self._log_scale

    def log_slopes(self, values: np.ndarray) -> np.ndarray:
        """Each log density's derivative in the log of its value,
        ``d log p / d log v = (a - 1) - v·rate``: the prior's share of the
        MAP objective's gradient."""
        return self._shape_minus_one - values / self._scale

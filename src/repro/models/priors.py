"""Prior distributions for GP hyper-parameters.

BaCO uses gamma priors on the kernel lengthscales (Sec. 3.2) to stop the MLE
from collapsing some lengthscales towards zero (which would make the GP
behave like a sparse model over discrete inputs) or inflating them to
infinity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlogy

__all__ = ["GammaPrior"]


@dataclass(frozen=True)
class GammaPrior:
    """Gamma(shape, rate) prior with positive support and long tails."""

    shape: float = 2.0
    rate: float = 2.0

    def log_pdf(self, value: float | np.ndarray) -> float | np.ndarray:
        """Log density, bit for bit what ``scipy.stats.gamma.logpdf`` returns.

        It is the closed form that scipy evaluates inside ``logpdf``, with
        ``z = x / θ`` and ``θ = 1 / rate``, in scipy's operation order::

            xlogy(a - 1, z) - z - gammaln(a) - log(θ)

        Negative values lie outside the support and score ``-inf``; NaN stays
        NaN.  It skips scipy's argument parsing and broadcasting, which cost
        more than the arithmetic in the GP's hyper-parameter fit.
        """
        value = np.asarray(value, dtype=float)
        scale = 1.0 / self.rate
        z = value / scale
        # log(0) and the masked-out negatives raise no warnings
        with np.errstate(divide="ignore", invalid="ignore"):
            lp = xlogy(self.shape - 1.0, z) - z - gammaln(self.shape) - np.log(scale)
        lp = np.where(value < 0.0, -np.inf, lp)
        return lp if lp.shape else float(lp)

    def sample(self, rng: np.random.Generator, size: int | tuple[int, ...] = 1) -> np.ndarray:
        return rng.gamma(self.shape, 1.0 / self.rate, size=size)

    @property
    def mean(self) -> float:
        return self.shape / self.rate


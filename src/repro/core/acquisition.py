"""Acquisition functions.

BaCO uses Expected Improvement (EI) with two modifications (Sec. 3.3 and 4.2):

* the improvement is computed against the *noise-free* GP prediction
  (``include_noise=False``), which stops EI from repeatedly re-sampling
  already-good points when evaluations are noisy;
* the EI is multiplied by the probability of feasibility predicted by the
  hidden-constraint model, and configurations whose predicted feasibility is
  below a (randomly re-sampled) threshold ε_f are excluded.

All functions operate on the GP's *model scale* (log-transformed and
standardized objective), in minimization form.

:class:`AcquisitionFunction` scores encoded rows through one path,
:meth:`AcquisitionFunction.evaluate_rows`: a single GP predict over the
candidate matrix and, when the feasibility model shares the rows' encoding
layout, a single batched random-forest pass over the same rows.
"""
# repro: hot-path — row-space module: per-row Python loops, .tolist(), and in-loop decode are flagged (see repro.analysis)

from __future__ import annotations

import math
from contextlib import nullcontext
from typing import Any, Mapping, Sequence

import numpy as np
from scipy.special import ndtr

from ..models.gp import GaussianProcess

__all__ = [
    "expected_improvement",
    "floored_std",
    "AcquisitionFunction",
    "FusedAcquisitionScorer",
]

#: floor applied to the predictive variance before taking the square root
_VARIANCE_FLOOR = 1e-18
#: sqrt(2*pi), precomputed for the inline standard-normal pdf
_SQRT_2PI = np.sqrt(2.0 * np.pi)


def floored_std(variance: np.ndarray) -> np.ndarray:
    """Predictive standard deviation with the shared variance floor applied."""
    return np.sqrt(np.maximum(variance, _VARIANCE_FLOOR))


def expected_improvement(
    mean: np.ndarray, variance: np.ndarray, best_value: float, xi: float = 0.0
) -> np.ndarray:
    """EI for minimization: ``E[max(best - Y, 0)]`` under ``Y ~ N(mean, variance)``.

    The Gaussian cdf/pdf are evaluated directly (``scipy.special.ndtr`` and an
    inline ``exp(-z²/2)/√(2π)``) instead of through ``scipy.stats.norm``:
    ``ndtr`` is the exact primitive ``norm.cdf`` bottoms out in and the pdf
    expression replicates ``_norm_pdf`` term for term, so the values are
    bit-identical while skipping the frozen-distribution argument machinery —
    this is the hottest scalar kernel of the acquisition loop.
    """
    std = floored_std(variance)
    improvement = best_value - mean - xi
    z = improvement / std
    ei = improvement * ndtr(z) + std * (np.exp(-z * z / 2.0) / _SQRT_2PI)
    return np.maximum(ei, 0.0)


class AcquisitionFunction:
    """Feasibility-weighted (noiseless) EI over configurations.

    Parameters
    ----------
    model:
        A fitted :class:`~repro.models.gp.GaussianProcess` (or any object with
        its ``encoder`` / ``predict_rows`` / ``to_model_scale`` interface).
    best_value:
        Best *raw* feasible objective value observed so far.
    feasibility_model:
        Optional model with an ``encoder`` and
        ``predict_probability_rows(rows) -> array``; when given, the EI of
        each configuration is multiplied by its probability of feasibility
        and configurations below ``feasibility_threshold`` are assigned an
        acquisition value of ``-inf``.
    noiseless:
        Use the noise-free predictive variance (BaCO's modified EI).
    """

    def __init__(
        self,
        model: GaussianProcess,
        best_value: float,
        feasibility_model: Any | None = None,
        feasibility_threshold: float = 0.0,
        noiseless: bool = True,
        profiler: Any | None = None,
    ) -> None:
        if not math.isfinite(best_value):
            raise ValueError("best_value must be finite to compute EI")
        self.model = model
        #: optional :class:`~repro.core.profiling.PhaseProfiler`; attributes
        #: the row-path predict / EI wall-clock to their phases (observation
        #: only — never touches the arithmetic or any RNG)
        self.profiler = profiler
        self.best_value = best_value
        self._best_model_scale = float(model.to_model_scale(best_value))
        self.feasibility_model = feasibility_model
        self.feasibility_threshold = feasibility_threshold
        self.noiseless = noiseless

    # Unused by the tuner; kept because perfbench/tracing.py:PATCHES wraps it by name.
    def __call__(self, configurations: Sequence[Mapping[str, Any]]) -> np.ndarray:
        """Acquisition values (larger is better) for a batch of configurations,
        encoded with the model's encoder and scored by :meth:`evaluate_rows`."""
        encoder = self.model.encoder
        return self.evaluate_rows(encoder.encode_batch(configurations), encoder)

    def evaluate_rows(self, rows: np.ndarray, encoder: Any) -> np.ndarray:
        """Acquisition values (larger is better) for encoded rows in
        ``encoder``'s layout.

        When the GP's model-space encoding matches ``encoder``
        (``signature()`` equality — true unless a transform ablation changes
        the warps), the candidate matrix flows straight into
        ``predict_rows``, and likewise into the feasibility RF, without ever
        materializing configuration dicts.  A model with a different layout
        gets the rows decoded once and re-encoded in its own — e.g. the GP
        of the no-transformations ablation.
        """
        if len(rows) == 0:
            return np.empty(0)
        include_noise = not self.noiseless
        profiler = self.profiler
        predict_phase = (
            profiler.phase("predict") if profiler is not None else nullcontext()
        )
        configurations = None

        def in_layout(model_encoder: Any) -> np.ndarray:
            nonlocal configurations
            if model_encoder.signature() == encoder.signature():
                return rows
            if configurations is None:
                configurations = encoder.decode_batch(rows)
            return model_encoder.encode_batch(configurations)

        with predict_phase:
            mean, variance = self.model.predict_rows(
                in_layout(self.model.encoder), include_noise=include_noise
            )
        ei_phase = profiler.phase("ei") if profiler is not None else nullcontext()
        with ei_phase:
            values = expected_improvement(mean, variance, self._best_model_scale)
            if self.feasibility_model is not None and self.feasibility_model.is_trained:
                feas_phase = (
                    profiler.phase("feas_predict") if profiler is not None else nullcontext()
                )
                with feas_phase:
                    probability = self.feasibility_model.predict_probability_rows(
                        in_layout(self.feasibility_model.encoder)
                    )
                values = values * probability
                values = np.where(
                    probability >= self.feasibility_threshold, values, -np.inf
                )
        return values


# Unused by the tuner; kept because perfbench/tracing.py:PATCHES wraps its methods by name.
class FusedAcquisitionScorer:
    """Memoizing, buffer-reusing scorer for one acquisition maximization.

    Valid for the lifetime of a single ask: the surrogate, the incumbent, and
    the feasibility threshold ε_f are fixed, so every distinct candidate row
    maps to one acquisition value.  The scorer exploits that three ways:

    * **per-row memoization** — values are cached by ``row.tobytes()``, so
      climb steps that re-visit rows (overlapping neighbourhoods) never
      re-predict;
    * **fused batch pass** — the unseen rows of a batch go through a single
      predict → EI → feasibility-weighting pipeline
      (:meth:`AcquisitionFunction.evaluate_rows`), not one call per row;
    * **workspace reuse** — assembled values land in one preallocated buffer
      that grows monotonically, so the lockstep climb allocates nothing per
      step.  The returned array is a view into that workspace: consume it
      before the next ``score_rows`` call.
    """

    def __init__(self, acquisition: AcquisitionFunction, encoder: Any) -> None:
        self._acquisition = acquisition
        self._encoder = encoder
        self._memo: dict[bytes, float] = {}
        self._values_buf = np.empty(0)

    @property
    def n_memoized(self) -> int:
        return len(self._memo)

    def _workspace(self, n: int) -> np.ndarray:
        if self._values_buf.shape[0] < n:
            self._values_buf = np.empty(max(n, 2 * self._values_buf.shape[0]))
        return self._values_buf[:n]

    def prime_pool(self, rows: np.ndarray) -> np.ndarray:
        """Score the candidate pool in one pass and seed the memo with it."""
        values = np.asarray(
            self._acquisition.evaluate_rows(rows, self._encoder), dtype=float
        )
        memo = self._memo
        # repro: allow[hot-path-purity] memo seeding: one dict insert per row after a single fused batch predict — no vectorized dict alternative
        for row, value in zip(rows, values):
            memo[row.tobytes()] = float(value)
        return values

    def score_rows(self, rows: np.ndarray) -> np.ndarray:
        """Acquisition values for ``rows``; memo hits skip the model entirely.

        Returns a view into the reused workspace buffer — copy any values
        that must survive the next call.
        """
        n = len(rows)
        out = self._workspace(n)
        if n == 0:
            return out
        memo = self._memo
        keys: list[bytes] = []
        unseen: list[int] = []
        for i in range(n):
            key = rows[i].tobytes()
            keys.append(key)
            cached = memo.get(key)
            if cached is None:
                unseen.append(i)
            else:
                out[i] = cached
        if unseen:
            fresh = np.asarray(
                self._acquisition.evaluate_rows(rows[unseen], self._encoder),
                dtype=float,
            )
            for j, i in enumerate(unseen):
                value = float(fresh[j])
                memo[keys[i]] = value
                out[i] = value
        return out

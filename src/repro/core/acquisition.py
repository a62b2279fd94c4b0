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

:class:`AcquisitionFunction` is batch-first: a call encodes the whole
candidate set once, runs a single GP predict over the encoded rows, and —
when the feasibility model shares the GP's encoding layout — reuses the same
rows for a single batched random-forest pass.
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
    "lower_confidence_bound",
    "floored_std",
    "AcquisitionFunction",
    "FusedAcquisitionScorer",
]

#: floor applied to the predictive variance before taking the square root; a
#: single shared constant so EI and LCB can never drift apart
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


def lower_confidence_bound(
    mean: np.ndarray, variance: np.ndarray, beta: float = 2.0
) -> np.ndarray:
    """Negated LCB so that *larger is better*, like EI (for minimization)."""
    return -(mean - beta * floored_std(variance))


class AcquisitionFunction:
    """Feasibility-weighted (noiseless) EI over configurations.

    Parameters
    ----------
    model:
        A fitted :class:`~repro.models.gp.GaussianProcess` (or any object with
        a compatible ``predict`` / ``to_model_scale`` interface).
    best_value:
        Best *raw* feasible objective value observed so far.
    feasibility_model:
        Optional model with ``predict_probability(configs) -> array``; when
        given, the EI of each configuration is multiplied by its probability
        of feasibility and configurations below ``feasibility_threshold`` are
        assigned an acquisition value of ``-inf``.
    noiseless:
        Use the noise-free predictive variance (BaCO's modified EI).
    kind:
        ``"ei"`` (default) or ``"lcb"``.
    """

    def __init__(
        self,
        model: GaussianProcess,
        best_value: float,
        feasibility_model: Any | None = None,
        feasibility_threshold: float = 0.0,
        noiseless: bool = True,
        kind: str = "ei",
        lcb_beta: float = 2.0,
        profiler: Any | None = None,
    ) -> None:
        if kind not in ("ei", "lcb"):
            raise ValueError(f"unknown acquisition kind {kind!r}")
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
        self.kind = kind
        self.lcb_beta = lcb_beta
        # The GP encodes with the (possibly transform-adjusted) model space,
        # the feasibility model with the original space.  When the two
        # layouts warp values identically, one encoded matrix serves both.
        self._shared_encoding = (
            feasibility_model is not None
            and hasattr(model, "encoder")
            and hasattr(feasibility_model, "encoder")
            and model.encoder.signature() == feasibility_model.encoder.signature()
        )

    def __call__(self, configurations: Sequence[Mapping[str, Any]]) -> np.ndarray:
        """Acquisition values (larger is better) for a batch of configurations.

        The batch is encoded once and pushed through a single GP predict
        call (and, when trained, a single feasibility-model pass).
        """
        if not configurations:
            return np.empty(0)
        rows = None
        if hasattr(self.model, "encoder"):
            rows = self.model.encoder.encode_batch(configurations)
            mean, variance = self.model.predict_rows(
                rows, include_noise=not self.noiseless
            )
        else:
            mean, variance = self.model.predict(
                configurations, include_noise=not self.noiseless
            )
        if self.kind == "ei":
            values = expected_improvement(mean, variance, self._best_model_scale)
        else:
            values = lower_confidence_bound(mean, variance, self.lcb_beta)
        if self.feasibility_model is not None and self.feasibility_model.is_trained:
            if self._shared_encoding and rows is not None:
                probability = self.feasibility_model.predict_probability_rows(rows)
            else:
                probability = self.feasibility_model.predict_probability(configurations)
            values = values * probability
            values = np.where(
                probability >= self.feasibility_threshold, values, -np.inf
            )
        return values

    def evaluate_rows(
        self,
        rows: np.ndarray,
        encoder: Any,
        cross_distance: np.ndarray | None = None,
    ) -> np.ndarray:
        """Acquisition values for pre-encoded rows in ``encoder``'s layout.

        The fast path of the row-space acquisition optimizer: when the GP's
        model-space encoding matches the search space's (``signature()``
        equality — true unless a transform ablation changes the warps), the
        candidate matrix flows straight into ``predict_rows`` and the
        feasibility RF without ever materializing configuration dicts.
        Mismatching layouts decode once and re-encode for the model — the
        correctness fallback for e.g. the no-transformations ablation.

        ``cross_distance`` — cached test-train cross tensor for ``rows`` (the
        persistent candidate pool's :class:`~repro.models.distances.
        CrossDistanceTensor` view); forwarded to
        :meth:`~repro.models.gp.GaussianProcess.predict_rows` on the
        shared-encoding fast path so the predict skips distance computation
        entirely.  Only valid when the model rows coincide with ``rows``
        (signature equality), which the caller guarantees.
        """
        if len(rows) == 0:
            return np.empty(0)
        include_noise = not self.noiseless
        profiler = self.profiler
        predict_phase = (
            profiler.phase("predict") if profiler is not None else nullcontext()
        )
        configurations = None
        with predict_phase:
            if (
                hasattr(self.model, "encoder")
                and self.model.encoder.signature() == encoder.signature()
            ):
                if cross_distance is not None:
                    mean, variance = self.model.predict_rows(
                        rows, include_noise=include_noise, cross_distance=cross_distance
                    )
                else:
                    # keyword omitted so duck-typed models with the plain
                    # two-argument predict_rows keep working
                    mean, variance = self.model.predict_rows(
                        rows, include_noise=include_noise
                    )
            else:
                configurations = encoder.decode_batch(rows)
                if hasattr(self.model, "encoder"):
                    mean, variance = self.model.predict_rows(
                        self.model.encoder.encode_batch(configurations),
                        include_noise=include_noise,
                    )
                else:
                    mean, variance = self.model.predict(
                        configurations, include_noise=include_noise
                    )
        ei_phase = profiler.phase("ei") if profiler is not None else nullcontext()
        with ei_phase:
            if self.kind == "ei":
                values = expected_improvement(mean, variance, self._best_model_scale)
            else:
                values = lower_confidence_bound(mean, variance, self.lcb_beta)
            if self.feasibility_model is not None and self.feasibility_model.is_trained:
                feas_phase = (
                    profiler.phase("feas_predict") if profiler is not None else nullcontext()
                )
                with feas_phase:
                    if (
                        hasattr(self.feasibility_model, "encoder")
                        and self.feasibility_model.encoder.signature() == encoder.signature()
                    ):
                        probability = self.feasibility_model.predict_probability_rows(rows)
                    else:
                        # duck-typed feasibility models (no encoder attribute)
                        # get the dict surface, mirroring __call__'s hasattr guard
                        if configurations is None:
                            configurations = encoder.decode_batch(rows)
                        probability = self.feasibility_model.predict_probability(
                            configurations
                        )
                values = values * probability
                values = np.where(
                    probability >= self.feasibility_threshold, values, -np.inf
                )
        return values

    def single(self, configuration: Mapping[str, Any]) -> float:
        return float(self([configuration])[0])


class FusedAcquisitionScorer:
    """Memoizing, buffer-reusing scorer for one acquisition maximization.

    Valid for the lifetime of a single ask: the surrogate, the incumbent, and
    the feasibility threshold ε_f are fixed, so every distinct candidate row
    maps to one acquisition value.  The scorer exploits that three ways:

    * **per-row memoization** — values are cached by ``row.tobytes()``, so
      climb steps that re-visit rows (overlapping neighbourhoods, re-climbed
      pool starts) never re-predict;
    * **fused batch pass** — the unseen rows of a batch go through a single
      predict → EI → feasibility-weighting pipeline
      (:meth:`AcquisitionFunction.evaluate_rows`), not one call per row;
    * **workspace reuse** — assembled values land in one preallocated buffer
      that grows monotonically, so the lockstep climb allocates nothing per
      step.  The returned array is a view into that workspace: consume it
      before the next ``score_rows`` call.

    :meth:`prime_pool` additionally accepts the pool's cached cross-distance
    tensor, turning the pool-scoring predict into a pure kernel-apply.
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

    def prime_pool(
        self, rows: np.ndarray, cross_distance: np.ndarray | None = None
    ) -> np.ndarray:
        """Score the candidate pool in one pass and seed the memo with it."""
        values = np.asarray(
            self._acquisition.evaluate_rows(
                rows, self._encoder, cross_distance=cross_distance
            ),
            dtype=float,
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

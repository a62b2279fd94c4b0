"""Gaussian-process surrogate model over mixed autotuning spaces.

This is a from-scratch GP built on numpy + scipy that implements the
customizations described in Sec. 3.2 of the BaCO paper:

* Matérn-5/2 kernel over a weighted combination of per-parameter distances
  (absolute / log difference, Hamming, permutation semimetrics);
* Gamma priors on the lengthscales, giving a MAP (rather than MLE) fit that
  prevents lengthscale collapse on discrete spaces;
* multistart hyper-parameter optimization: a batch of prior samples is
  scored, the best few are refined with L-BFGS-B;
* Gaussian observation noise, with prediction optionally excluding the noise
  term (used by the "noiseless EI" acquisition of Sec. 3.3);
* output standardization and optional log transformation of the objective.

The GP operates on **pre-encoded** configuration rows
(:class:`repro.space.encoding.ConfigEncoder`): :meth:`GaussianProcess.fit_rows`
/ :meth:`GaussianProcess.predict_rows` consume ``(n, width)`` float matrices
directly, and ``fit_rows`` accepts an externally cached train-train distance
tensor (see :class:`repro.models.distances.IncrementalDistanceTensor`) so the
per-iteration fit never recomputes the full pairwise structure; callers
holding configuration dicts encode them with :attr:`GaussianProcess.encoder`
first.  The train tensor is computed once per fit and shared, through
one MAP objective (:class:`_MapObjective`) built per fit, across every
hyper-parameter vector the search scores — only the kernel evaluation and
its factorization depend on the hyper-parameters.

Incremental refit
-----------------

Refitting from scratch every iteration is the last hot-path bottleneck: a
full fit is an O(n³) Cholesky factorization *per hyper-parameter objective
evaluation*, dozens of times per multistart MAP search.  Three cheaper refit
paths support the tuner's fast surrogate policy
(:class:`repro.core.baco.SurrogatePolicy`):

* :meth:`fit_rows` with ``hyper_strategy="warm"`` skips the prior sweep and
  runs a single L-BFGS refinement seeded from the previous optimum
  (``warm_start``); with ``hyper_strategy="sweep"`` a ``warm_start`` vector
  joins the multistart pool so the full search never regresses below the
  previous optimum.  ``"frozen"`` keeps the current hyper-parameters and
  only refactorizes.
* :meth:`extend_cholesky` grows the cached factor ``L`` by one row per new
  observation — an O(n²) triangular solve instead of an O(n³)
  refactorization — valid exactly when the hyper-parameters are unchanged.
* :meth:`refit_targets` re-standardizes the targets and recomputes ``alpha``
  against the (possibly extended) cached factor, completing an incremental
  "fit" without touching the kernel matrix at all.

:attr:`n_train_factorizations` counts full train-matrix factorizations so
tests can pin "one factorization per fit, zero per diagnostic call".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import linalg, optimize

from ..space.parameters import Parameter
from .distances import DistanceComputer
from .kernels import matern52, matern52_of_distance
from .priors import GammaLogDensities, GammaPrior

__all__ = ["GaussianProcess", "GPHyperparameters"]

_JITTER = 1e-8
_MIN_STD = 1e-12


@dataclass
class GPHyperparameters:
    """Kernel hyper-parameters: per-dimension lengthscales, outputscale, noise."""

    lengthscales: np.ndarray
    outputscale: float
    noise_variance: float

    def to_vector(self) -> np.ndarray:
        return np.log(
            np.concatenate([self.lengthscales, [self.outputscale, self.noise_variance]])
        )

    @classmethod
    def from_vector(cls, vector: np.ndarray) -> "GPHyperparameters":
        values = np.exp(np.asarray(vector, dtype=float))
        return cls(
            lengthscales=values[:-2],
            outputscale=float(values[-2]),
            noise_variance=float(values[-1]),
        )


class _MapObjective:
    """Negative log posterior of the GP hyper-parameters, for one fit.

    :meth:`GaussianProcess.fit_rows` builds one per fit and hands it to the
    prior-sample sweep, the ``warm_start`` score and every L-BFGS-B call.
    L-BFGS-B takes its gradient by finite differences, so a fit calls it
    hundreds of times; what does not depend on the hyper-parameter vector is
    set up here once:

    * a contiguous copy of the ``(D, n, n)`` train tensor, transposed in its
      last two axes, so that the row-major kernel buffer holds ``Kᵀ``.  Its
      transpose is ``K`` in the column-major order LAPACK works in, so
      ``potrf`` factors it in place and reads the lower triangle of ``K``;
    * the LAPACK ``potrf`` / ``potrs`` that ``scipy.linalg.cholesky`` /
      ``cho_solve`` call, without their argument checks and batch wrapper.

    The last vector scored in full is the *base*.  Its scaled slices
    ``(dᵢ/lᵢ)²``, their running sums along the parameter axis, its distance
    matrix and its noiseless kernel are kept, so the probes of a
    finite-difference gradient, which each change one coordinate of the base,
    skip the tensor build:

    * a lengthscale probe recomputes its slice ``i`` alone, adds it to the
      running sum through ``i − 1`` and then adds the base slices
      ``i + 1 … D − 1``: the additions, in the order, of the axis-0 sum of a
      full build, which adds the slices one after another;
    * an outputscale probe runs the Matérn stage on the base distance matrix;
    * a noise probe, or the base vector again, copies the base kernel.

    Any other vector is built in full (:meth:`_build_base`) and becomes the
    base.  The path depends only on the vector and the base, never on who
    calls, and each gives the bits of a full build.  The noise goes onto the
    diagonal in place.  That equals adding ``(σ² + jitter)·I``, whose
    off-diagonal terms only add +0.0.  ``K`` is still checked for NaN and inf
    on every call, as ``cholesky`` checks it, and ``y`` once per fit, so bad
    inputs raise ``ValueError`` at the same point as before.  Every float
    operation is the reference's, in its order, so the value is
    bit-identical; ``tests/test_gp_map_objective.py`` pins it.
    """

    def __init__(
        self, gp: "GaussianProcess", distance_tensor: np.ndarray, y: np.ndarray
    ) -> None:
        self._tensor = np.ascontiguousarray(np.swapaxes(distance_tensor, 1, 2))
        d, n = self._tensor.shape[0], len(y)
        self._kernel = np.empty((n, n))
        self._diagonal = self._kernel.reshape(-1)[:: n + 1]
        self._probe = np.empty((n, n))
        # the base: exp of its vector (NaN, equal to nothing, while unset),
        # its slices, their running sums (the first is slice 0 itself), its
        # distance matrix and its noiseless kernel
        self._no_base = np.full(d + 2, np.nan)
        self._base_values = self._no_base
        self._slices = np.empty_like(self._tensor)
        self._sums = [self._slices[0], *np.empty((d - 1, n, n))]
        self._base_distance = np.empty((n, n))
        self._base_kernel = np.empty((n, n))
        self._y = y
        self._y_finite = bool(np.isfinite(y).all())
        self._log_2pi_term = 0.5 * n * math.log(2.0 * math.pi)
        # exp(vector) holds the lengthscales, the outputscale and the noise;
        # their prior terms are subtracted in the order lengthscales, noise,
        # outputscale, and a missing prior drops its entries
        index: list[int] = []
        priors: list[GammaPrior] = []
        for entries, prior in (
            (range(d), gp.lengthscale_prior),
            ([d + 1], gp.noise_prior),
            ([d], gp.outputscale_prior),
        ):
            if prior is not None:
                index += entries
                priors += [prior] * len(entries)
        self._n_lengthscale_terms = d if gp.lengthscale_prior is not None else 0
        self._prior_index = np.array(index, dtype=np.intp)
        self._log_priors = GammaLogDensities(priors)
        self._potrf, self._potrs = linalg.get_lapack_funcs(
            ("potrf", "potrs"), (self._kernel,)
        )

    def __call__(self, vector: np.ndarray) -> float:
        # GPHyperparameters.from_vector, keeping the exp'd vector for the priors
        values = np.exp(np.asarray(vector, dtype=float))
        k_t = self._noiseless_kernel(values)
        self._diagonal += float(values[-1]) + _JITTER
        if not np.isfinite(k_t).all():
            raise ValueError("array must not contain infs or NaNs")
        chol, info = self._potrf(k_t.T, lower=1, overwrite_a=1, clean=0)
        if info > 0:  # not positive definite
            return 1e25
        if not self._y_finite:
            raise ValueError("array must not contain infs or NaNs")
        alpha, solve_info = self._potrs(chol, self._y, lower=1)
        if info or solve_info:
            raise ValueError(f"LAPACK rejected an argument (info {info}, {solve_info})")
        nll = 0.5 * float(self._y @ alpha)
        nll += float(np.sum(np.log(np.diag(chol))))
        nll += self._log_2pi_term
        if len(self._prior_index):
            log_prior = self._log_priors(values[self._prior_index])
            n_lengthscales = self._n_lengthscale_terms
            if n_lengthscales:
                nll -= float(np.sum(log_prior[:n_lengthscales]))
            for term in log_prior[n_lengthscales:].tolist():
                nll -= term
        if not math.isfinite(nll):
            return 1e25
        return nll

    def _noiseless_kernel(self, values: np.ndarray) -> np.ndarray:
        """``Kᵀ`` without the noise for ``exp(vector)``, in the kernel buffer."""
        d = len(self._sums)
        changed = (values != self._base_values).nonzero()[0]
        if len(changed) == 1 and changed[0] < d:
            return self._lengthscale_probe(values, int(changed[0]))
        if len(changed) == 1 and changed[0] == d:
            return matern52_of_distance(
                self._base_distance, float(values[d]), out=self._kernel
            )
        if len(changed) > 1:
            self._build_base(values)
        # a new base, a noise probe or the base vector again
        np.copyto(self._kernel, self._base_kernel)
        return self._kernel

    def _build_base(self, values: np.ndarray) -> None:
        """Build every base array for ``values``, then make it the base."""
        d = len(self._sums)
        self._base_values = self._no_base  # the arrays below stop matching it
        np.divide(self._tensor, values[:d].reshape(-1, 1, 1), out=self._slices)
        np.square(self._slices, out=self._slices)
        for j in range(1, d):
            np.add(self._sums[j - 1], self._slices[j], out=self._sums[j])
        np.sqrt(self._sums[-1], out=self._base_distance)
        matern52_of_distance(self._base_distance, float(values[d]), out=self._base_kernel)
        self._base_values = values

    def _lengthscale_probe(self, values: np.ndarray, i: int) -> np.ndarray:
        """The base with lengthscale ``i`` replaced; writes no base array."""
        total = np.divide(self._tensor[i], values[i], out=self._probe)
        np.square(total, out=total)
        if i:
            np.add(self._sums[i - 1], total, out=total)
        for base_slice in self._slices[i + 1 :]:
            np.add(total, base_slice, out=total)
        np.sqrt(total, out=total)
        return matern52_of_distance(total, float(values[len(self._sums)]), out=self._kernel)


class GaussianProcess:
    """GP regressor over encoded configuration rows.

    Parameters
    ----------
    parameters:
        The search-space parameters; they define the per-dimension distances.
    lengthscale_prior:
        Gamma prior applied to every lengthscale; ``None`` disables the prior
        (the "no model priors" ablation of Fig. 9).
    log_transform_output:
        Model ``log(y)`` instead of ``y`` -- appropriate for runtimes, which
        span orders of magnitude.  Disabled in the BaCO-- ablation.
    standardize_output:
        Standardize the (possibly log-transformed) targets before fitting.
    n_prior_samples / n_refined_starts / max_optimizer_iterations:
        Controls for the multistart MAP hyper-parameter search.
    advanced_fit:
        When ``False``, skip the L-BFGS refinement and use a single median
        hyper-parameter setting -- the "less advanced GP fitting" used by the
        BaCO-- variant of Fig. 8.
    distance_computer:
        Optional shared :class:`DistanceComputer`; pass one to reuse its
        encoder (and scales) across GP instances, e.g. when the tuner
        re-creates the surrogate every iteration against one incremental
        distance cache.
    """

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lengthscale_prior: GammaPrior | None = GammaPrior(shape=2.0, rate=2.0),
        noise_prior: GammaPrior | None = GammaPrior(shape=1.1, rate=20.0),
        outputscale_prior: GammaPrior | None = GammaPrior(shape=2.0, rate=1.0),
        log_transform_output: bool = True,
        standardize_output: bool = True,
        n_prior_samples: int = 16,
        n_refined_starts: int = 2,
        max_optimizer_iterations: int = 25,
        advanced_fit: bool = True,
        rng: np.random.Generator | None = None,
        distance_computer: DistanceComputer | None = None,
    ) -> None:
        self.parameters = list(parameters)
        self.lengthscale_prior = lengthscale_prior
        self.noise_prior = noise_prior
        self.outputscale_prior = outputscale_prior
        self.log_transform_output = log_transform_output
        self.standardize_output = standardize_output
        self.n_prior_samples = n_prior_samples
        self.n_refined_starts = n_refined_starts
        self.max_optimizer_iterations = max_optimizer_iterations
        self.advanced_fit = advanced_fit
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._distance = (
            distance_computer
            if distance_computer is not None
            else DistanceComputer(self.parameters)
        )
        self.encoder = self._distance.encoder

        self.hyperparameters: GPHyperparameters | None = None
        self._train_rows: np.ndarray | None = None
        self._train_distance: np.ndarray | None = None
        self._cholesky: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._train_y: np.ndarray | None = None
        self._y_mean = 0.0
        self._y_std = 1.0
        #: rows covered by the cached factor ``L`` (== len of _cholesky)
        self._chol_n = 0
        #: rows covered by the last *full* factorization; rows beyond this
        #: were appended by rank-1 extension.  The tuner snapshots this so a
        #: restore can replay the exact same factorize-then-extend sequence.
        self._chol_base_n = 0
        #: full train-matrix factorizations performed so far (diagnostics;
        #: hyper-parameter search factorizations are not counted)
        self.n_train_factorizations = 0

    # ------------------------------------------------------------------
    # target transforms
    # ------------------------------------------------------------------
    def _transform_targets(self, y: np.ndarray) -> tuple[np.ndarray, float, float]:
        """Model-scale targets with the mean and std that produced them."""
        y = np.asarray(y, dtype=float)
        if self.log_transform_output:
            if np.any(y <= 0):
                raise ValueError("log transform of the objective requires positive values")
            y = np.log(y)
        mean = float(np.mean(y)) if self.standardize_output else 0.0
        std = float(np.std(y)) if self.standardize_output else 1.0
        if std < _MIN_STD:
            std = 1.0
        return (y - mean) / std, mean, std

    def to_model_scale(self, y: float | np.ndarray) -> np.ndarray:
        """Map raw objective values to the (log, standardized) model scale."""
        y = np.asarray(y, dtype=float)
        if self.log_transform_output:
            y = np.log(y)
        return (y - self._y_mean) / self._y_std

    def from_model_scale(self, y: float | np.ndarray) -> np.ndarray:
        """Map model-scale values back to the raw objective scale."""
        y = np.asarray(y, dtype=float) * self._y_std + self._y_mean
        if self.log_transform_output:
            y = np.exp(y)
        return y

    # ------------------------------------------------------------------
    # kernel matrix and hyper-parameter search space
    # ------------------------------------------------------------------
    def _kernel_matrix(
        self, distance: np.ndarray, hp: GPHyperparameters, noise: bool
    ) -> np.ndarray:
        k = matern52(distance, hp.lengthscales, hp.outputscale)
        if noise:
            n = k.shape[0]
            k = k + (hp.noise_variance + _JITTER) * np.eye(n)
        return k

    def _hyper_bounds(self) -> list[tuple[float, float]]:
        d = self._distance.n_dimensions
        bounds = [(math.log(1e-3), math.log(1e3))] * d
        bounds += [(math.log(1e-3), math.log(1e3))]  # outputscale
        bounds += [(math.log(1e-8), math.log(1.0))]  # noise variance
        return bounds

    def _sample_hyperparameters(self) -> GPHyperparameters:
        d = self._distance.n_dimensions
        ls_prior = self.lengthscale_prior or GammaPrior(2.0, 2.0)
        lengthscales = np.clip(ls_prior.sample(self._rng, size=d), 1e-3, 1e3)
        out_prior = self.outputscale_prior or GammaPrior(2.0, 1.0)
        noise_prior = self.noise_prior or GammaPrior(1.1, 20.0)
        outputscale = float(np.clip(out_prior.sample(self._rng, size=1)[0], 1e-3, 1e3))
        noise = float(np.clip(noise_prior.sample(self._rng, size=1)[0], 1e-6, 1.0))
        return GPHyperparameters(lengthscales, outputscale, noise)

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------
    def fit_rows(
        self,
        rows: np.ndarray,
        targets: Sequence[float],
        distance_tensor: np.ndarray | None = None,
        hyper_strategy: str = "sweep",
        warm_start: np.ndarray | None = None,
    ) -> None:
        """Fit the GP on pre-encoded configuration rows.

        ``distance_tensor`` — when the caller maintains the train-train
        distance tensor incrementally (one cross block per new observation),
        passing it here skips the full pairwise recomputation.  It must be
        the ``(D, n, n)`` tensor of ``rows``.

        ``hyper_strategy`` selects how the kernel hyper-parameters are found:

        * ``"sweep"`` (default) — the full multistart MAP search: score
          ``n_prior_samples`` prior draws, refine the best few with L-BFGS-B.
          A ``warm_start`` log-vector, when given, joins the candidate pool so
          the search never regresses below the previous optimum.  With
          ``warm_start=None`` this path is byte-identical to the historical
          behavior (same RNG consumption, same arithmetic).
        * ``"warm"`` — skip the prior sweep; run a single L-BFGS-B refinement
          seeded from ``warm_start`` (or the current hyper-parameters).
          Consumes no RNG.
        * ``"frozen"`` — keep the current hyper-parameters, only refactorize.
          Used to rebuild the factor deterministically on snapshot restore.
        """
        if hyper_strategy not in ("sweep", "warm", "frozen"):
            raise ValueError(
                f"unknown hyper_strategy {hyper_strategy!r}; "
                "choose from 'sweep', 'warm', 'frozen'"
            )
        rows = np.asarray(rows, dtype=float)
        if len(rows) != len(targets):
            raise ValueError("configurations and targets must have the same length")
        if len(rows) < 2:
            raise ValueError("need at least two observations to fit a GP")
        # everything is computed into locals and committed only after the
        # final factorization, so a fit that raises leaves the GP as it was
        y, y_mean, y_std = self._transform_targets(targets)
        if distance_tensor is not None:
            expected = (self._distance.n_dimensions, len(rows), len(rows))
            if distance_tensor.shape != expected:
                raise ValueError(
                    f"distance tensor has shape {distance_tensor.shape}, expected {expected}"
                )
        else:
            distance_tensor = self._distance.pairwise_rows(rows)

        if hyper_strategy == "frozen":
            if self.hyperparameters is None:
                raise RuntimeError("hyper_strategy='frozen' requires a previous fit")
            hyperparameters = self.hyperparameters
        else:
            if hyper_strategy == "warm" and warm_start is None:
                if self.hyperparameters is None:
                    raise RuntimeError(
                        "hyper_strategy='warm' requires warm_start or a previous fit"
                    )
                warm_start = self.hyperparameters.to_vector()
            objective = _MapObjective(self, distance_tensor, y)
            hyperparameters = self._map_search(objective, hyper_strategy, warm_start)

        k = self._kernel_matrix(distance_tensor, hyperparameters, noise=True)
        cholesky = linalg.cholesky(k, lower=True)
        alpha = linalg.cho_solve((cholesky, True), y)
        self.hyperparameters = hyperparameters
        self._train_rows = rows
        self._train_distance = distance_tensor
        self._y_mean, self._y_std = y_mean, y_std
        self._cholesky, self._alpha, self._train_y = cholesky, alpha, y
        self._chol_n = self._chol_base_n = len(rows)
        self.n_train_factorizations += 1

    def _map_search(
        self,
        objective: _MapObjective,
        hyper_strategy: str,
        warm_start: np.ndarray | None,
    ) -> GPHyperparameters:
        """MAP hyper-parameters by the ``"sweep"`` or ``"warm"`` strategy."""
        if hyper_strategy == "warm":
            start = np.asarray(warm_start, dtype=float)
            candidates, n_refined = [(objective(start), start)], 1
        else:
            candidates, n_refined = [], self.n_refined_starts
            for _ in range(self.n_prior_samples):
                vec = self._sample_hyperparameters().to_vector()
                candidates.append((objective(vec), vec))
            if warm_start is not None:
                vec = np.asarray(warm_start, dtype=float)
                candidates.append((objective(vec), vec))
            candidates.sort(key=lambda item: item[0])
        if not self.advanced_fit:
            # BaCO--: no gradient refinement, just the best prior sample.
            return GPHyperparameters.from_vector(candidates[0][1])
        best_value, best_vector = candidates[0]
        for _, start in candidates[:n_refined]:
            result = optimize.minimize(
                objective,
                start,
                method="L-BFGS-B",
                bounds=self._hyper_bounds(),
                options={"maxiter": self.max_optimizer_iterations},
            )
            if result.fun < best_value:
                best_value, best_vector = float(result.fun), result.x
        return GPHyperparameters.from_vector(best_vector)

    @property
    def is_fitted(self) -> bool:
        return self._alpha is not None

    # ------------------------------------------------------------------
    # incremental refit
    # ------------------------------------------------------------------
    def extend_cholesky(self, rows: np.ndarray, distance_tensor: np.ndarray) -> bool:
        """Grow the cached Cholesky factor to cover ``rows`` without refactorizing.

        ``rows`` is the *full* ``(m, width)`` training matrix and
        ``distance_tensor`` the full ``(D, m, m)`` tensor (typically the views
        of an :class:`~repro.models.distances.IncrementalDistanceTensor`); the
        cached factor currently covers the first ``self._chol_n`` rows and is
        extended one row at a time:

        .. math::

            b = L^{-1} k_{1:i},\\qquad
            \\ell_{ii} = \\sqrt{k_{ii} + \\sigma_n^2 + \\epsilon - b^\\top b}

        an O(i²) triangular solve per row instead of an O(m³)
        refactorization.  Valid exactly when the hyper-parameters are
        unchanged since the factor was built.  Returns ``True`` when every
        row was added incrementally; if a pivot goes non-positive (the
        extension is numerically unsafe) the method falls back to one full
        refactorization of the whole tensor and returns ``False``.

        Invalidates ``alpha`` — call :meth:`refit_targets` afterwards.
        """
        if self._cholesky is None or self.hyperparameters is None:
            raise RuntimeError("extend_cholesky() requires a previous fit")
        rows = np.asarray(rows, dtype=float)
        distance_tensor = np.asarray(distance_tensor, dtype=float)
        m = len(rows)
        if m < self._chol_n:
            raise ValueError(
                f"got {m} rows but the cached factor already covers {self._chol_n}"
            )
        expected = (self._distance.n_dimensions, m, m)
        if distance_tensor.shape != expected:
            raise ValueError(
                f"distance tensor has shape {distance_tensor.shape}, expected {expected}"
            )
        hp = self.hyperparameters
        diag = hp.outputscale + (hp.noise_variance + _JITTER)
        L = self._cholesky
        extended = True
        for i in range(self._chol_n, m):
            k_vec = matern52(distance_tensor[:, i, :i], hp.lengthscales, hp.outputscale)
            b = linalg.solve_triangular(L, k_vec, lower=True)
            pivot = diag - float(b @ b)
            if pivot <= 0.0:
                extended = False
                break
            grown = np.zeros((i + 1, i + 1))
            grown[:i, :i] = L
            grown[i, :i] = b
            grown[i, i] = math.sqrt(pivot)
            L = grown
        if extended:
            self._cholesky = L
            self._chol_n = m
        else:
            k = self._kernel_matrix(distance_tensor, hp, noise=True)
            self._cholesky = linalg.cholesky(k, lower=True)
            self._chol_n = self._chol_base_n = m
            self.n_train_factorizations += 1
        self._train_rows = rows
        self._train_distance = distance_tensor
        self._alpha = None
        self._train_y = None
        return extended

    def refit_targets(self, targets: Sequence[float]) -> None:
        """Recompute the target transform and ``alpha`` against the cached factor.

        The kernel matrix is independent of the targets, so after
        :meth:`extend_cholesky` this completes an incremental refit in O(n²)
        — no kernel evaluation, no factorization.
        """
        if self._cholesky is None:
            raise RuntimeError("refit_targets() requires a previous fit")
        targets = np.asarray(targets, dtype=float)
        if len(targets) != self._chol_n:
            raise ValueError(
                f"got {len(targets)} targets for a factor covering {self._chol_n} rows"
            )
        y, y_mean, y_std = self._transform_targets(targets)
        self._alpha = linalg.cho_solve((self._cholesky, True), y)
        self._y_mean, self._y_std, self._train_y = y_mean, y_std, y

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def predict_rows(
        self, rows: np.ndarray, include_noise: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Predictive mean and variance for pre-encoded rows (model scale).

        One vectorized cross-distance + kernel evaluation for the whole
        batch.  ``include_noise=False`` returns the latent (noise-free)
        predictive variance used by BaCO's modified EI, which discourages
        re-sampling already-observed configurations.
        """
        if not self.is_fitted:
            raise RuntimeError("predict_rows() called before fit_rows()")
        hp = self.hyperparameters
        cross = self._distance.pairwise_rows(np.asarray(rows, dtype=float), self._train_rows)
        k_star = matern52(cross, hp.lengthscales, hp.outputscale)
        mean = k_star @ self._alpha
        v = linalg.solve_triangular(self._cholesky, k_star.T, lower=True)
        prior_var = hp.outputscale
        var = prior_var - np.sum(v**2, axis=0)
        var = np.maximum(var, 1e-12)
        if include_noise:
            var = var + hp.noise_variance
        return mean, var

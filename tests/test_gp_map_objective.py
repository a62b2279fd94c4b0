"""The GP's MAP objective against its reference oracles.

``GaussianProcess.fit_rows`` scores hyper-parameter vectors with
``repro.models.gp._MapObjective``, which preallocates its arrays once per
fit, builds only the triangle of the kernel LAPACK reads and calls LAPACK
directly; for L-BFGS-B (``jac=True``) it also returns the closed-form
gradient, from ``K⁻¹`` taken with ``potri``.
:func:`reference_negative_log_posterior` below is the straightforward form
the value replaced: an allocating kernel build, ``K + (σ² + jitter)·I``,
``scipy.linalg.cholesky`` / ``cho_solve`` and ``scipy.stats.gamma.logpdf``
priors.  The objective must equal it exactly — ``==`` on floats, no
tolerance — because every trajectory, fixture and checkpoint depends on
the hyper-parameters the fit lands on.  The gradient is pinned to central
differences of that value and to ``map_gradient_reference`` in
``tests/oracles.py``, the same closed form on dense allocating matrices,
each within the rounding error the kernel's conditioning allows.

Also here: the fused prior term ``GammaLogDensities`` and its per-prior
oracle ``gamma_log_pdf`` against ``scipy.stats.gamma.logpdf``, the Matérn
kernel and its distance-to-kernel stage against the allocating formula, the
errors a fit raises on non-finite input, and a failed fit leaving the GP
unchanged.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg, stats
from scipy.optimize._numdiff import approx_derivative

import repro.models.gp as gp_module
from repro.core.baco import BacoSettings, BacoTuner
from repro.core.result import ObjectiveResult
from repro.models.distances import DistanceComputer, IncrementalDistanceTensor
from repro.models.gp import GaussianProcess, GPHyperparameters, _MapObjective
from repro.models.kernels import matern52, matern52_of_distance, scaled_distance
from repro.models.priors import GammaLogDensities, GammaPrior
from repro.space.parameters import (
    CategoricalParameter,
    IntegerParameter,
    OrdinalParameter,
    PermutationParameter,
    RealParameter,
)
from repro.space.space import SearchSpace

from oracles import gamma_log_pdf, log_likelihood, map_gradient_reference, sample_value

# ---------------------------------------------------------------------------
# the reference oracle
# ---------------------------------------------------------------------------


def reference_kernel(
    distance_tensor: np.ndarray, lengthscales: np.ndarray, outputscale: float
) -> np.ndarray:
    """The Matérn-5/2 kernel as allocating numpy expressions, one temporary
    per step."""
    distance_tensor = np.asarray(distance_tensor, dtype=float)
    lengthscales = np.asarray(lengthscales, dtype=float)
    lengthscales = lengthscales.reshape(-1, *([1] * (distance_tensor.ndim - 1)))
    scaled = distance_tensor / lengthscales
    d = np.sqrt(np.sum(scaled**2, axis=0))
    sqrt5_d = np.sqrt(5.0) * d
    return outputscale * (1.0 + sqrt5_d + (5.0 / 3.0) * d**2) * np.exp(-sqrt5_d)


def reference_log_pdf(prior: GammaPrior, value):
    value = np.asarray(value, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        lp = stats.gamma.logpdf(value, a=prior.shape, scale=1.0 / prior.rate)
    return lp if lp.shape else float(lp)


def reference_negative_log_posterior(
    gp: GaussianProcess, distance_tensor: np.ndarray, vector: np.ndarray, y: np.ndarray
) -> float:
    """Negative log posterior of ``vector``, computed the straightforward way."""
    hp = GPHyperparameters.from_vector(vector)
    k = reference_kernel(distance_tensor, hp.lengthscales, hp.outputscale)
    k = k + (hp.noise_variance + 1e-8) * np.eye(k.shape[0])
    try:
        chol = linalg.cholesky(k, lower=True)
    except linalg.LinAlgError:
        return 1e25
    alpha = linalg.cho_solve((chol, True), y)
    n = len(y)
    nll = 0.5 * float(y @ alpha)
    nll += float(np.sum(np.log(np.diag(chol))))
    nll += 0.5 * n * math.log(2.0 * math.pi)
    if gp.lengthscale_prior is not None:
        nll -= float(np.sum(reference_log_pdf(gp.lengthscale_prior, hp.lengthscales)))
    if gp.noise_prior is not None:
        nll -= float(np.sum(reference_log_pdf(gp.noise_prior, hp.noise_variance)))
    if gp.outputscale_prior is not None:
        nll -= float(np.sum(reference_log_pdf(gp.outputscale_prior, hp.outputscale)))
    if not np.isfinite(nll):
        return 1e25
    return nll


class _ReferenceObjective:
    """Drop-in for ``_MapObjective`` that evaluates the oracles, one vector
    at a time: the value of :func:`reference_negative_log_posterior` and the
    gradient of ``map_gradient_reference``."""

    calls = 0

    def __init__(self, gp, distance_tensor, y):
        self._args = (gp, distance_tensor, y)

    def __call__(self, vector):
        type(self).calls += 1
        gp, distance_tensor, y = self._args
        return reference_negative_log_posterior(gp, distance_tensor, vector, y)

    def value_and_gradient(self, vector):
        return self(vector), map_gradient_reference(*self._args[:2], vector, self._args[2])


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# data
# ---------------------------------------------------------------------------

_MAKERS = (
    lambda i: RealParameter(f"r{i}", 0.5, 4.0),
    lambda i: IntegerParameter(f"i{i}", 1, 9),
    lambda i: OrdinalParameter(f"o{i}", [2, 4, 8, 16, 32], transform="log"),
    lambda i: CategoricalParameter(f"c{i}", ["x", "y", "z"]),
    lambda i: PermutationParameter(f"p{i}", 3),
)


def _parameters(kinds):
    return [_MAKERS[kind](i) for i, kind in enumerate(kinds)]


def _train_tensor(computer, rows, strided):
    """The ``(D, n, n)`` tensor of ``rows``: a fresh contiguous array, or the
    strided view into an :class:`IncrementalDistanceTensor` buffer the tuner
    passes (one row appended at a time, one spare row so the view never
    covers the whole buffer)."""
    if not strided:
        return computer.pairwise_rows(rows)
    cache = IncrementalDistanceTensor(computer)
    for row in np.vstack([rows, rows[:1]]):
        cache.append(row[None, :])
    n = len(rows)
    tensor = cache.tensor[:, :n, :n]
    assert not tensor.flags.c_contiguous
    return tensor


def _path_tensor(depth, n):
    """A tensor no kernel is positive definite on: rows ``i`` and ``i+1`` at
    distance 0, every other pair far apart, so ``K ≈ σ_f·(I + A)`` with ``A``
    the adjacency matrix of a path, whose least eigenvalue is near ``-σ_f``."""
    far = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) > 1
    return np.broadcast_to(np.where(far, 1e3, 0.0), (depth, n, n)).copy()


def _dataset(parameters, seed, n):
    rng = np.random.default_rng(seed)
    configs = [{p.name: sample_value(p, rng) for p in parameters} for _ in range(n)]
    values = [float(v) for v in rng.uniform(0.5, 5.0, size=n)]
    return configs, values


def _gp(parameters, computer, seed=0, ls_prior=True, **kwargs):
    kwargs.setdefault("n_prior_samples", 4)
    kwargs.setdefault("n_refined_starts", 1)
    kwargs.setdefault("max_optimizer_iterations", 10)
    return GaussianProcess(
        parameters,
        lengthscale_prior=GammaPrior(2.0, 2.0) if ls_prior else None,
        rng=np.random.default_rng(seed),
        distance_computer=computer,
        **kwargs,
    )


# ---------------------------------------------------------------------------
# the objective
# ---------------------------------------------------------------------------


class TestMapObjective:
    @given(
        kinds=st.lists(st.integers(0, len(_MAKERS) - 1), min_size=1, max_size=12),
        n=st.integers(2, 130),
        seed=st.integers(0, 2**31 - 1),
        strided=st.booleans(),
        ls_prior=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_reference_exactly(self, kinds, n, seed, strided, ls_prior, data):
        parameters = _parameters(kinds)
        computer = DistanceComputer(parameters)
        configs, _ = _dataset(parameters, seed, n)
        tensor = _train_tensor(computer, computer.encoder.encode_batch(configs), strided)
        y = np.random.default_rng(seed).normal(size=n)
        gp = _gp(parameters, computer, ls_prior=ls_prior)
        objective = _MapObjective(gp, tensor, y)
        bounds = gp._hyper_bounds()
        for _ in range(3):
            vector = np.array(
                [data.draw(st.floats(low, high), label="v") for low, high in bounds]
            )
            expected = reference_negative_log_posterior(gp, tensor, vector, y)
            assert objective(vector) == expected

    @pytest.mark.parametrize(
        "missing",
        [("lengthscale_prior",), ("noise_prior",), ("outputscale_prior",),
         ("lengthscale_prior", "noise_prior", "outputscale_prior")],
        ids=["lengthscale", "noise", "outputscale", "all"],
    )
    def test_a_missing_prior_drops_its_terms(self, missing):
        parameters = _parameters([0, 1, 2, 3, 4])
        computer = DistanceComputer(parameters)
        configs, _ = _dataset(parameters, 3, 20)
        tensor = computer.pairwise_rows(computer.encoder.encode_batch(configs))
        y = np.random.default_rng(3).normal(size=20)
        gp = _gp(
            parameters, computer, ls_prior="lengthscale_prior" not in missing,
            **{name: None for name in missing if name != "lengthscale_prior"},
        )
        objective = _MapObjective(gp, tensor, y)
        rng = np.random.default_rng(9)
        for _ in range(20):
            vector = np.array([rng.uniform(low, high) for low, high in gp._hyper_bounds()])
            assert objective(vector) == reference_negative_log_posterior(gp, tensor, vector, y)

    def test_scores_an_indefinite_kernel_1e25(self):
        """A leading minor that is not positive definite scores 1e25, as
        ``LinAlgError`` did."""
        parameters = [OrdinalParameter("t", [1, 2, 4, 8])]
        computer = DistanceComputer(parameters)
        gp = _gp(parameters, computer)
        tensor = _path_tensor(1, 20)
        y = np.random.default_rng(5).normal(size=20)
        vector = np.array([0.0, 0.0, math.log(1e-8)])
        assert reference_negative_log_posterior(gp, tensor, vector, y) == 1e25
        assert _MapObjective(gp, tensor, y)(vector) == 1e25


def _objective_case(kinds, seed, n):
    parameters = _parameters(kinds)
    computer = DistanceComputer(parameters)
    configs, _ = _dataset(parameters, seed, n)
    tensor = computer.pairwise_rows(computer.encoder.encode_batch(configs))
    y = np.random.default_rng(seed).normal(size=n)
    return _gp(parameters, computer), tensor, y


def _condition_number(tensor, vector):
    """The 2-norm condition number of the oracle's ``K`` at ``vector``."""
    hp = GPHyperparameters.from_vector(vector)
    k = reference_kernel(tensor, hp.lengthscales, hp.outputscale)
    return float(np.linalg.cond(k + (hp.noise_variance + 1e-8) * np.eye(len(k))))


#: the central-difference step, in the log hyper-parameters
_H = 1e-5
_EPS = float(np.finfo(float).eps)


class TestGradient:
    """L-BFGS-B takes its gradient from ``value_and_gradient``.

    A score is computed through a Cholesky solve, whose rounding error is
    of order ``κ·ε·|f|`` for a kernel of condition number ``κ``; the
    difference quotient divides it by ``2h``, and the dense oracle's
    ``K⁻¹`` differs from ``potri``'s by ``κ·ε`` relative.  Each comparison
    below is relative 1e-6 (central differences) or 1e-9 (the oracle) plus
    that rounding term, which is negligible on a well-conditioned kernel
    and leaves an ill-conditioned one loosely checked."""

    @given(
        kinds=st.lists(st.integers(0, len(_MAKERS) - 1), min_size=1, max_size=12),
        n=st.integers(2, 130),
        seed=st.integers(0, 2**31 - 1),
        strided=st.booleans(),
        ls_prior=st.booleans(),
        data=st.data(),
    )
    @settings(deadline=None)
    def test_equals_central_differences_and_the_dense_reference(
        self, kinds, n, seed, strided, ls_prior, data
    ):
        parameters = _parameters(kinds)
        computer = DistanceComputer(parameters)
        configs, _ = _dataset(parameters, seed, n)
        tensor = _train_tensor(computer, computer.encoder.encode_batch(configs), strided)
        y = np.random.default_rng(seed).normal(size=n)
        gp = _gp(parameters, computer, ls_prior=ls_prior)
        objective = _MapObjective(gp, tensor, y)
        vector = np.array(
            [data.draw(st.floats(low, high), label="v") for low, high in gp._hyper_bounds()]
        )
        value, gradient = objective.value_and_gradient(vector)
        assert value == reference_negative_log_posterior(gp, tensor, vector, y)
        reference = map_gradient_reference(gp, tensor, vector, y)
        if value == 1e25:
            assert not gradient.any() and not reference.any()
            return
        kappa = _condition_number(tensor, vector)
        tolerance = 1e-9 * np.maximum(1.0, np.abs(reference))
        tolerance += kappa * _EPS * np.abs(reference).max()
        assert (np.abs(gradient - reference) <= tolerance).all()
        for i, entry in enumerate(gradient):
            up, down = vector.copy(), vector.copy()
            up[i] += _H
            down[i] -= _H
            scores = objective(up), objective(down)
            if 1e25 in scores:  # K stops being positive definite within a step
                continue
            difference = (scores[0] - scores[1]) / (up[i] - down[i])
            tolerance = 1e-6 * max(1.0, abs(difference))
            tolerance += kappa * _EPS * max(1.0, abs(value)) / _H
            assert abs(entry - difference) <= tolerance

    @pytest.mark.parametrize(
        "missing",
        [("lengthscale_prior",), ("noise_prior",), ("outputscale_prior",),
         ("lengthscale_prior", "noise_prior", "outputscale_prior")],
        ids=["lengthscale", "noise", "outputscale", "all"],
    )
    def test_a_missing_prior_drops_its_slope(self, missing):
        parameters = _parameters([0, 1, 2, 3, 4])
        computer = DistanceComputer(parameters)
        configs, _ = _dataset(parameters, 3, 20)
        tensor = computer.pairwise_rows(computer.encoder.encode_batch(configs))
        y = np.random.default_rng(3).normal(size=20)
        gp = _gp(
            parameters, computer, ls_prior="lengthscale_prior" not in missing,
            **{name: None for name in missing if name != "lengthscale_prior"},
        )
        objective = _MapObjective(gp, tensor, y)
        rng = np.random.default_rng(9)
        for _ in range(20):
            vector = np.array([rng.uniform(low, high) for low, high in gp._hyper_bounds()])
            reference = map_gradient_reference(gp, tensor, vector, y)
            kappa = _condition_number(tensor, vector)
            tolerance = 1e-9 * np.maximum(1.0, np.abs(reference))
            tolerance += kappa * _EPS * np.abs(reference).max()
            gradient = objective.value_and_gradient(vector)[1]
            assert (np.abs(gradient - reference) <= tolerance).all()

    def test_an_indefinite_kernel_scores_1e25_with_a_zero_gradient(self):
        parameters = [OrdinalParameter("t", [1, 2, 4, 8]), IntegerParameter("u", 1, 9)]
        computer = DistanceComputer(parameters)
        gp = _gp(parameters, computer)
        tensor = _path_tensor(2, 20)
        y = np.random.default_rng(5).normal(size=20)
        objective = _MapObjective(gp, tensor, y)
        vector = np.array([0.3, -0.2, -1.0, math.log(1e-8)])
        assert reference_negative_log_posterior(gp, tensor, vector, y) == 1e25
        value, gradient = objective.value_and_gradient(vector)
        assert value == 1e25
        assert _same_bits(gradient, np.zeros(4))
        # potrf overwrote only the buffer, so the next vector still matches
        definite = np.zeros(4)  # K = I + A on the path; noise 1 keeps it definite
        assert objective(definite) == reference_negative_log_posterior(gp, tensor, definite, y)
        assert objective.value_and_gradient(definite)[1].any()

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", [(2, 5), (5, 2)], ids=["upper", "lower"])
    def test_a_non_finite_tensor_entry_raises_on_every_call(self, bad, entry):
        """One planted entry, in either triangle, raises on the first call
        and on a gradient, as it does in the oracle's full ``K``: the packed
        kernel reads only the lower triangle, so the tensor is checked on
        its own."""
        gp, tensor, y = _objective_case([0, 1, 2, 3], 6, 12)
        tensor[(1, *entry)] = bad
        objective = _MapObjective(gp, tensor, y)
        base = np.zeros(len(gp._hyper_bounds()))
        with pytest.raises(ValueError, match="infs or NaNs"):
            reference_negative_log_posterior(gp, tensor, base, y)
        with pytest.raises(ValueError, match="infs or NaNs"):
            objective(base)
        with pytest.raises(ValueError, match="infs or NaNs"):
            objective.value_and_gradient(base)

    def test_a_vector_outside_the_bounds_raises_as_scipy_does(self):
        gp, tensor, y = _objective_case([0, 3], 7, 10)
        objective = _MapObjective(gp, tensor, y)
        bounds = gp._hyper_bounds()
        outside = np.zeros(len(bounds))
        outside[-1] = bounds[-1][1] + 1e-8
        with pytest.raises(ValueError, match="violates bound constraints"):
            approx_derivative(objective, outside, bounds=tuple(np.array(bounds).T))
        with pytest.raises(ValueError, match="violates bound constraints"):
            objective.value_and_gradient(outside)


class TestFitParity:
    """Whole fits land on the same hyper-parameters and factor, to rounding,
    under the objective and the oracles: the reference value and the dense
    reference gradient.  The two gradients differ in their last bits, so
    L-BFGS-B's iterates do too; the prior sweep draws the same vectors."""

    @staticmethod
    def _fit_both(monkeypatch, strategy, seed=7, n=40):
        parameters = _parameters([0, 1, 2, 3, 4, 2])
        computer = DistanceComputer(parameters)
        configs, values = _dataset(parameters, seed, n)
        rows = computer.encoder.encode_batch(configs)
        tensor = _train_tensor(computer, rows, strided=True)
        fitted = []
        for objective in (_MapObjective, _ReferenceObjective):
            monkeypatch.setattr(gp_module, "_MapObjective", objective)
            gp = _gp(parameters, computer, seed=seed)
            gp.fit_rows(rows[:-5], values[:-5], distance_tensor=tensor[:, :-5, :-5])
            gp.fit_rows(
                rows, values, distance_tensor=tensor, hyper_strategy=strategy,
                warm_start=gp.hyperparameters.to_vector(),
            )
            fitted.append(gp)
        return fitted

    @pytest.mark.parametrize("strategy", ["sweep", "warm"])
    def test_same_hyperparameters_and_factor(self, monkeypatch, strategy):
        _ReferenceObjective.calls = 0
        new, ref = self._fit_both(monkeypatch, strategy)
        assert _ReferenceObjective.calls > 0
        vectors = new.hyperparameters.to_vector(), ref.hyperparameters.to_vector()
        np.testing.assert_allclose(*vectors, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(new._cholesky, ref._cholesky, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(new._alpha, ref._alpha, rtol=1e-9, atol=1e-12)
        assert new._rng.bit_generator.state == ref._rng.bit_generator.state

    def test_fits_never_take_scipys_finite_differences(self, monkeypatch):
        """L-BFGS-B takes the gradient from ``value_and_gradient``
        (``jac=True``), so neither a ``sweep`` nor a ``warm`` fit calls
        scipy's ``approx_derivative``."""

        def refuse(*args, **kwargs):
            raise AssertionError("approx_derivative was called")

        for module in ("_numdiff", "_differentiable_functions"):
            monkeypatch.setattr(f"scipy.optimize.{module}.approx_derivative", refuse)
        gp, _ = _fitted_gp()  # a sweep fit
        gp.fit_rows(gp._train_rows, gp.from_model_scale(gp._train_y), hyper_strategy="warm")


# ---------------------------------------------------------------------------
# the prior and the kernel
# ---------------------------------------------------------------------------


class TestGammaPriorMatchesScipy:
    SPECIAL = [0.0, -0.0, -1.0, -1e-300, -np.inf, np.inf, np.nan, 5e-324, 1e-3, 1e3]

    @pytest.mark.parametrize("shape,rate", [(2.0, 2.0), (1.1, 20.0), (2.0, 1.0), (0.5, 3.0), (1.0, 1.0)])
    def test_bit_for_bit(self, shape, rate):
        prior = GammaPrior(shape, rate)
        rng = np.random.default_rng(3)
        values = np.concatenate(
            [self.SPECIAL, rng.gamma(shape, 1.0 / rate, 500), np.exp(rng.uniform(-7.0, 7.0, 500))]
        )
        assert _same_bits(gamma_log_pdf(prior, values), reference_log_pdf(prior, values))
        for d in (1, 2, 7, 12):  # the lengthscale vectors' sizes
            tail = values[-d:]
            assert _same_bits(gamma_log_pdf(prior, tail), reference_log_pdf(prior, tail))
        for value in self.SPECIAL:
            got = gamma_log_pdf(prior, value)
            assert type(got) is float
            assert _same_bits(got, reference_log_pdf(prior, value))

    PRIORS = [GammaPrior(2.0, 2.0), GammaPrior(1.1, 20.0), GammaPrior(2.0, 1.0),
              GammaPrior(0.5, 3.0)]

    def test_fused_densities_bit_for_bit(self):
        """One fused call scores every entry under its own prior with the
        bits of a scipy call per entry: positive, zero and non-finite values,
        in every mix of priors and lengths the MAP objective uses."""
        rng = np.random.default_rng(4)
        positive = [v for v in self.SPECIAL if not v < 0.0]
        for d in (0, 1, 2, 7, 12):
            priors = [self.PRIORS[0]] * d + self.PRIORS[1:3]
            for _ in range(50):
                values = np.exp(rng.uniform(-20.0, 7.0, len(priors)))
                values[rng.random(len(priors)) < 0.1] = rng.choice(positive)
                got = GammaLogDensities(priors)(values)
                want = [reference_log_pdf(prior, value) for prior, value in zip(priors, values)]
                assert _same_bits(got, want)
        values = [0.3, 0.01, 2.0, 1e-300]
        mixed = GammaLogDensities(self.PRIORS)(np.array(values))
        assert _same_bits(mixed, [reference_log_pdf(p, v) for p, v in zip(self.PRIORS, values)])


class TestMatern52:
    @pytest.mark.parametrize("shape", [(3, 7, 7), (3, 5, 9), (4, 6)])
    def test_same_bits_as_the_reference(self, shape):
        """``matern52`` on a strided view, and its Matérn stage written into
        ``out``, equal the allocating formula; the stage leaves its distance
        matrix as it was, so the objective's gradient can read it."""
        rng = np.random.default_rng(11)
        buffer = rng.random((shape[0], *(s + 3 for s in shape[1:])))
        tensor = buffer[(slice(None), *(slice(0, s) for s in shape[1:]))]  # strided view
        out = np.empty(shape[1:])
        for _ in range(3):
            lengthscales = rng.uniform(0.01, 10.0, shape[0])
            outputscale = float(rng.uniform(0.01, 100.0))
            expected = reference_kernel(tensor, lengthscales, outputscale)
            assert _same_bits(matern52(tensor, lengthscales, outputscale), expected)
            distance = scaled_distance(tensor, lengthscales)
            before = distance.copy()
            got = matern52_of_distance(distance, outputscale, out=out)
            assert got is out
            assert _same_bits(got, expected)
            assert _same_bits(distance, before)


# ---------------------------------------------------------------------------
# failures
# ---------------------------------------------------------------------------


def _fitted_gp():
    parameters = [
        OrdinalParameter("tile", [2, 4, 8, 16, 32], transform="log"),
        IntegerParameter("unroll", 1, 9),
    ]
    computer = DistanceComputer(parameters)
    configs, values = _dataset(parameters, 21, 12)
    gp = _gp(parameters, computer, seed=21)
    gp.fit_rows(gp.encoder.encode_batch(configs), values)
    return gp, computer


class TestNonFiniteInput:
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_fit_rows_raises_value_error(self, bad):
        gp, computer = _fitted_gp()
        configs, values = _dataset(gp.parameters, 22, 10)
        rows = computer.encoder.encode_batch(configs)
        tensor = computer.pairwise_rows(rows)
        tensor[1, 2, 5] = tensor[1, 5, 2] = bad
        for strategy in ("sweep", "warm", "frozen"):
            with pytest.raises(ValueError, match="infs or NaNs"):
                gp.fit_rows(rows, values, distance_tensor=tensor, hyper_strategy=strategy)

    def test_raises_after_the_same_draws_as_the_reference(self, monkeypatch):
        """The sweep raises on its first score, one prior draw in, as the
        reference does, so a tuner sharing the GP's generator stays in step."""
        states = []
        for objective in (_MapObjective, _ReferenceObjective):
            monkeypatch.setattr(gp_module, "_MapObjective", objective)
            gp, computer = _fitted_gp()
            configs, values = _dataset(gp.parameters, 22, 10)
            rows = computer.encoder.encode_batch(configs)
            tensor = computer.pairwise_rows(rows)
            tensor[0, 3, 4] = tensor[0, 4, 3] = np.nan
            with pytest.raises(ValueError, match="infs or NaNs"):
                gp.fit_rows(rows, values, distance_tensor=tensor)
            states.append(gp._rng.bit_generator.state)
        assert states[0] == states[1]

    def test_tuner_falls_back_to_random(self):
        space = SearchSpace(
            [
                OrdinalParameter("tile", [2, 4, 8, 16, 32, 64], transform="log"),
                IntegerParameter("unroll", 1, 8),
            ],
            build_chain_of_trees=False,
        )
        settings_ = BacoSettings(
            gp_prior_samples=4, gp_refined_starts=1, gp_max_iterations=5,
            n_random_samples=32, n_local_search_starts=2, max_local_search_steps=4,
        )
        tuner = BacoTuner(space, settings=settings_, seed=9)
        tuner.tune(
            lambda c: ObjectiveResult(value=1.0 + abs(math.log2(c["tile"]) - 3) + 0.1 * c["unroll"]),
            10,
        )
        values = [e.value for e in tuner.history.evaluations if e.feasible]
        assert tuner._fit_gp(values) is not None
        tuner._gp_distance_cache._tensor_buf[0, 0, 1] = np.nan
        assert tuner._fit_gp(values) is None


class TestFailedFitLeavesGpUnchanged:
    @staticmethod
    def _readback(gp, probe_rows):
        mean, var = gp.predict_rows(probe_rows)
        return mean, var, gp.to_model_scale([0.7, 2.0, 4.5]), log_likelihood(gp)

    def _assert_unchanged(self, gp, before, probe_rows):
        after = self._readback(gp, probe_rows)
        for a, b in zip(before, after):
            assert _same_bits(a, b)

    def test_bad_tensor_shape(self):
        gp, computer = _fitted_gp()
        probe_rows = gp._train_rows[:4]
        before = self._readback(gp, probe_rows)
        configs, values = _dataset(gp.parameters, 23, 9)
        rows = computer.encoder.encode_batch(configs)
        with pytest.raises(ValueError, match="distance tensor has shape"):
            gp.fit_rows(rows, values, distance_tensor=np.zeros((2, 8, 8)))
        self._assert_unchanged(gp, before, probe_rows)

    def test_final_factorization_fails(self):
        gp, computer = _fitted_gp()
        hp = gp.hyperparameters
        assert hp.noise_variance < 0.5 * hp.outputscale  # so K stays indefinite
        probe_rows = gp._train_rows[:4]
        before = self._readback(gp, probe_rows)
        n = 20
        tensor = _path_tensor(2, n)
        rows = np.repeat(gp._train_rows[:1], n, axis=0)
        values = list(np.linspace(1.0, 3.0, n))
        with pytest.raises(np.linalg.LinAlgError):
            gp.fit_rows(rows, values, distance_tensor=tensor, hyper_strategy="frozen")
        self._assert_unchanged(gp, before, probe_rows)


# ---------------------------------------------------------------------------
# import cost
# ---------------------------------------------------------------------------


def test_serving_and_tuning_paths_do_not_import_scipy_stats():
    """``scipy.stats`` costs about 0.35 s and 20 MB to import; the tuner,
    the service and the server must not load it."""
    script = (
        "import sys\n"
        "import repro.experiments.runner, repro.service, repro.server\n"
        "assert 'scipy.stats' not in sys.modules, 'scipy.stats was imported'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    assert proc.returncode == 0, proc.stderr

"""Bit-identity of the GP's MAP objective against its reference oracle.

``GaussianProcess.fit_rows`` scores hyper-parameter vectors with
``repro.models.gp._MapObjective``, which preallocates its arrays once per
fit, builds only the triangle of the kernel LAPACK reads, calls LAPACK
directly and, for L-BFGS-B (``jac=True``), scores each iterate and the
probes of its finite-difference gradient in one batch from its last full
build's cached slices and sums.
:func:`reference_negative_log_posterior` below is the straightforward form
it replaced: an allocating kernel build, ``K + (σ² + jitter)·I``,
``scipy.linalg.cholesky`` / ``cho_solve`` and ``scipy.stats.gamma.logpdf``
priors.  The objective must equal it exactly — ``==`` on floats, no
tolerance — and its gradient must equal, in bytes, the one scipy's
``approx_derivative`` takes from it, because every trajectory, fixture and
checkpoint depends on the hyper-parameters the fit lands on.

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

from oracles import gamma_log_pdf, log_likelihood, sample_value

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


#: the absolute finite-difference step scipy's L-BFGS-B takes (its ``eps``)
_LBFGSB_STEP = 1e-8


def _lbfgsb_gradient(objective, vector, value, bounds):
    """The gradient L-BFGS-B takes without ``jac``: scipy's 2-point scheme
    with its absolute step and the bounds, each probe scored through
    ``map``."""
    return approx_derivative(
        objective, vector, method="2-point", abs_step=_LBFGSB_STEP, f0=value,
        bounds=tuple(np.array(bounds).T),
    )


class _ReferenceObjective:
    """Drop-in for ``_MapObjective`` that evaluates the oracle, one vector
    at a time, and takes L-BFGS-B's gradient the way scipy does without
    ``jac``."""

    calls = 0

    def __init__(self, gp, distance_tensor, y):
        self._args = (gp, distance_tensor, y)

    def __call__(self, vector):
        type(self).calls += 1
        gp, distance_tensor, y = self._args
        return reference_negative_log_posterior(gp, distance_tensor, vector, y)

    def value_and_gradient(self, vector):
        value = self(vector)
        return value, _lbfgsb_gradient(self, vector, value, self._args[0]._hyper_bounds())


class _CountingObjective(_MapObjective):
    """``_MapObjective`` that counts its calls, records the exp'd vector of
    each full build and each batch of moves with its scores."""

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = 0
        self.builds = []
        self.moves = []

    def __call__(self, vector):
        self.calls += 1
        return super().__call__(vector)

    def _build_base(self, values):
        self.builds.append(values.copy())
        super()._build_base(values)

    def _score_moves(self, centre, moved):
        scores = super()._score_moves(centre, moved)
        self.moves.append((np.vstack([moved, centre]), scores))
        return scores


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


#: scipy's default finite-difference step for the 2-point scheme, relative
#: to max(1, |x|)
_FD_STEP = math.sqrt(np.finfo(float).eps)


def _probe_set(centre, steps):
    """Probe ``r`` moves coordinate ``r`` of ``centre`` by ``steps[r]``, as
    scipy's 2-point scheme lays a gradient's probes out."""
    return np.asarray(centre, dtype=float) + np.diag(steps)


def _objective_case(kinds, seed, n):
    parameters = _parameters(kinds)
    computer = DistanceComputer(parameters)
    configs, _ = _dataset(parameters, seed, n)
    tensor = computer.pairwise_rows(computer.encoder.encode_batch(configs))
    y = np.random.default_rng(seed).normal(size=n)
    return _gp(parameters, computer), tensor, y


class TestProbes:
    """L-BFGS-B scores its iterates with ``value_and_gradient``; the prior
    sweep and the warm start score theirs with ``__call__``.  Both are
    pinned to the oracle: any sequence of calls, and every iterate's
    value, gradient and probes against scipy's finite differences through
    ``map`` and the oracle, probe by probe."""

    @given(
        kinds=st.lists(st.integers(0, len(_MAKERS) - 1), min_size=1, max_size=12),
        n=st.integers(2, 130),
        seed=st.integers(0, 2**31 - 1),
        strided=st.booleans(),
        ls_prior=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_call_sequences_equal_reference_exactly(
        self, kinds, n, seed, strided, ls_prior, data
    ):
        parameters = _parameters(kinds)
        computer = DistanceComputer(parameters)
        configs, _ = _dataset(parameters, seed, n)
        tensor = _train_tensor(computer, computer.encoder.encode_batch(configs), strided)
        y = np.random.default_rng(seed).normal(size=n)
        gp = _gp(parameters, computer, ls_prior=ls_prior)
        objective = _MapObjective(gp, tensor, y)
        bounds = gp._hyper_bounds()
        indices = st.integers(0, len(bounds) - 1)

        def fresh():
            return np.array([data.draw(st.floats(low, high), label="base") for low, high in bounds])

        def probe(vector, i):
            low, high = bounds[i]
            fd_step = _FD_STEP * max(1.0, abs(vector[i]))
            target = data.draw(
                st.one_of(
                    st.sampled_from([vector[i] + fd_step, vector[i] - fd_step, low, high]),
                    st.floats(-5.0, 5.0).map(lambda step: vector[i] + step),
                ),
                label=f"probe {i}",
            )
            probed = vector.copy()
            probed[i] = min(max(target, low), high)
            return probed

        def check(vector):
            expected = reference_negative_log_posterior(gp, tensor, vector, y)
            assert objective(vector) == expected

        bases = [fresh()]
        check(bases[0])
        for i in data.draw(st.permutations(range(len(bounds))), label="every index"):
            check(probe(bases[0], i))
        last = bases[0]
        for op in data.draw(
            st.lists(st.sampled_from(["base", "probe", "old base probe", "repeat"]), max_size=12),
            label="ops",
        ):
            if op == "base":
                bases.append(fresh())
                last = bases[-1]
            elif op == "probe":
                last = probe(bases[-1], data.draw(indices))
            elif op == "old base probe":
                last = probe(data.draw(st.sampled_from(bases)), data.draw(indices))
            else:
                last = last.copy()
            check(last)

    @given(
        kinds=st.one_of(
            st.lists(st.integers(0, len(_MAKERS) - 1), min_size=1, max_size=1),
            st.lists(st.integers(0, len(_MAKERS) - 1), min_size=3, max_size=12),
        ),
        n=st.integers(2, 130),
        seed=st.integers(0, 2**31 - 1),
        strided=st.booleans(),
        ls_prior=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_gradients_equal_map_and_reference(self, kinds, n, seed, strided, ls_prior, data):
        """``value_and_gradient`` returns the oracle's value and the bits
        of scipy's gradient through ``map``, and every probe it scores is
        the oracle's.  The draws hold ``D = 1`` (no prefix or tail
        additions), ``D ≥ 3`` (a tail of two slices or more, whose order
        shows), centres on the bounds (the step flips at the upper one)
        and centres that are not the base (the call builds them first)."""
        parameters = _parameters(kinds)
        computer = DistanceComputer(parameters)
        configs, _ = _dataset(parameters, seed, n)
        tensor = _train_tensor(computer, computer.encoder.encode_batch(configs), strided)
        y = np.random.default_rng(seed).normal(size=n)
        gp = _gp(parameters, computer, ls_prior=ls_prior)
        objective = _CountingObjective(gp, tensor, y)
        bounds = gp._hyper_bounds()
        for _ in range(data.draw(st.integers(1, 3), label="gradients")):
            centre = np.array([
                data.draw(st.one_of(st.sampled_from([low, high]), st.floats(low, high)),
                          label="centre")
                for low, high in bounds
            ])
            f0 = reference_negative_log_posterior(gp, tensor, centre, y)
            centre_is_base = data.draw(st.booleans(), label="centre is the base")
            if centre_is_base:
                assert objective(centre) == f0
            calls, builds = objective.calls, len(objective.builds)
            value, gradient = objective.value_and_gradient(centre)
            assert value == f0
            assert (objective.calls - calls, len(objective.builds) - builds) == (
                0, 0 if centre_is_base else 1
            )
            rows, scores = objective.moves[-1]
            assert len(rows) == len(centre) + 1
            for row, score in zip(rows, scores):
                assert score == reference_negative_log_posterior(gp, tensor, row, y)
            assert _same_bits(gradient, _lbfgsb_gradient(objective, centre, value, bounds))

    def test_probe_batches_skip_the_tensor_build(self):
        gp, tensor, y = _objective_case([0, 1, 2, 3, 4], 4, 30)
        objective = _CountingObjective(gp, tensor, y)
        rng = np.random.default_rng(4)
        base = np.array([rng.uniform(low, high) for low, high in gp._hyper_bounds()])
        expected = reference_negative_log_posterior(gp, tensor, base, y)
        assert objective(base) == expected
        assert objective.value_and_gradient(base)[0] == expected
        for step in (_LBFGSB_STEP, -_LBFGSB_STEP):
            probes = _probe_set(base, np.full(len(base), step))
            assert objective._score_moves(base, probes) == [
                reference_negative_log_posterior(gp, tensor, probe, y)
                for probe in [*probes, base]
            ]
        assert objective(base.copy()) == expected
        assert (objective.calls, len(objective.builds)) == (2, 1)
        moved = base.copy()
        moved[[0, -1]] += _LBFGSB_STEP
        assert objective.value_and_gradient(moved)[0] == reference_negative_log_posterior(
            gp, tensor, moved, y
        )
        rows, scores = objective.moves[-1]
        assert scores == [reference_negative_log_posterior(gp, tensor, row, y) for row in rows]
        assert (objective.calls, len(objective.builds)) == (2, 2)
        assert _same_bits(objective.builds[1], np.exp(moved))
        assert objective(moved) == reference_negative_log_posterior(gp, tensor, moved, y)
        assert len(objective.builds) == 2

    def test_an_indefinite_row_scores_1e25_and_the_others_match(self):
        """A noise move that makes ``K`` indefinite scores 1e25; ``potrf``
        overwrote only that row's buffer, so the other rows, the centre and
        the next call still match."""
        parameters = [OrdinalParameter("t", [1, 2, 4, 8]), IntegerParameter("u", 1, 9)]
        computer = DistanceComputer(parameters)
        gp = _gp(parameters, computer)
        tensor = _path_tensor(2, 20)
        y = np.random.default_rng(5).normal(size=20)
        objective = _MapObjective(gp, tensor, y)
        centre = np.zeros(4)  # K = I + A on the path; noise 1 keeps it definite
        probes = _probe_set(centre, [0.3, -0.2, -1.0, math.log(1e-8)])
        values = objective._score_moves(centre, probes)
        assert values[3] == 1e25
        assert 1e25 not in values[:3] + values[4:]
        for probe, value in zip([*probes, centre], values):
            assert value == reference_negative_log_posterior(gp, tensor, probe, y)
        assert objective(centre) == reference_negative_log_posterior(gp, tensor, centre, y)

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
            _lbfgsb_gradient(objective, outside, 0.0, bounds)
        with pytest.raises(ValueError, match="violates bound constraints"):
            objective.value_and_gradient(outside)


class TestFitParity:
    """Whole fits land on the same bits under the objective and the oracle."""

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
        assert _same_bits(new.hyperparameters.lengthscales, ref.hyperparameters.lengthscales)
        assert new.hyperparameters.outputscale == ref.hyperparameters.outputscale
        assert new.hyperparameters.noise_variance == ref.hyperparameters.noise_variance
        assert _same_bits(new._cholesky, ref._cholesky)
        assert _same_bits(new._alpha, ref._alpha)
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
        matrix as it was, so the objective can reuse the base's."""
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

    def test_a_column_of_outputscales_gives_each_row_its_scalar_bits(self):
        """The batched probes score a stack of distances with one
        outputscale per row."""
        rng = np.random.default_rng(12)
        distances = rng.uniform(0.0, 5.0, (6, 37))
        scales = rng.uniform(0.01, 100.0, (6, 1))
        stacked = matern52_of_distance(distances, scales)
        for row, scale, got in zip(distances, scales[:, 0], stacked):
            assert _same_bits(got, matern52_of_distance(row, float(scale)))


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

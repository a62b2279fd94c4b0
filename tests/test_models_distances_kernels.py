"""Tests for distance tensors, kernels, and hyper-parameter priors."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import distance, sample_value
from repro.models.distances import DistanceComputer, parameter_scale
from repro.models.kernels import matern52, scaled_distance
from repro.models.priors import GammaPrior
from repro.space.parameters import (
    CategoricalParameter,
    OrdinalParameter,
    PermutationParameter,
    RealParameter,
)


def _params():
    return [
        OrdinalParameter("tile", [2, 4, 8, 16, 32], transform="log"),
        CategoricalParameter("sched", ["a", "b", "c"]),
        PermutationParameter("perm", 4, metric="spearman"),
    ]


def _configs(rng, params, n):
    return [
        {p.name: sample_value(p, rng) for p in params}
        for _ in range(n)
    ]


class TestParameterScale:
    def test_ordinal_log_scale(self):
        param = OrdinalParameter("tile", [2, 4, 8, 16, 32], transform="log")
        assert parameter_scale(param) == pytest.approx(np.log(32) - np.log(2))

    def test_categorical_scale_is_one(self):
        assert parameter_scale(CategoricalParameter("c", ["a", "b"])) == 1.0

    def test_permutation_scale_is_sqrt_max_distance(self):
        param = PermutationParameter("perm", 4, metric="spearman")
        assert parameter_scale(param) == pytest.approx(np.sqrt(param.max_distance()))

    def test_real_scale(self):
        assert parameter_scale(RealParameter("x", 0.0, 5.0)) == 5.0


class TestDistanceComputer:
    def test_matches_parameter_distance(self, rng):
        params = _params()
        computer = DistanceComputer(params)
        configs = _configs(rng, params, 6)
        tensor = computer.pairwise_rows(computer.encoder.encode_batch(configs))
        for k, param in enumerate(params):
            scale = parameter_scale(param)
            for i in range(6):
                for j in range(6):
                    expected = distance(param, configs[i][param.name], configs[j][param.name])
                    if isinstance(param, PermutationParameter):
                        expected = np.sqrt(expected)
                    assert tensor[k, i, j] == pytest.approx(expected / scale)

    def test_symmetric_and_zero_diagonal(self, rng):
        params = _params()
        computer = DistanceComputer(params)
        configs = _configs(rng, params, 8)
        tensor = computer.pairwise_rows(computer.encoder.encode_batch(configs))
        assert np.allclose(tensor, np.swapaxes(tensor, 1, 2))
        for k in range(tensor.shape[0]):
            assert np.allclose(np.diag(tensor[k]), 0.0)

    def test_cross_distances_shape(self, rng):
        params = _params()
        computer = DistanceComputer(params)
        a = _configs(rng, params, 5)
        b = _configs(rng, params, 3)
        assert computer.pairwise_rows(
            computer.encoder.encode_batch(a), computer.encoder.encode_batch(b)
        ).shape == (3, 5, 3)

    def test_kendall_metric_falls_back_to_loop(self, rng):
        params = [PermutationParameter("perm", 4, metric="kendall")]
        computer = DistanceComputer(params)
        configs = _configs(rng, params, 5)
        tensor = computer.pairwise_rows(computer.encoder.encode_batch(configs))
        for i in range(5):
            for j in range(5):
                expected = np.sqrt(distance(params[0], configs[i]["perm"], configs[j]["perm"]))
                assert tensor[0, i, j] * parameter_scale(params[0]) == pytest.approx(expected)

    def test_normalized_distances_at_most_one(self, rng):
        params = _params()
        computer = DistanceComputer(params)
        tensor = computer.pairwise_rows(computer.encoder.encode_batch(_configs(rng, params, 20)))
        assert tensor.max() <= 1.0 + 1e-9


class TestKernels:
    def _tensor(self, rng, n=10):
        params = _params()
        computer = DistanceComputer(params)
        return computer.pairwise_rows(computer.encoder.encode_batch(_configs(rng, params, n)))

    def test_matern_diagonal_equals_outputscale(self, rng):
        tensor = self._tensor(rng)
        k = matern52(tensor, np.ones(tensor.shape[0]), outputscale=2.5)
        assert np.allclose(np.diag(k), 2.5)

    def test_matern_is_symmetric_psd(self, rng):
        tensor = self._tensor(rng, n=15)
        k = matern52(tensor, np.full(tensor.shape[0], 0.7), outputscale=1.0)
        assert np.allclose(k, k.T)
        eigenvalues = np.linalg.eigvalsh(k + 1e-10 * np.eye(k.shape[0]))
        assert eigenvalues.min() > -1e-8

    def test_kernel_decreases_with_distance(self):
        tensor = np.array([[[0.0, 0.1, 1.0], [0.1, 0.0, 0.5], [1.0, 0.5, 0.0]]])
        k = matern52(tensor, np.ones(1))
        assert k[0, 0] > k[0, 1] > k[0, 2]

    def test_shorter_lengthscale_decays_faster(self):
        tensor = np.array([[[0.0, 0.5], [0.5, 0.0]]])
        k_long = matern52(tensor, np.array([2.0]))
        k_short = matern52(tensor, np.array([0.2]))
        assert k_short[0, 1] < k_long[0, 1]

    def test_lengthscale_dimension_mismatch_raises(self):
        tensor = np.zeros((3, 2, 2))
        with pytest.raises(ValueError):
            scaled_distance(tensor, np.ones(2))


class TestPriors:
    def test_gamma_log_pdf_matches_scipy_shape(self):
        prior = GammaPrior(shape=2.0, rate=2.0)
        assert prior.log_pdf(prior.mean) > prior.log_pdf(100.0)
        assert prior.log_pdf(prior.mean) > prior.log_pdf(1e-6)

    def test_gamma_samples_positive(self, rng):
        prior = GammaPrior(2.0, 2.0)
        samples = prior.sample(rng, size=500)
        assert np.all(samples > 0)
        assert abs(samples.mean() - prior.mean) < 0.2

    @given(st.floats(min_value=0.01, max_value=50.0))
    @settings(max_examples=50, deadline=None)
    def test_gamma_log_pdf_finite_on_support(self, value):
        assert np.isfinite(GammaPrior(2.0, 2.0).log_pdf(value))

"""Tests for the from-scratch Gaussian process surrogate."""

from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import sample_value
from repro.models.gp import GaussianProcess, GPHyperparameters
from repro.models.priors import GammaPrior
from repro.space.parameters import (
    CategoricalParameter,
    OrdinalParameter,
    PermutationParameter,
    RealParameter,
)


def _parameters():
    return [
        OrdinalParameter("tile", [2, 4, 8, 16, 32, 64], transform="log"),
        CategoricalParameter("sched", ["a", "b"]),
    ]


def _dataset(rng, n=25):
    params = _parameters()
    configs = [{p.name: sample_value(p, rng) for p in params} for _ in range(n)]
    values = [
        2.0 + abs(math.log2(c["tile"]) - 3.0) + (0.5 if c["sched"] == "b" else 0.0)
        for c in configs
    ]
    return params, configs, values


class TestHyperparameters:
    def test_vector_roundtrip(self):
        hp = GPHyperparameters(np.array([0.5, 2.0]), 1.5, 0.01)
        restored = GPHyperparameters.from_vector(hp.to_vector())
        assert np.allclose(restored.lengthscales, hp.lengthscales)
        assert restored.outputscale == pytest.approx(hp.outputscale)
        assert restored.noise_variance == pytest.approx(hp.noise_variance)


class TestFitting:
    def test_requires_two_observations(self, rng):
        params, configs, values = _dataset(rng)
        gp = GaussianProcess(params, rng=rng)
        with pytest.raises(ValueError):
            gp.fit_rows(gp.encoder.encode_batch(configs[:1]), values[:1])

    def test_length_mismatch_rejected(self, rng):
        params, configs, values = _dataset(rng)
        gp = GaussianProcess(params, rng=rng)
        with pytest.raises(ValueError):
            gp.fit_rows(gp.encoder.encode_batch(configs), values[:-1])

    def test_predict_before_fit_raises(self, rng):
        params, configs, _ = _dataset(rng)
        gp = GaussianProcess(params, rng=rng)
        with pytest.raises(RuntimeError):
            gp.predict_rows(gp.encoder.encode_batch(configs[:2]))

    def test_fit_sets_hyperparameters(self, rng):
        params, configs, values = _dataset(rng)
        gp = GaussianProcess(params, rng=rng)
        gp.fit_rows(gp.encoder.encode_batch(configs), values)
        assert gp.is_fitted
        assert gp.hyperparameters.lengthscales.shape == (2,)
        assert gp.hyperparameters.noise_variance > 0

    def test_log_transform_requires_positive_targets(self, rng):
        params, configs, values = _dataset(rng)
        gp = GaussianProcess(params, log_transform_output=True, rng=rng)
        bad = list(values)
        bad[0] = -1.0
        with pytest.raises(ValueError):
            gp.fit_rows(gp.encoder.encode_batch(configs), bad)


class TestPrediction:
    def test_interpolates_training_data(self, rng):
        params, configs, values = _dataset(rng, n=20)
        gp = GaussianProcess(params, rng=rng)
        gp.fit_rows(gp.encoder.encode_batch(configs), values)
        mean, _ = gp.predict_rows(gp.encoder.encode_batch(configs))
        predicted = gp.from_model_scale(mean)
        # noise is small, so predictions at training points track the targets
        correlation = np.corrcoef(predicted, values)[0, 1]
        assert correlation > 0.95

    def test_noiseless_variance_small_at_training_points(self, rng):
        params, configs, values = _dataset(rng, n=20)
        gp = GaussianProcess(params, rng=rng)
        gp.fit_rows(gp.encoder.encode_batch(configs), values)
        _, var_noiseless = gp.predict_rows(gp.encoder.encode_batch(configs), include_noise=False)
        _, var_noisy = gp.predict_rows(gp.encoder.encode_batch(configs), include_noise=True)
        assert np.all(var_noisy >= var_noiseless)
        assert var_noiseless.mean() < var_noisy.mean()

    def test_uncertainty_larger_away_from_data(self, rng):
        params = [OrdinalParameter("tile", [2, 4, 8, 16, 32, 64, 128, 256], transform="log")]
        configs = [{"tile": v} for v in (2, 4, 8)]
        values = [1.0, 2.0, 3.0]
        gp = GaussianProcess(params, log_transform_output=False, rng=rng)
        gp.fit_rows(gp.encoder.encode_batch(configs), values)
        _, var_near = gp.predict_rows(gp.encoder.encode_batch([{"tile": 4}]))
        _, var_far = gp.predict_rows(gp.encoder.encode_batch([{"tile": 256}]))
        assert var_far[0] > var_near[0]

    def test_generalization_better_than_mean_predictor(self, rng):
        params, configs, values = _dataset(rng, n=40)
        train_c, test_c = configs[:30], configs[30:]
        train_v, test_v = values[:30], values[30:]
        gp = GaussianProcess(params, rng=rng)
        gp.fit_rows(gp.encoder.encode_batch(train_c), train_v)
        mean, _ = gp.predict_rows(gp.encoder.encode_batch(test_c))
        predictions = gp.from_model_scale(mean)
        gp_error = np.mean((np.asarray(predictions) - np.asarray(test_v)) ** 2)
        baseline_error = np.mean((np.mean(train_v) - np.asarray(test_v)) ** 2)
        assert gp_error < baseline_error

    def test_model_scale_roundtrip(self, rng):
        params, configs, values = _dataset(rng)
        gp = GaussianProcess(params, rng=rng)
        gp.fit_rows(gp.encoder.encode_batch(configs), values)
        raw = np.array([0.5, 1.0, 4.0])
        assert np.allclose(gp.from_model_scale(gp.to_model_scale(raw)), raw)

    def test_permutation_parameter_supported(self, rng):
        params = [PermutationParameter("perm", 4, metric="spearman")]
        perms = [tuple(rng.permutation(4)) for _ in range(15)]
        configs = [{"perm": p} for p in perms]
        values = [1.0 + sum(i * v for i, v in enumerate(p)) for p in perms]
        gp = GaussianProcess(params, log_transform_output=False, rng=rng)
        gp.fit_rows(gp.encoder.encode_batch(configs), values)
        mean, var = gp.predict_rows(gp.encoder.encode_batch(configs[:5]))
        assert mean.shape == (5,) and var.shape == (5,)
        assert np.all(var > 0)


class TestVariants:
    def test_simple_fit_variant(self, rng):
        """BaCO--'s non-refined fit still produces a usable model."""
        params, configs, values = _dataset(rng, n=20)
        gp = GaussianProcess(params, advanced_fit=False, rng=rng)
        gp.fit_rows(gp.encoder.encode_batch(configs), values)
        mean, _ = gp.predict_rows(gp.encoder.encode_batch(configs))
        assert np.corrcoef(gp.from_model_scale(mean), values)[0, 1] > 0.8

    def test_no_priors_variant(self, rng):
        params, configs, values = _dataset(rng, n=20)
        gp = GaussianProcess(params, lengthscale_prior=None, rng=rng)
        gp.fit_rows(gp.encoder.encode_batch(configs), values)
        assert gp.is_fitted

    def test_no_output_transforms(self, rng):
        params, configs, values = _dataset(rng, n=15)
        gp = GaussianProcess(params, log_transform_output=False, standardize_output=False, rng=rng)
        gp.fit_rows(gp.encoder.encode_batch(configs), values)
        mean, _ = gp.predict_rows(gp.encoder.encode_batch(configs))
        assert np.corrcoef(mean, values)[0, 1] > 0.8

    def test_constant_targets_handled(self, rng):
        params, configs, _ = _dataset(rng, n=10)
        gp = GaussianProcess(params, rng=rng)
        gp.fit_rows(gp.encoder.encode_batch(configs), [3.0] * len(configs))
        mean, _ = gp.predict_rows(gp.encoder.encode_batch(configs[:3]))
        assert np.allclose(gp.from_model_scale(mean), 3.0, rtol=0.2)

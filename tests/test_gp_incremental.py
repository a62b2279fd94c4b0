"""Numerical-equivalence harness for the incremental surrogate-refit engine.

The fast surrogate policy replaces BaCO's per-iteration refit-from-scratch
with incremental linear algebra (rank-1 Cholesky extension, warm-started
hyper-parameter fits, frozen-hyper alpha refreshes).  Instead of hoping the
numerics hold, this suite *proves* equivalence against the exact paths on
hypothesis-randomized R/I/O/C/P spaces:

* a rank-1-extended Cholesky factor matches the full refactorization of the
  same kernel matrix (``allclose`` with pinned tolerances);
* a warm-started hyper-parameter fit reaches a posterior at least as good as
  the cold multistart sweep (within tolerance);
* the log posterior (``oracles.log_likelihood``) after N incremental
  observes equals a fresh ``fit_rows`` on the same data;
* reading the log posterior back costs no factorization: one per fit, zero
  per call.

Plus the :class:`~repro.core.baco.SurrogatePolicy` unit surface (spec
parsing, refit cadence) and the policy's behavior
inside a live :class:`~repro.core.baco.BacoTuner`.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baco import BacoSettings, BacoTuner, SurrogatePolicy
from repro.core.result import ObjectiveResult
from repro.models.distances import DistanceComputer, IncrementalDistanceTensor
from repro.models.gp import GaussianProcess, GPHyperparameters, _MapObjective
from repro.space.parameters import (
    CategoricalParameter,
    IntegerParameter,
    OrdinalParameter,
    PermutationParameter,
    RealParameter,
)
from repro.space.space import SearchSpace

from oracles import log_likelihood, sample_value

# pinned equivalence tolerances: the incremental updates are backward-stable
# triangular solves on jitter-regularized matrices, so they track the full
# refactorization to near machine precision
ATOL = 1e-8
RTOL = 1e-8


@st.composite
def riocp_parameters(draw):
    """Random parameter lists covering all five parameter types."""
    parameters = [
        RealParameter("r", 0.5, 4.0),
        IntegerParameter("i", 1, draw(st.integers(3, 10))),
        OrdinalParameter("o", [2, 4, 8, 16, 32], transform="log"),
        CategoricalParameter("c", ["x", "y", "z"][: draw(st.integers(2, 3))]),
        PermutationParameter("p", draw(st.integers(2, 3))),
    ]
    # drop a random suffix so dimensionality varies too (keep >= 2 params)
    return parameters[: draw(st.integers(2, len(parameters)))]


def _dataset(parameters, seed, n):
    rng = np.random.default_rng(seed)
    configs = [{p.name: sample_value(p, rng) for p in parameters} for _ in range(n)]
    values = [float(v) for v in rng.uniform(0.5, 5.0, size=n)]
    return configs, values


def _make_gp(parameters, seed, computer=None, **kwargs):
    kwargs.setdefault("n_prior_samples", 4)
    kwargs.setdefault("n_refined_starts", 1)
    kwargs.setdefault("max_optimizer_iterations", 10)
    return GaussianProcess(
        parameters,
        rng=np.random.default_rng(seed),
        distance_computer=computer,
        **kwargs,
    )


# ---------------------------------------------------------------------------
# rank-1 Cholesky extension vs full refactorization
# ---------------------------------------------------------------------------

class TestCholeskyExtension:
    @given(riocp_parameters(), st.integers(0, 2**31 - 1), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_extension_matches_full_refactorization(self, parameters, seed, n_new):
        """Property: growing L row by row == refactorizing the full kernel."""
        from scipy import linalg

        n_total = 8 + n_new
        configs, values = _dataset(parameters, seed, n_total)
        computer = DistanceComputer(parameters)
        rows = computer.encoder.encode_batch(configs)
        tensor = computer.pairwise_rows(rows)

        gp = _make_gp(parameters, seed, computer=computer)
        gp.fit_rows(rows[:8], values[:8], distance_tensor=tensor[:, :8, :8])
        extended = gp.extend_cholesky(rows, tensor)
        assert extended, "extension unexpectedly fell back to refactorization"
        assert gp._chol_n == n_total
        assert gp._chol_base_n == 8

        full_k = gp._kernel_matrix(tensor, gp.hyperparameters, noise=True)
        full_l = linalg.cholesky(full_k, lower=True)
        assert np.allclose(gp._cholesky, full_l, atol=ATOL, rtol=RTOL)

    @given(riocp_parameters(), st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_incremental_posterior_matches_frozen_refit(self, parameters, seed):
        """extend + refit_targets predicts like a from-scratch frozen fit."""
        configs, values = _dataset(parameters, seed, 12)
        computer = DistanceComputer(parameters)
        rows = computer.encoder.encode_batch(configs)
        tensor = computer.pairwise_rows(rows)

        incremental = _make_gp(parameters, seed, computer=computer)
        incremental.fit_rows(rows[:9], values[:9], distance_tensor=tensor[:, :9, :9])
        incremental.extend_cholesky(rows, tensor)
        incremental.refit_targets(values)

        fresh = _make_gp(parameters, seed, computer=computer)
        fresh.hyperparameters = incremental.hyperparameters
        fresh.fit_rows(rows, values, distance_tensor=tensor, hyper_strategy="frozen")

        test_rows = rows[:5]
        mean_inc, var_inc = incremental.predict_rows(test_rows)
        mean_ref, var_ref = fresh.predict_rows(test_rows)
        assert np.allclose(mean_inc, mean_ref, atol=ATOL, rtol=RTOL)
        assert np.allclose(var_inc, var_ref, atol=ATOL, rtol=RTOL)

    def test_extension_tracks_incremental_distance_tensor(self):
        """The tuner's usage pattern: one IncrementalDistanceTensor append
        per observation, extension reading the (read-only) tensor views."""
        parameters = [
            OrdinalParameter("tile", [2, 4, 8, 16, 32], transform="log"),
            CategoricalParameter("sched", ["a", "b"]),
        ]
        configs, values = _dataset(parameters, 3, 14)
        computer = DistanceComputer(parameters)
        cache = IncrementalDistanceTensor(computer)
        all_rows = computer.encoder.encode_batch(configs)
        for row in all_rows[:10]:
            cache.append(row[None, :])
        gp = _make_gp(parameters, 3, computer=computer)
        gp.fit_rows(cache.rows, values[:10], distance_tensor=cache.tensor)
        for i in range(10, 14):
            cache.append(all_rows[i][None, :])
            assert gp.extend_cholesky(cache.rows, cache.tensor)
            gp.refit_targets(values[: i + 1])
            assert gp.is_fitted
        assert gp._chol_n == 14
        assert gp.n_train_factorizations == 1

        fresh = _make_gp(parameters, 3, computer=computer)
        fresh.hyperparameters = gp.hyperparameters
        fresh.fit_rows(cache.rows, values, distance_tensor=cache.tensor, hyper_strategy="frozen")
        assert np.allclose(gp._cholesky, fresh._cholesky, atol=ATOL, rtol=RTOL)
        assert np.allclose(gp._alpha, fresh._alpha, atol=ATOL, rtol=RTOL)

    def test_extension_requires_fit(self):
        parameters = [OrdinalParameter("t", [1, 2, 4])]
        computer = DistanceComputer(parameters)
        gp = _make_gp(parameters, 0, computer=computer)
        rows = np.zeros((3, computer.encoder.width))
        with pytest.raises(RuntimeError):
            gp.extend_cholesky(rows, computer.pairwise_rows(rows))

    def test_extension_rejects_shrinking_rows(self):
        parameters = [OrdinalParameter("t", [1, 2, 4, 8])]
        configs, values = _dataset(parameters, 5, 6)
        computer = DistanceComputer(parameters)
        rows = computer.encoder.encode_batch(configs)
        gp = _make_gp(parameters, 5, computer=computer)
        gp.fit_rows(rows, values)
        with pytest.raises(ValueError):
            gp.extend_cholesky(rows[:3], computer.pairwise_rows(rows[:3]))

    def test_refit_targets_requires_matching_length(self):
        parameters = [OrdinalParameter("t", [1, 2, 4, 8])]
        configs, values = _dataset(parameters, 7, 6)
        computer = DistanceComputer(parameters)
        rows = computer.encoder.encode_batch(configs)
        gp = _make_gp(parameters, 7, computer=computer)
        gp.fit_rows(rows, values)
        with pytest.raises(ValueError):
            gp.refit_targets(values[:-1])


# ---------------------------------------------------------------------------
# warm-started hyper-parameter fits vs cold multistart
# ---------------------------------------------------------------------------

class TestWarmStartedFits:
    @given(riocp_parameters(), st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_warm_fit_posterior_no_worse_than_cold(self, parameters, seed):
        """Property: seeding L-BFGS from the previous optimum never loses to
        the cold multistart it replaces (same data, same priors)."""
        configs, values = _dataset(parameters, seed, 10)
        computer = DistanceComputer(parameters)
        rows = computer.encoder.encode_batch(configs)
        tensor = computer.pairwise_rows(rows)

        cold = _make_gp(parameters, seed, computer=computer)
        cold.fit_rows(rows, values, distance_tensor=tensor)
        cold_ll = log_likelihood(cold)

        warm = _make_gp(parameters, seed + 1, computer=computer)
        warm.fit_rows(
            rows, values, distance_tensor=tensor,
            hyper_strategy="warm", warm_start=cold.hyperparameters.to_vector(),
        )
        assert log_likelihood(warm) >= cold_ll - 1e-6

    def test_warm_fit_consumes_no_rng(self):
        parameters = [OrdinalParameter("t", [2, 4, 8, 16], transform="log")]
        configs, values = _dataset(parameters, 11, 8)
        computer = DistanceComputer(parameters)
        rows = computer.encoder.encode_batch(configs)
        gp = _make_gp(parameters, 11, computer=computer)
        gp.fit_rows(rows, values)
        state_before = gp._rng.bit_generator.state
        gp.fit_rows(rows, values, hyper_strategy="warm")
        assert gp._rng.bit_generator.state == state_before

    def test_sweep_with_warm_start_never_regresses(self):
        """The warm vector joins the sweep pool, so a (deliberately tiny)
        multistart search cannot do worse than the previous optimum."""
        parameters = [
            OrdinalParameter("t", [2, 4, 8, 16, 32], transform="log"),
            IntegerParameter("u", 1, 9),
        ]
        configs, values = _dataset(parameters, 13, 12)
        computer = DistanceComputer(parameters)
        rows = computer.encoder.encode_batch(configs)

        strong = _make_gp(parameters, 13, computer=computer, n_prior_samples=16)
        strong.fit_rows(rows, values)
        strong_ll = log_likelihood(strong)

        weak = _make_gp(
            parameters, 14, computer=computer,
            n_prior_samples=1, max_optimizer_iterations=1,
        )
        weak.fit_rows(
            rows, values,
            hyper_strategy="sweep", warm_start=strong.hyperparameters.to_vector(),
        )
        assert log_likelihood(weak) >= strong_ll - 1e-6

    def test_unknown_strategy_rejected(self):
        parameters = [OrdinalParameter("t", [1, 2, 4])]
        configs, values = _dataset(parameters, 17, 5)
        gp = _make_gp(parameters, 17)
        with pytest.raises(ValueError):
            gp.fit_rows(
                gp.encoder.encode_batch(configs), values, hyper_strategy="bogus"
            )

    def test_warm_without_history_rejected(self):
        parameters = [OrdinalParameter("t", [1, 2, 4])]
        configs, values = _dataset(parameters, 19, 5)
        gp = _make_gp(parameters, 19)
        with pytest.raises(RuntimeError):
            gp.fit_rows(gp.encoder.encode_batch(configs), values, hyper_strategy="warm")
        with pytest.raises(RuntimeError):
            gp.fit_rows(gp.encoder.encode_batch(configs), values, hyper_strategy="frozen")


# ---------------------------------------------------------------------------
# log posterior: incremental observes == fresh fit; cached, no refactorization
# ---------------------------------------------------------------------------

class TestLogLikelihood:
    @given(riocp_parameters(), st.integers(0, 2**31 - 1), st.integers(1, 5))
    @settings(max_examples=15, deadline=None)
    def test_incremental_observes_equal_fresh_fit(self, parameters, seed, n_new):
        """Property: N incremental observes == one fresh fit_rows on the
        same data, as seen through the log posterior."""
        n_total = 7 + n_new
        configs, values = _dataset(parameters, seed, n_total)
        computer = DistanceComputer(parameters)
        rows = computer.encoder.encode_batch(configs)
        tensor = computer.pairwise_rows(rows)

        incremental = _make_gp(parameters, seed, computer=computer)
        incremental.fit_rows(rows[:7], values[:7], distance_tensor=tensor[:, :7, :7])
        for i in range(7, n_total):
            m = i + 1
            incremental.extend_cholesky(rows[:m], tensor[:, :m, :m])
            incremental.refit_targets(values[:m])

        fresh = _make_gp(parameters, seed, computer=computer)
        fresh.hyperparameters = incremental.hyperparameters
        fresh.fit_rows(rows, values, distance_tensor=tensor, hyper_strategy="frozen")

        assert log_likelihood(incremental) == pytest.approx(
            log_likelihood(fresh), abs=1e-7, rel=1e-9
        )

    def test_one_factorization_per_fit_none_per_call(self):
        """Reading the log posterior back uses the cached factor: it never
        rebuilds the kernel or refactorizes."""
        parameters = [
            OrdinalParameter("tile", [2, 4, 8, 16, 32], transform="log"),
            CategoricalParameter("sched", ["a", "b"]),
        ]
        configs, values = _dataset(parameters, 23, 10)
        gp = _make_gp(parameters, 23)
        gp.fit_rows(gp.encoder.encode_batch(configs), values)
        assert gp.n_train_factorizations == 1
        first = log_likelihood(gp)
        for _ in range(5):
            assert log_likelihood(gp) == first
        assert gp.n_train_factorizations == 1  # zero factorizations per call

    def test_matches_negative_log_posterior(self):
        """The cached value agrees with the optimizer's MAP objective at the
        fitted hyper-parameters (the quantity the old code recomputed)."""
        parameters = [OrdinalParameter("tile", [2, 4, 8, 16, 32], transform="log")]
        configs, values = _dataset(parameters, 29, 9)
        gp = _make_gp(parameters, 29)
        gp.fit_rows(gp.encoder.encode_batch(configs), values)
        objective = _MapObjective(gp, gp._train_distance, gp._train_y)
        direct = -objective(gp.hyperparameters.to_vector())
        assert log_likelihood(gp) == pytest.approx(direct, abs=1e-9)

    def test_alias_and_guards(self):
        parameters = [OrdinalParameter("tile", [2, 4, 8])]
        configs, values = _dataset(parameters, 31, 6)
        gp = _make_gp(parameters, 31)
        with pytest.raises(RuntimeError):
            log_likelihood(gp)
        gp.fit_rows(gp.encoder.encode_batch(configs), values)
        assert math.isfinite(log_likelihood(gp))


# ---------------------------------------------------------------------------
# SurrogatePolicy: spec grammar, cadence
# ---------------------------------------------------------------------------

class TestSurrogatePolicy:
    def test_defaults_are_exact(self):
        policy = SurrogatePolicy()
        assert policy.mode == "exact"
        assert policy.spec() == "exact"
        assert SurrogatePolicy.parse(None) == policy

    @pytest.mark.parametrize(
        "spec",
        ["exact", "fast", "fast,refit_every=3", "fast,refit_every=8,sweep_every=40"],
    )
    def test_spec_round_trip(self, spec):
        policy = SurrogatePolicy.parse(spec)
        assert SurrogatePolicy.parse(policy.spec()) == policy

    def test_parse_options(self):
        policy = SurrogatePolicy.parse("fast,refit_every=5,sweep_every=20")
        assert policy.mode == "fast"
        assert policy.refit_hypers_every == 5
        assert policy.sweep_every == 20

    @pytest.mark.parametrize(
        "spec",
        [
            "", "turbo", "exact,refit_every=3", "fast,bogus=1", "fast,refit_every",
            "fast,refit_every=x", "fast,refit_every=0", "fast,rf_at=1",
            "fast,refit_every=2,refit_every=3",
        ],
    )
    def test_invalid_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            SurrogatePolicy.parse(spec)

    def test_settings_validate_the_spec(self):
        with pytest.raises(ValueError):
            BacoSettings(surrogate_policy="nope")

    def test_fit_strategy_cadence(self):
        policy = SurrogatePolicy.parse("fast,refit_every=3,sweep_every=10")
        # nothing swept yet -> sweep
        assert policy.fit_strategy(5, 0, 0) == "sweep"
        # freshly swept at n=5 -> frozen until the refit cadence fires
        assert policy.fit_strategy(6, 5, 5) == "frozen"
        assert policy.fit_strategy(7, 5, 5) == "frozen"
        assert policy.fit_strategy(8, 5, 5) == "warm"
        # warm refit at 8 resets the refit counter, not the sweep counter
        assert policy.fit_strategy(9, 5, 8) == "frozen"
        assert policy.fit_strategy(15, 5, 8) == "sweep"
        # exact mode always sweeps
        assert SurrogatePolicy().fit_strategy(100, 50, 99) == "sweep"


# ---------------------------------------------------------------------------
# the policy inside a live BacoTuner
# ---------------------------------------------------------------------------

def _toy_space() -> SearchSpace:
    return SearchSpace(
        [
            OrdinalParameter("tile", [2, 4, 8, 16, 32, 64], transform="log"),
            IntegerParameter("unroll", 1, 8),
            CategoricalParameter("sched", ["a", "b"]),
        ],
        build_chain_of_trees=False,
    )


def _toy_objective(config) -> ObjectiveResult:
    value = (
        1.0
        + abs(math.log2(config["tile"]) - 3.0)
        + 0.1 * config["unroll"]
        + (0.5 if config["sched"] == "b" else 0.0)
    )
    return ObjectiveResult(value=value)


def _fast_settings(**kwargs) -> BacoSettings:
    kwargs.setdefault("gp_prior_samples", 4)
    kwargs.setdefault("gp_refined_starts", 1)
    kwargs.setdefault("gp_max_iterations", 10)
    kwargs.setdefault("n_random_samples", 64)
    kwargs.setdefault("n_local_search_starts", 2)
    kwargs.setdefault("max_local_search_steps", 8)
    kwargs.setdefault("feasibility_trees", 8)
    return BacoSettings(**kwargs)


class TestBacoTunerPolicy:
    def test_default_policy_is_exact(self):
        tuner = BacoTuner(_toy_space(), settings=_fast_settings(), seed=0)
        assert tuner.surrogate_policy.mode == "exact"

    def test_exact_mode_state_dict_is_unchanged(self):
        """Exact-mode snapshots must stay byte-identical to the pre-policy
        format (no surrogate_policy key), so committed fixtures keep passing."""
        tuner = BacoTuner(_toy_space(), settings=_fast_settings(), seed=1)
        tuner.tune(_toy_objective, 8)
        assert "surrogate_policy" not in tuner._state_dict()

    def test_fast_mode_reduces_factorizations(self):
        budget = 16
        space = _toy_space()
        policy = "fast,refit_every=100,sweep_every=100"
        tuner = BacoTuner(
            space, settings=_fast_settings(surrogate_policy=policy), seed=2
        )
        tuner.tune(_toy_objective, budget)
        gp = tuner._fast_gp
        assert gp is not None
        # one full sweep when the learning phase began, frozen extensions after
        assert gp.n_train_factorizations == 1
        # the last observation is never fit (no recommendation follows it)
        assert gp._chol_n == len(tuner._feasible_values) - 1
        assert gp._chol_base_n < gp._chol_n

    def test_fast_mode_warm_refits_on_cadence(self):
        policy = "fast,refit_every=2,sweep_every=100"
        tuner = BacoTuner(
            _toy_space(), settings=_fast_settings(surrogate_policy=policy), seed=3
        )
        tuner.tune(_toy_objective, 16)
        st = tuner._policy_state
        assert st["hypers"] is not None
        assert st["last_refit_n"] > st["last_sweep_n"]
        # warm refits refactorize (new hypers) but never re-run the sweep
        assert tuner._fast_gp.n_train_factorizations > 1

    def test_set_surrogate_policy_rejects_bad_spec(self):
        tuner = BacoTuner(_toy_space(), settings=_fast_settings(), seed=5)
        with pytest.raises(ValueError):
            tuner.set_surrogate_policy("fast,warp=9")

    def test_fast_and_exact_reach_similar_quality(self):
        """Sanity guard: the fast policy is an approximation, but on a toy
        problem it must still optimize (not degrade to random search)."""
        budget = 20
        exact = BacoTuner(_toy_space(), settings=_fast_settings(), seed=6)
        best_exact = exact.tune(_toy_objective, budget).best_value()
        fast = BacoTuner(
            _toy_space(),
            settings=_fast_settings(surrogate_policy="fast,refit_every=4,sweep_every=12"),
            seed=6,
        )
        best_fast = fast.tune(_toy_objective, budget).best_value()
        assert best_fast <= best_exact * 1.5 + 0.5

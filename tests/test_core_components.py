"""Tests for acquisition functions, feasibility model, DoE, local search, results."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.acquisition import (
    AcquisitionFunction,
    expected_improvement,
    lower_confidence_bound,
)
from repro.core.doe import default_doe_size, initial_design
from repro.core.feasibility import FeasibilityModel, FeasibilityThresholdSchedule
from repro.core.local_search import (
    LocalSearchSettings,
    multistart_local_search_batch,
    random_candidate_rows,
)
from repro.core.result import Evaluation, ObjectiveResult, TuningHistory
from repro.models.gp import GaussianProcess


# ---------------------------------------------------------------------------
# expected improvement
# ---------------------------------------------------------------------------

class TestExpectedImprovement:
    def test_zero_variance_at_worse_mean(self):
        ei = expected_improvement(np.array([5.0]), np.array([1e-18]), best_value=1.0)
        assert ei[0] == pytest.approx(0.0, abs=1e-9)

    def test_certain_improvement_equals_gap(self):
        ei = expected_improvement(np.array([1.0]), np.array([1e-18]), best_value=3.0)
        assert ei[0] == pytest.approx(2.0, rel=1e-6)

    def test_more_uncertainty_more_ei_at_equal_mean(self):
        low = expected_improvement(np.array([2.0]), np.array([0.01]), best_value=2.0)
        high = expected_improvement(np.array([2.0]), np.array([1.0]), best_value=2.0)
        assert high[0] > low[0]

    def test_never_negative(self):
        means = np.linspace(-3, 3, 21)
        ei = expected_improvement(means, np.full(21, 0.3), best_value=0.0)
        assert np.all(ei >= 0)

    def test_lcb_prefers_uncertain_points(self):
        low = lower_confidence_bound(np.array([1.0]), np.array([0.01]))
        high = lower_confidence_bound(np.array([1.0]), np.array([1.0]))
        assert high[0] > low[0]


class TestAcquisitionFunction:
    def _fitted_gp(self, rng, space):
        configs = space.sample(rng, 15)
        values = [c["p1"] / c["p2"] + 1.0 for c in configs]
        gp = GaussianProcess(space.parameters, rng=rng, n_prior_samples=6, n_refined_starts=1)
        gp.fit(configs, values)
        return gp, configs, values

    def test_prefers_promising_configurations(self, rng, small_space):
        gp, configs, values = self._fitted_gp(rng, small_space)
        acquisition = AcquisitionFunction(gp, best_value=min(values))
        good = {"p1": 4, "p2": 4, "sched": "static", "order": (0, 1, 2)}
        bad = {"p1": 16, "p2": 2, "sched": "static", "order": (0, 1, 2)}
        values_out = acquisition([good, bad])
        assert values_out[0] >= values_out[1]

    def test_feasibility_weighting_zeroes_below_threshold(self, rng, small_space):
        gp, configs, values = self._fitted_gp(rng, small_space)

        class StubFeasibility:
            is_trained = True

            def predict_probability(self, candidates):
                return np.array([0.9 if c["p1"] <= 8 else 0.05 for c in candidates])

        acquisition = AcquisitionFunction(
            gp, best_value=min(values), feasibility_model=StubFeasibility(), feasibility_threshold=0.5
        )
        allowed = {"p1": 4, "p2": 2, "sched": "static", "order": (0, 1, 2)}
        cut = {"p1": 16, "p2": 2, "sched": "static", "order": (0, 1, 2)}
        out = acquisition([allowed, cut])
        assert np.isfinite(out[0])
        assert out[1] == -np.inf

    def test_requires_finite_best(self, rng, small_space):
        gp, _, _ = self._fitted_gp(rng, small_space)
        with pytest.raises(ValueError):
            AcquisitionFunction(gp, best_value=math.inf)

    def test_empty_batch(self, rng, small_space):
        gp, _, values = self._fitted_gp(rng, small_space)
        acquisition = AcquisitionFunction(gp, best_value=min(values))
        assert acquisition([]).shape == (0,)


# ---------------------------------------------------------------------------
# feasibility model and threshold schedule
# ---------------------------------------------------------------------------

class TestFeasibilityModel:
    def test_untrained_predicts_prior(self, small_space):
        model = FeasibilityModel(small_space)
        probabilities = model.predict_probability(
            [{"p1": 2, "p2": 2, "sched": "static", "order": (0, 1, 2)}]
        )
        assert probabilities[0] == pytest.approx(1.0)
        assert not model.is_trained

    def test_single_class_gives_smoothed_estimate(self, small_space, rng):
        model = FeasibilityModel(small_space, rng=rng)
        configs = small_space.sample(rng, 10)
        model.fit(configs, [True] * 10)
        assert not model.is_trained
        probability = model.predict_probability(configs[:1])[0]
        assert 0.8 < probability <= 1.0

    def test_learns_hidden_constraint(self, small_space, rng):
        model = FeasibilityModel(small_space, n_trees=24, rng=rng)
        configs = small_space.sample(rng, 120)
        labels = [c["p1"] <= 4 for c in configs]
        model.fit(configs, labels)
        assert model.is_trained
        feasible_cfg = {"p1": 2, "p2": 2, "sched": "static", "order": (0, 1, 2)}
        infeasible_cfg = {"p1": 16, "p2": 2, "sched": "static", "order": (0, 1, 2)}
        p_ok = model.predict_probability([feasible_cfg])[0]
        p_bad = model.predict_probability([infeasible_cfg])[0]
        assert p_ok > p_bad

    def test_length_mismatch(self, small_space, rng):
        model = FeasibilityModel(small_space, rng=rng)
        with pytest.raises(ValueError):
            model.fit(small_space.sample(rng, 3), [True, False])


class TestFeasibilityThresholdSchedule:
    def test_disabled_always_zero(self, rng):
        schedule = FeasibilityThresholdSchedule(enabled=False)
        assert all(schedule.sample(rng) == 0.0 for _ in range(20))

    def test_zero_probability_respected(self, rng):
        schedule = FeasibilityThresholdSchedule(zero_probability=0.5, max_threshold=0.8)
        samples = [schedule.sample(rng) for _ in range(2000)]
        zero_fraction = sum(1 for s in samples if s == 0.0) / len(samples)
        assert 0.4 < zero_fraction < 0.6
        assert max(samples) <= 0.8

    def test_validation(self):
        with pytest.raises(ValueError):
            FeasibilityThresholdSchedule(zero_probability=0.0)
        with pytest.raises(ValueError):
            FeasibilityThresholdSchedule(max_threshold=1.5)


# ---------------------------------------------------------------------------
# initial design
# ---------------------------------------------------------------------------

class TestInitialDesign:
    def test_produces_requested_count(self, small_space, rng):
        samples = initial_design(small_space, 12, rng)
        assert len(samples) == 12
        assert all(small_space.is_feasible(c) for c in samples)

    def test_deduplicates_when_possible(self, small_space, rng):
        samples = initial_design(small_space, 20, rng)
        keys = {small_space.freeze(c) for c in samples}
        assert len(keys) == 20

    def test_tiny_space_allows_duplicates(self, rng):
        from repro.space import OrdinalParameter, SearchSpace

        space = SearchSpace([OrdinalParameter("a", [1, 2])])
        samples = initial_design(space, 10, rng)
        assert len(samples) == 10

    def test_default_doe_size_bounds(self, small_space):
        assert default_doe_size(small_space, 60) >= small_space.dimension + 1
        assert default_doe_size(small_space, 9) <= 3
        assert default_doe_size(small_space, 3) >= 1

    def test_invalid_count(self, small_space, rng):
        with pytest.raises(ValueError):
            initial_design(small_space, 0, rng)


# ---------------------------------------------------------------------------
# local search
# ---------------------------------------------------------------------------

class TestLocalSearch:
    def test_finds_optimum_of_known_acquisition(self, small_space, rng):
        def acquisition(configs):
            # maximized at p1 == p2 and order == (2, 1, 0)
            return np.array(
                [
                    -(c["p1"] / c["p2"]) - sum(i * v for i, v in enumerate(c["order"]))
                    for c in configs
                ]
            )

        [(best, _)] = multistart_local_search_batch(
            small_space,
            acquisition,
            rng,
            settings=LocalSearchSettings(n_random_samples=64, n_starts=4, max_steps=20),
            k=1,
        )
        assert best["p1"] == best["p2"]
        assert tuple(best["order"]) == (2, 1, 0)

    def test_respects_exclusion_set(self, small_space, rng):
        def acquisition(configs):
            return np.array([1.0 if c["p1"] == 2 and c["p2"] == 2 else 0.0 for c in configs])

        excluded_keys = {
            small_space.freeze({"p1": 2, "p2": 2, "sched": s, "order": o})
            for s in ("static", "dynamic", "guided")
            for o in small_space["order"].values_list()
        }
        [(best, _)] = multistart_local_search_batch(
            small_space, acquisition, rng, exclude=excluded_keys, k=1
        )
        assert small_space.freeze(best) not in excluded_keys

    def test_random_candidates_are_unique_and_feasible(self, small_space, rng):
        rows = random_candidate_rows(small_space, 64, rng)
        candidates = [small_space.encoder.decode(row) for row in rows]
        keys = {small_space.freeze(c) for c in candidates}
        assert len(keys) == len(candidates)
        assert all(small_space.is_feasible(c) for c in candidates)

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            LocalSearchSettings(n_random_samples=0)


# ---------------------------------------------------------------------------
# results / histories
# ---------------------------------------------------------------------------

class TestTuningHistory:
    def _history(self):
        history = TuningHistory(tuner_name="test", benchmark_name="bench", seed=7)
        history.append({"a": 1}, ObjectiveResult(5.0), phase="initial")
        history.append({"a": 2}, ObjectiveResult(math.inf, feasible=False))
        history.append({"a": 3}, ObjectiveResult(3.0))
        history.append({"a": 4}, ObjectiveResult(4.0))
        return history

    def test_best_ignores_infeasible(self):
        history = self._history()
        assert history.best().value == 3.0
        assert history.best_value() == 3.0
        assert history.n_feasible == 3

    def test_best_with_budget(self):
        history = self._history()
        assert history.best_value(budget=2) == 5.0
        assert history.best_value(budget=3) == 3.0

    def test_best_so_far_monotone(self):
        curve = self._history().best_so_far()
        assert list(curve) == [5.0, 5.0, 3.0, 3.0]
        assert all(curve[i + 1] <= curve[i] for i in range(len(curve) - 1))

    def test_evaluations_to_reach(self):
        history = self._history()
        assert history.evaluations_to_reach(5.0) == 1
        assert history.evaluations_to_reach(3.5) == 3
        assert history.evaluations_to_reach(0.1) is None

    def test_serialization_roundtrip(self):
        history = self._history()
        restored = TuningHistory.from_dict(history.to_dict())
        assert restored.tuner_name == history.tuner_name
        assert restored.best_value() == history.best_value()
        assert len(restored) == len(history)
        assert restored.evaluations[0].phase == "initial"

    def test_tuple_values_survive_roundtrip(self):
        history = TuningHistory(tuner_name="t")
        history.append({"perm": (2, 0, 1)}, ObjectiveResult(1.0))
        restored = TuningHistory.from_dict(history.to_dict())
        assert restored.evaluations[0].configuration["perm"] == (2, 0, 1)

    def test_objective_result_validation(self):
        with pytest.raises(ValueError):
            ObjectiveResult(value=math.inf, feasible=True)

    def test_empty_history(self):
        history = TuningHistory(tuner_name="empty")
        assert history.best() is None
        assert history.best_value() == math.inf
        assert list(history.best_so_far()) == []

"""The acquisition hot path: phase profiling and fused scoring.

* the :class:`~repro.core.profiling.PhaseProfiler` records *exclusive*
  (self-time) per-phase wall-clock and never perturbs the loop it observes,
* the fused, memoized scoring path
  (:class:`~repro.core.acquisition.FusedAcquisitionScorer`) produces the
  same acquisition values as the plain per-batch path to 1e-10 across all
  five parameter types (real / integer / ordinal / categorical /
  permutation), and :func:`~repro.core.local_search.pooled_local_search_batch`
  climbs from the rows it primed,
* the ``exact`` and ``fast`` policies each run end to end with calls in
  every profiler phase,
* the service ``status`` op surfaces the per-phase timings.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acquisition import AcquisitionFunction, FusedAcquisitionScorer
from repro.core.feasibility import FeasibilityModel
from repro.core.local_search import LocalSearchSettings, pooled_local_search_batch
from repro.core.profiling import PHASES, PhaseProfiler
from repro.models.distances import IncrementalDistanceTensor
from repro.models.gp import GaussianProcess
from repro.space.parameters import (
    CategoricalParameter,
    IntegerParameter,
    OrdinalParameter,
    PermutationParameter,
    RealParameter,
)
from repro.space.space import SearchSpace


def _params():
    return [
        RealParameter("alpha", 0.1, 10.0, transform="log"),
        IntegerParameter("threads", 1, 16),
        OrdinalParameter("tile", [2, 4, 8, 16, 32], transform="log"),
        CategoricalParameter("sched", ["a", "b", "c"]),
        PermutationParameter("perm", 5, metric="spearman"),
    ]


class TestPhaseProfiler:
    def test_nested_phase_time_is_exclusive(self):
        profiler = PhaseProfiler()
        with profiler.phase("climb"):
            time.sleep(0.02)
            with profiler.phase("predict"):
                time.sleep(0.04)
            time.sleep(0.01)
        total = profiler.seconds["climb"] + profiler.seconds["predict"]
        # the inner phase's window is charged to "predict" only
        assert profiler.seconds["predict"] >= 0.04
        assert profiler.seconds["climb"] < profiler.seconds["predict"]
        assert total >= 0.07
        assert profiler.calls == {"climb": 1, "predict": 1}

    def test_summary_zero_fills_known_phases(self):
        profiler = PhaseProfiler()
        with profiler.phase("fit"):
            pass
        with profiler.phase("custom"):
            pass
        summary = profiler.summary()
        assert set(summary) == {"seconds", "calls"}
        for name in PHASES:
            assert name in summary["seconds"]
            assert name in summary["calls"]
        assert "custom" in summary["seconds"]
        assert summary["calls"]["fit"] == 1
        assert summary["calls"]["sample"] == 0

    def test_reset(self):
        profiler = PhaseProfiler()
        with profiler.phase("ei"):
            pass
        profiler.reset()
        assert profiler.seconds == {} and profiler.calls == {}


class TestFusedScoringEquivalence:
    """Primed / memoized / fused scores equal the from-scratch path."""

    @staticmethod
    def _fitted_stack(seed: int, n_train: int):
        params = _params()
        space = SearchSpace(params, constraints=[], build_chain_of_trees=False)
        rng = np.random.default_rng(seed)
        train = space.sample_rows(rng, n_train)
        values = list(np.random.default_rng(seed + 1).uniform(0.5, 4.0, size=n_train))

        gp = GaussianProcess(
            params, n_prior_samples=4, n_refined_starts=1,
            max_optimizer_iterations=6, rng=np.random.default_rng(seed + 2),
        )
        cache = IncrementalDistanceTensor(gp._distance)
        cache.append(train)
        gp.fit_rows(cache.rows, values, distance_tensor=cache.tensor)

        feasibility = FeasibilityModel(
            space, n_trees=8, rng=np.random.default_rng(seed + 3)
        )
        labels = [bool(b) for b in np.random.default_rng(seed + 4).random(n_train) > 0.4]
        if len(set(labels)) < 2:  # both classes must appear for is_trained
            labels[0] = not labels[0]
        feasibility.fit_rows(train, labels)

        acquisition = AcquisitionFunction(
            gp,
            best_value=min(values),
            feasibility_model=feasibility,
            feasibility_threshold=0.35,
            noiseless=True,
        )
        return space, gp, train, acquisition

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_train=st.integers(min_value=4, max_value=12),
        n_pool=st.integers(min_value=5, max_value=24),
    )
    def test_pooled_scores_match_scratch_path(self, seed, n_train, n_pool):
        space, gp, train, acquisition = self._fitted_stack(seed, n_train)
        pool = space.sample_rows(np.random.default_rng(seed + 5), n_pool)

        reference = acquisition.evaluate_rows(pool, space.encoder)

        scorer = FusedAcquisitionScorer(acquisition, space.encoder)
        primed = scorer.prime_pool(pool)
        assert np.allclose(primed, reference, atol=1e-10, rtol=0, equal_nan=True)
        assert scorer.n_memoized == len({row.tobytes() for row in pool})

        # memoized re-scoring over a shuffled, duplicated batch
        order = np.random.default_rng(seed + 6).integers(0, n_pool, size=2 * n_pool)
        repeat = scorer.score_rows(pool[order])
        assert np.allclose(repeat, reference[order], atol=1e-10, rtol=0, equal_nan=True)

    def test_score_rows_mixes_memo_hits_and_fresh_rows(self):
        space, gp, train, acquisition = self._fitted_stack(seed=77, n_train=8)
        pool = space.sample_rows(np.random.default_rng(80), 10)
        fresh = space.sample_rows(np.random.default_rng(81), 6)

        scorer = FusedAcquisitionScorer(acquisition, space.encoder)
        scorer.prime_pool(pool)
        batch = np.vstack([fresh[:3], pool[2:5], fresh[3:]])
        got = np.array(scorer.score_rows(batch), copy=True)  # returned array is a view
        expected = acquisition.evaluate_rows(batch, space.encoder)
        assert np.allclose(got, expected, atol=1e-10, rtol=0, equal_nan=True)
        # every distinct row of the batch is memoized now
        second = np.array(scorer.score_rows(batch), copy=True)
        assert np.array_equal(second, got)

    def test_pooled_climb_starts_from_primed_rows(self):
        space, gp, train, acquisition = self._fitted_stack(seed=91, n_train=10)
        pool = space.sample_rows(np.random.default_rng(92), 40)
        scorer = FusedAcquisitionScorer(acquisition, space.encoder)
        values = np.array(scorer.prime_pool(pool), copy=True)
        live = [int(i) for i in np.argsort(-values) if np.isfinite(values[i])]
        assert 3 <= len(live) < len(pool)  # ε_f rules some rows out

        ranked, starts = pooled_local_search_batch(
            space, scorer, pool, values,
            settings=LocalSearchSettings(n_random_samples=len(pool), n_starts=3, max_steps=8),
            k=2,
        )
        # the climb starts from the three best live rows, never worsens the
        # best of them, and ranks its results best first
        assert starts == live[:3]
        assert len(ranked) == 2
        assert ranked[0][1] >= values[live[0]]
        assert ranked[0][1] >= ranked[1][1]


class TestPooledPolicyEndToEnd:
    BENCHMARK = "hpvm_bfs"

    @pytest.mark.parametrize("policy", ["exact", "fast,refit_every=3,sweep_every=10"])
    def test_pooled_run_completes_and_profiles(self, policy):
        """Every policy runs end to end and records calls in every phase."""
        from repro.experiments.runner import make_tuner
        from repro.workloads.registry import get_benchmark

        bench = get_benchmark(self.BENCHMARK)
        tuner = make_tuner("BaCO", bench.space, seed=17, surrogate_policy=policy)
        history = tuner.tune(bench.evaluator, 14, benchmark_name=bench.name)
        assert len(history) == 14
        assert all(np.isfinite(e.value) for e in history if e.feasible)
        summary = tuner.phase_profiler.summary()
        for phase in PHASES:
            assert summary["calls"][phase] > 0, phase


class TestStatusTimings:
    def test_status_exposes_phase_timings(self):
        from repro.service import SessionRegistry
        from repro.workloads.registry import get_benchmark

        bench = get_benchmark("hpvm_bfs")
        registry = SessionRegistry(max_sessions=2)
        assert registry.handle(
            {"op": "start", "session": "s", "benchmark": "hpvm_bfs",
             "tuner": "BaCO", "budget": 4, "seed": 0}
        )["ok"]
        [suggestion] = registry.handle({"op": "ask", "session": "s", "n": 1})["suggestions"]
        result = bench.evaluator(suggestion["configuration"])
        registry.handle(
            {"op": "tell", "session": "s", "id": suggestion["id"],
             "value": result.value, "feasible": result.feasible}
        )
        status = registry.handle({"op": "status", "session": "s"})
        assert status["ok"]
        timings = status["timings"]
        assert set(timings) == {"seconds", "calls"}
        for phase in ("sample", "feas_fit", "fit", "predict", "ei", "feas_predict", "climb"):
            assert phase in timings["seconds"]

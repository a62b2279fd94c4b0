"""The acquisition hot path: pool, cross-distance cache, fused scoring.

Guarantees for the PR-9 overhaul:

* the :class:`~repro.core.profiling.PhaseProfiler` records *exclusive*
  (self-time) per-phase wall-clock and never perturbs the loop it observes,
* the pool-side :class:`~repro.models.distances.CrossDistanceTensor` built
  incrementally (column-block appends per observation, row refreshes per
  resampled slot) is bit-identical to a from-scratch pairwise computation,
* the fused, memoized, cross-distance-backed scoring path produces the same
  acquisition values as the plain per-batch path to 1e-10 across all five
  parameter types (real / integer / ordinal / categorical / permutation),
* the ``exact``, ``fast`` and pooled policies each run end to end with calls
  in every profiler phase,
* the ``pool=`` policy family round-trips through spec strings, snapshots
  its pool, and a resumed run replays bit-identically,
* the service ``status`` op surfaces the per-phase timings.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acquisition import AcquisitionFunction, FusedAcquisitionScorer
from repro.core.baco import SurrogatePolicy
from repro.core.feasibility import FeasibilityModel
from repro.core.profiling import PHASES, PhaseProfiler
from repro.models.distances import (
    CrossDistanceTensor,
    DistanceComputer,
    IncrementalDistanceTensor,
)
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


def _rows(space, n, seed):
    return space.sample_rows(np.random.default_rng(seed), n)


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


class TestCrossDistanceTensor:
    def test_incremental_train_extension_matches_full_recompute(self):
        computer = DistanceComputer(_params())
        space = SearchSpace(_params(), constraints=[], build_chain_of_trees=False)
        pool = _rows(space, 17, seed=1)
        train = _rows(space, 13, seed=2)

        cross = CrossDistanceTensor(computer)
        cross.set_pool(pool, train[:2])
        for i in range(2, len(train)):
            cross.extend_train(train[i : i + 1])

        assert len(cross) == len(train)
        assert cross.n_pool == len(pool)
        # column-block assembly is bit-identical to the from-scratch tensor:
        # every distance block is elementwise or per-pair-independent
        assert np.array_equal(cross.tensor, computer.pairwise_rows(pool, train))

    def test_refresh_pool_rows_matches_full_recompute(self):
        computer = DistanceComputer(_params())
        space = SearchSpace(_params(), constraints=[], build_chain_of_trees=False)
        pool = _rows(space, 11, seed=3)
        train = _rows(space, 7, seed=4)
        replacement = _rows(space, 3, seed=5)

        cross = CrossDistanceTensor(computer)
        cross.set_pool(pool, train)
        indices = [0, 4, 10]
        cross.refresh_pool_rows(indices, replacement, train)

        expected_pool = pool.copy()
        expected_pool[indices] = replacement
        assert np.array_equal(cross.pool_rows, expected_pool)
        assert np.array_equal(
            cross.tensor, computer.pairwise_rows(expected_pool, train)
        )

    def test_views_stay_valid_across_growth(self):
        computer = DistanceComputer(_params())
        space = SearchSpace(_params(), constraints=[], build_chain_of_trees=False)
        pool = _rows(space, 6, seed=6)
        train = _rows(space, 30, seed=7)
        cross = CrossDistanceTensor(computer)
        cross.set_pool(pool, train[:2])
        view = cross.tensor
        snapshot = view.copy()
        cross.extend_train(train[2:])  # forces at least one reallocation
        assert np.array_equal(view, snapshot)

    def test_errors(self):
        computer = DistanceComputer(_params())
        space = SearchSpace(_params(), constraints=[], build_chain_of_trees=False)
        cross = CrossDistanceTensor(computer)
        with pytest.raises(RuntimeError):
            cross.extend_train(_rows(space, 1, seed=8))
        cross.set_pool(_rows(space, 4, seed=9), _rows(space, 3, seed=10))
        with pytest.raises(ValueError):
            cross.refresh_pool_rows([0, 1], _rows(space, 1, seed=11), _rows(space, 3, seed=12))
        with pytest.raises(ValueError):
            cross.refresh_pool_rows([0], _rows(space, 1, seed=13), _rows(space, 2, seed=14))

    def test_predict_rows_validates_cross_shape(self):
        params = _params()
        space = SearchSpace(params, constraints=[], build_chain_of_trees=False)
        train = _rows(space, 8, seed=15)
        gp = GaussianProcess(
            params, n_prior_samples=4, n_refined_starts=1,
            max_optimizer_iterations=5, rng=np.random.default_rng(16),
        )
        cache = IncrementalDistanceTensor(gp._distance)
        cache.append(train)
        values = list(np.random.default_rng(17).uniform(0.5, 3.0, size=8))
        gp.fit_rows(cache.rows, values, distance_tensor=cache.tensor)
        candidates = _rows(space, 5, seed=18)
        bad = gp._distance.pairwise_rows(candidates, train[:6])
        with pytest.raises(ValueError):
            gp.predict_rows(candidates, cross_distance=bad)


class TestFusedScoringEquivalence:
    """Pooled / cached / fused scores equal the from-scratch path."""

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

        # cross-distance-backed prime over an incrementally built tensor
        cross = CrossDistanceTensor(gp._distance)
        cross.set_pool(pool, train[:2])
        for i in range(2, len(train)):
            cross.extend_train(train[i : i + 1])
        scorer = FusedAcquisitionScorer(acquisition, space.encoder)
        primed = scorer.prime_pool(pool, cross_distance=cross.tensor)
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


class TestPoolPolicySpec:
    def test_parse_spec_round_trip(self):
        for spec, expect in [("fast,pool=512", 512), ("fast,refit_every=16,pool=64", 64)]:
            policy = SurrogatePolicy.parse(spec)
            assert policy.pool_size == expect
            assert SurrogatePolicy.parse(policy.spec()) == policy
        assert SurrogatePolicy.parse("fast,pool=8").spec() == (
            "fast,refit_every=8,sweep_every=40,pool=8"
        )

    def test_invalid_specs(self):
        for bad in (
            "exact,pool=8",
            "fast,pool=1",
            "fast,pool=abc",
            "fast,pool=8,pool=9",
        ):
            with pytest.raises(ValueError):
                SurrogatePolicy.parse(bad)
        # the cross-distance cache is always on: 'cache' is no option
        for bad in ("fast,pool=8,cache=on", "fast,refit_every=16,pool=64,cache=off"):
            with pytest.raises(ValueError, match="unknown policy option 'cache'"):
                SurrogatePolicy.parse(bad)
        with pytest.raises(ValueError, match="fast"):
            SurrogatePolicy(pool_size=8)  # exact mode cannot pool


class TestPooledPolicyEndToEnd:
    BENCHMARK = "hpvm_bfs"

    def _run(self, policy, budget=14):
        from repro.experiments.runner import make_tuner
        from repro.workloads.registry import get_benchmark

        bench = get_benchmark(self.BENCHMARK)
        tuner = make_tuner("BaCO", bench.space, seed=17, surrogate_policy=policy)
        history = tuner.tune(bench.evaluator, budget, benchmark_name=bench.name)
        return bench, tuner, history

    @pytest.mark.parametrize(
        "policy",
        [
            "exact",
            "fast,refit_every=3,sweep_every=10",
            "fast,refit_every=3,sweep_every=10,pool=48",
        ],
    )
    def test_pooled_run_completes_and_profiles(self, policy):
        """Every policy runs end to end and records calls in every phase;
        the pooled one also keeps its pool across asks."""
        _, tuner, history = self._run(policy)
        assert len(history) == 14
        assert all(np.isfinite(e.value) for e in history if e.feasible)
        summary = tuner.phase_profiler.summary()
        for phase in PHASES:
            assert summary["calls"][phase] > 0, phase
        if "pool=" not in policy:
            return
        # the pool survived across asks and slots were recycled, not redrawn
        assert tuner._candidate_pool is not None
        assert len(tuner._candidate_pool) == 48
        assert tuner._pool_refill  # last ask consumed starts

    def test_snapshot_records_pool_state(self):
        _, tuner, _ = self._run("fast,refit_every=3,sweep_every=10,pool=48")
        payload = json.loads(json.dumps(tuner._state_dict()))
        state = payload["surrogate_policy"]
        assert state["spec"] == "fast,refit_every=3,sweep_every=10,pool=48"
        assert len(state["pool_rows"]) == 48
        assert state["pool_refill"] == sorted(set(state["pool_refill"]))
        # floats survive the JSON round-trip bit-exactly
        assert np.array_equal(
            np.asarray(state["pool_rows"], dtype=float), tuner._candidate_pool
        )

    def test_plain_fast_snapshot_carries_no_pool_keys(self):
        _, tuner, _ = self._run("fast,refit_every=3,sweep_every=10")
        state = tuner._state_dict()["surrogate_policy"]
        assert "pool_rows" not in state and "pool_refill" not in state


class TestPooledPolicyCheckpointBitCompatibility:
    """A pooled run interrupted, snapshotted through JSON, and resumed
    replays bit-identically: the pool rows (whose RNG draws are already
    consumed), the pending refill slots, and the rebuilt cross-distance
    cache must all land exactly where the uninterrupted run has them."""

    BENCHMARK = "hpvm_bfs"
    BUDGET = 18
    INTERRUPT_AT = 7
    POLICIES = ("fast,refit_every=3,sweep_every=10,pool=48",)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_in_process_resume_identical(self, policy):
        from repro.core.session import drive
        from repro.experiments.runner import make_session, make_tuner, restore_session
        from repro.workloads.registry import get_benchmark

        bench = get_benchmark(self.BENCHMARK)
        reference = make_tuner(
            "BaCO", bench.space, seed=17, surrogate_policy=policy
        ).tune(bench.evaluator, self.BUDGET, benchmark_name=bench.name)
        expected = reference.to_dict()
        expected.pop("tuner_seconds", None)
        expected.pop("evaluation_seconds", None)

        session, _ = make_session(
            self.BENCHMARK, "BaCO", self.BUDGET, 17, surrogate_policy=policy
        )
        while len(session.history) < self.INTERRUPT_AT:
            [suggestion] = session.ask(1)
            session.tell(suggestion, bench.evaluator(suggestion.configuration))
        payload = json.loads(json.dumps(session.snapshot()))
        del session

        resumed, _ = restore_session(payload)
        history = drive(resumed, bench.evaluator)
        got = history.to_dict()
        got.pop("tuner_seconds", None)
        got.pop("evaluation_seconds", None)
        assert got == expected


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

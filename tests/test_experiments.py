"""Tests for the experiment harness: config, runner, metrics, tables, figures."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from repro.core.result import Evaluation, ObjectiveResult, TuningHistory
from repro.experiments.config import ExperimentConfig, default_config
from repro.experiments.metrics import (
    evaluations_to_reach,
    expert_hits,
    geometric_mean,
    mean_best_curve,
    mean_best_value,
    reference_value,
    relative_performance,
    speedup_factor,
)
from repro.experiments.reporting import format_checkpoint_study, format_figure5, format_table
from repro.experiments.runner import MAIN_TUNERS, TUNER_VARIANTS, make_tuner, run_benchmark, run_single
from repro.experiments.tables import table3_rows
from repro.workloads import get_benchmark


def _history(values, tuner="t", feasible=None):
    history = TuningHistory(tuner_name=tuner)
    feasible = feasible or [True] * len(values)
    for value, ok in zip(values, feasible):
        history.append({"x": value}, ObjectiveResult(value if ok else math.inf, feasible=ok))
    return history


class TestConfig:
    def test_defaults(self):
        config = ExperimentConfig()
        assert config.repetitions == 3
        assert config.scaled_budget(60) == 30
        assert config.scaled_budget(10) >= 6

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(repetitions=0)
        with pytest.raises(ValueError):
            ExperimentConfig(budget_scale=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(fidelity="extreme")

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_REPETITIONS", "7")
        monkeypatch.setenv("REPRO_BUDGET_SCALE", "0.25")
        monkeypatch.setenv("REPRO_FIDELITY", "paper")
        config = default_config()
        assert config.repetitions == 7
        assert config.budget_scale == 0.25
        assert config.fidelity == "paper"

    def test_default_cache_is_the_checkouts_from_any_directory(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        checkout = Path(__file__).resolve().parents[1]
        assert default_config().cache_dir == checkout / "results" / "cache"

    @pytest.mark.parametrize("variable, value", [
        ("REPRO_BUDGET_SCALE", "1,0"),
        ("REPRO_REPETITIONS", "thirty"),
        ("REPRO_USE_CACHE", "false"),
        ("REPRO_FULL_SUITE", "true"),
        ("REPRO_WORKERS", "0"),
    ])
    def test_malformed_env_value_raises_naming_it(self, monkeypatch, variable, value):
        """Each of these used to fall back silently (to 0.5, 3, True, False
        and 1), so a typo ran the CI-scale experiment."""
        monkeypatch.setenv(variable, value)
        with pytest.raises(ValueError, match=f"^{variable}="):
            default_config()


class TestMetrics:
    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert math.isnan(geometric_mean([]))
        assert geometric_mean([2.0, float("inf")]) == pytest.approx(2.0)

    def test_mean_best_value(self):
        histories = [_history([5, 3, 4]), _history([2, 6, 6])]
        assert mean_best_value(histories) == pytest.approx((3 + 2) / 2)
        assert mean_best_value(histories, budget=1) == pytest.approx((5 + 2) / 2)

    def test_mean_best_curve_monotone(self):
        histories = [_history([5, 3, 4]), _history([2, 6, 1])]
        curve = mean_best_curve(histories)
        assert len(curve) == 3
        assert all(curve[i + 1] <= curve[i] + 1e-12 for i in range(len(curve) - 1))

    def test_mean_best_curve_handles_initial_infeasible(self):
        histories = [_history([9, 3], feasible=[False, True])]
        curve = mean_best_curve(histories)
        assert np.isfinite(curve).all()

    def test_evaluations_to_reach(self):
        histories = [_history([5, 3, 1]), _history([5, 5, 5])]
        assert evaluations_to_reach(histories, 3.0, budget=3) == pytest.approx((2 + 3) / 2)
        assert math.isnan(evaluations_to_reach([], 3.0))

    def test_speedup_factor(self):
        fast = [_history([5, 1, 1, 1, 1, 1])]
        slow = [_history([5, 5, 5, 5, 5, 4])]
        factor = speedup_factor(fast, slow, budget=6)
        assert factor == pytest.approx(3.0)

    def test_speedup_factor_nan_when_never_reached(self):
        fast = [_history([9, 9, 9])]
        slow = [_history([1, 1, 1])]
        assert math.isnan(speedup_factor(fast, slow, budget=3))

    def test_relative_performance_and_hits(self):
        benchmark = get_benchmark("taco_spmm_scircuit")
        expert = benchmark.expert_value
        histories = [_history([expert * 2, expert]), _history([expert * 4, expert * 2])]
        rel = relative_performance(benchmark, histories)
        assert rel == pytest.approx((1.0 + 0.5) / 2)
        assert expert_hits(benchmark, histories) == 1

    def test_reference_value_for_hpvm_uses_best_found(self):
        benchmark = get_benchmark("hpvm_bfs")
        results = {"A": [_history([4.0, 2.0])], "B": [_history([3.0])]}
        assert reference_value(benchmark, results) == 2.0
        assert reference_value(benchmark, None) == benchmark.default_value


class TestRunner:
    def test_all_variants_constructible(self, small_space):
        for name in TUNER_VARIANTS:
            tuner = make_tuner(name, small_space, seed=0)
            assert tuner.name == name

    def test_unknown_variant_rejected(self, small_space):
        with pytest.raises(KeyError):
            make_tuner("AutoTVM", small_space, seed=0)

    def test_run_single_and_cache(self, tmp_path):
        config = ExperimentConfig(
            repetitions=1, budget_scale=0.5, cache_dir=tmp_path, use_cache=True
        )
        first = run_single("hpvm_bfs", "Uniform Sampling", budget=8, seed=1, config=config)
        assert len(first) == 8
        cached_files = list(tmp_path.glob("*.json"))
        assert len(cached_files) == 1
        second = run_single("hpvm_bfs", "Uniform Sampling", budget=8, seed=1, config=config)
        assert [e.value for e in second] == [e.value for e in first]

    def test_run_benchmark_produces_all_tuners(self, tmp_path):
        config = ExperimentConfig(repetitions=2, budget_scale=0.5, cache_dir=tmp_path)
        results = run_benchmark(
            "hpvm_bfs", ("Uniform Sampling", "CoT Sampling"), budget=6, config=config
        )
        assert set(results) == {"Uniform Sampling", "CoT Sampling"}
        assert all(len(histories) == 2 for histories in results.values())
        assert all(len(h) == 6 for histories in results.values() for h in histories)

    def test_main_tuners_cover_paper_baselines(self):
        assert set(MAIN_TUNERS) == {
            "BaCO",
            "ATF with OpenTuner",
            "Ytopt",
            "Uniform Sampling",
            "CoT Sampling",
        }


class TestTablesAndReporting:
    def test_table3_rows_structure(self):
        headers, rows = table3_rows(["taco_spmm_scircuit", "rise_mm_gpu", "hpvm_bfs"])
        assert headers[0] == "Benchmark"
        assert len(rows) == 3
        assert rows[0][1] == 6  # SpMM dimension
        assert rows[1][1] == 10  # MM_GPU dimension

    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["xyz", float("nan")]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len({len(line) for line in lines[2:]}) <= 2

    def test_format_figure5(self):
        data = {
            "TACO": {
                "tiny": {"BaCO": 0.8, "Default": 0.4},
                "small": {"BaCO": 1.1, "Default": 0.4},
                "full": {"BaCO": 1.2, "Default": 0.4},
            }
        }
        text = format_figure5(data)
        assert "TACO" in text and "BaCO" in text and "tiny" in text

    def test_format_checkpoint_study(self):
        data = {"BaCO": {"tiny": 0.9, "full": 1.2}, "BaCO--": {"tiny": 0.7, "full": 1.0}}
        text = format_checkpoint_study(data, "[Fig. 8]")
        assert "[Fig. 8]" in text and "BaCO--" in text

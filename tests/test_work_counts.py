"""The work a short BaCO run does, pinned as counts rather than seconds.

A trajectory is a deterministic function of (tuner, seed, budget), so the
work it does is too: how many GP fits, Cholesky extensions, MAP-objective
evaluations (and how many of those build the kernel tensor in full rather
than reuse the last full build for a finite-difference probe), feasibility
fits and draws it makes, how many rows it predicts and how many neighbours
its climb builds.  Counting them refutes a claim about where the time went
without any timing noise: a speedup that keeps every trace keeps every
count, and a change that adds work (a second predict per climb step, a
refit per tell) moves one.

The functions are wrapped with ``monkeypatch`` on their classes, so the
counts include calls from anywhere in the run.  A change that is meant to
move a count updates its literal here and says by how much.
"""

from __future__ import annotations

import functools
from collections import Counter

import pytest

from repro.core.feasibility import FeasibilityModel
from repro.experiments.runner import make_tuner
from repro.models.gp import GaussianProcess, _MapObjective
from repro.models.random_forest import RandomForestClassifier
from repro.space.space import SearchSpace
from repro.workloads.registry import get_benchmark

#: (class, method, counter of calls, counter of rows or None, rows of a call)
WRAPPED = (
    (GaussianProcess, "fit_rows", "gp.fit_calls", None, None),
    (GaussianProcess, "extend_cholesky", "gp.extend_calls", None, None),
    (_MapObjective, "__call__", "gp.objective_calls", None, None),
    (_MapObjective, "_build_base", "gp.objective_full_calls", None, None),
    (GaussianProcess, "predict_rows", "gp.predict_calls", "gp.predict_rows",
     lambda args, result: len(args[1])),
    (FeasibilityModel, "fit_rows", "feas.fit_calls", None, None),
    (RandomForestClassifier, "fit", "forest.fit_calls", None, None),
    (SearchSpace, "sample_rows", "space.sample_calls", None, None),
    (SearchSpace, "neighbour_rows_batch", "space.neighbour_calls", "space.neighbour_rows",
     lambda args, result: len(result[0])),
)

#: (benchmark, surrogate policy, seed, budget) -> counts at paper fidelity
EXPECTED = {
    ("rise_mm_gpu", "exact", 3, 40): {
        "gp.fit_calls": 29,
        "gp.extend_calls": 0,
        "gp.objective_calls": 14_634,
        "gp.objective_full_calls": 1_552,
        "gp.predict_calls": 360,
        "gp.predict_rows": 37_474,
        "feas.fit_calls": 29,
        "forest.fit_calls": 26,
        "space.sample_calls": 30,
        "space.neighbour_calls": 331,
        "space.neighbour_rows": 30_050,
    },
    ("taco_spmm_scircuit", "fast", 100, 60): {
        "gp.fit_calls": 7,
        "gp.extend_calls": 46,
        "gp.objective_calls": 1_829,
        "gp.objective_full_calls": 231,
        "gp.predict_calls": 439,
        "gp.predict_rows": 38_101,
        "feas.fit_calls": 53,
        "forest.fit_calls": 0,
        "space.sample_calls": 54,
        "space.neighbour_calls": 386,
        "space.neighbour_rows": 24_538,
    },
}


def _counting(method, counts, calls, rows_key, rows_of):
    @functools.wraps(method)
    def wrapper(*args, **kwargs):
        result = method(*args, **kwargs)
        counts[calls] += 1
        if rows_key is not None:
            counts[rows_key] += rows_of(args, result)
        return result

    return wrapper


@pytest.mark.parametrize(
    "benchmark_name,policy,seed,budget",
    list(EXPECTED),
    ids=[f"{name}-{policy}" for name, policy, _, _ in EXPECTED],
)
def test_work_counts(monkeypatch, benchmark_name, policy, seed, budget):
    counts: Counter = Counter()
    for cls, name, calls, rows_key, rows_of in WRAPPED:
        method = getattr(cls, name)
        monkeypatch.setattr(cls, name, _counting(method, counts, calls, rows_key, rows_of))
    bench = get_benchmark(benchmark_name)
    tuner = make_tuner(
        "BaCO", bench.space, seed, fidelity="paper", surrogate_policy=policy
    )
    history = tuner.tune(bench.evaluate, budget, benchmark_name=benchmark_name)
    assert len(history) == budget
    expected = EXPECTED[(benchmark_name, policy, seed, budget)]
    assert {key: counts[key] for key in expected} == expected

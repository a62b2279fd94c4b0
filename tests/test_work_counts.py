"""The work a short BaCO run does, pinned as counts rather than seconds.

A trajectory is a deterministic function of (tuner, seed, budget), so the
work it does is too: how many GP fits, Cholesky extensions, MAP-objective
calls (the prior sweep's values and L-BFGS-B's values with their
gradients, each one kernel build and factorization), L-BFGS-B runs, their
iterations and how each one ended, feasibility fits, forest nodes grown,
the forest's screening rounds (one per tree level, so at most
``max_depth`` a fit) and the nodes they screen (each one candidate draw),
how many rows it predicts, how many distance tables the
predicts build (one per fit or extension that is predicted from) and how
many blocks they compute directly instead of gathering them (none on these
all-discrete spaces: a code lookup that stops matching keeps every bit and
moves only this count), how many ``Parameter.sample_batch`` calls its draws
make (only for the parameters without a draw table: a table that stops
being used keeps every bit and moves only this count), how many neighbours
its climb builds, and how many
distance-tensor appends and batch encodes it makes (one per ask: ``tell``
passes the suggestion's encoded row to the tuner, and the GP shares it).
A restore of the finished session checks and encodes the history in one
column pass and observes it at once, so it makes one append and no batch
encode, however long the history is, and builds no table.
Counting them refutes a claim about where the time went without any timing
noise: a speedup that keeps every trace keeps every count, and a change
that adds work (a second predict per climb step, a refit per tell) moves
one.

The functions are wrapped with ``monkeypatch`` on their classes (the
forest's screen on its module), so the counts include calls from anywhere
in the run.  A change that is meant to
move a count updates its literal here and says by how much.
"""

from __future__ import annotations

import functools
from collections import Counter

import pytest

import repro.models.gp as gp_module
import repro.models.random_forest as forest_module
from repro.core.feasibility import FeasibilityModel
from repro.core.session import TuningSession, drive
from repro.experiments.runner import make_tuner
from repro.models.distances import DistanceTable, IncrementalDistanceTensor
from repro.models.gp import GaussianProcess, _MapObjective
from repro.models.random_forest import RandomForestClassifier
from repro.space.encoding import ConfigEncoder
from repro.space.parameters import (
    CategoricalParameter,
    IntegerParameter,
    OrdinalParameter,
    PermutationParameter,
    RealParameter,
)
from repro.space.space import SearchSpace
from repro.workloads.registry import get_benchmark

#: (class or module, function, counter of calls, counter of rows or None,
#: rows of a call)
WRAPPED = (
    (GaussianProcess, "fit_rows", "gp.fit_calls", None, None),
    (GaussianProcess, "extend_cholesky", "gp.extend_calls", None, None),
    (_MapObjective, "__call__", "gp.objective_calls", None, None),
    (_MapObjective, "value_and_gradient", "gp.gradient_calls", None, None),
    (GaussianProcess, "predict_rows", "gp.predict_calls", "gp.predict_rows",
     lambda args, result: len(args[1])),
    (DistanceTable, "__init__", "gp.tables", None, None),
    (DistanceTable, "_direct", "gp.direct_blocks", None, None),
    (FeasibilityModel, "fit_rows", "feas.fit_calls", None, None),
    (RandomForestClassifier, "fit", "forest.fit_calls", "forest.nodes",
     lambda args, result: sum(len(tree.value) for tree in result.trees_)),
    # one screen per level; its sizes are the nodes that drew
    (forest_module, "_best_splits", "forest.screens", "forest.draws",
     lambda args, result: len(args[5])),
    (SearchSpace, "sample_rows", "space.sample_calls", None, None),
    *(
        (cls, "sample_batch", "space.sample_batches", None, None)
        for cls in (RealParameter, IntegerParameter, OrdinalParameter,
                    CategoricalParameter, PermutationParameter)
    ),
    (SearchSpace, "neighbour_rows_batch", "space.neighbour_calls", "space.neighbour_rows",
     lambda args, result: len(result[0])),
    (IncrementalDistanceTensor, "append", "distance.appends", None, None),
    (ConfigEncoder, "encode_batch", "encode.batches", None, None),
)

#: the same counts for restoring the finished session into a fresh tuner:
#: the column pass encodes the history (no batch encode) and the feasible
#: rows extend the distance tensor in one append
RESTORE_EXPECTED = {"distance.appends": 1, "encode.batches": 0, "gp.tables": 0}

#: (benchmark, surrogate policy, seed, budget) -> counts at paper fidelity.
#: The level-wise forest moved the ``rise_mm_gpu`` run (its feasibility
#: predictions steer the climb): 32 of its 40 evaluations are feasible
#: where 30 were, and the counts that follow the trajectory moved with it
#: (the old value in each comment).  The ``taco_spmm_scircuit`` run never
#: trains its forest, so none of its counts moved.
EXPECTED = {
    ("rise_mm_gpu", "exact", 3, 40): {
        "gp.fit_calls": 29,
        "gp.extend_calls": 0,
        "gp.objective_calls": 464,  # the prior sweep's vectors
        "gp.gradient_calls": 1_112,  # 1,090; one per L-BFGS-B value with its gradient
        "lbfgsb.runs": 58,
        "lbfgsb.iterations": 943,  # 928
        "gp.predict_calls": 390,  # 360
        "gp.predict_rows": 39_516,  # 37,474
        "gp.tables": 29,  # one per fit
        "gp.direct_blocks": 0,
        "feas.fit_calls": 29,
        "forest.fit_calls": 26,
        "forest.nodes": 4_936,  # 5,866, on fewer infeasible rows
        "forest.screens": 133,  # 179 lockstep rounds; one per level now
        "forest.draws": 2_259,  # 2,795
        "space.sample_calls": 30,
        "space.sample_batches": 0,  # every free parameter has a draw table
        "space.neighbour_calls": 361,  # 331
        "space.neighbour_rows": 32_092,  # 30,050
        "distance.appends": 32,  # 30; one per feasible tell
        "encode.batches": 40,  # one per ask; each tell passes the asked row
    },
    ("taco_spmm_scircuit", "fast", 100, 60): {
        "gp.fit_calls": 7,
        "gp.extend_calls": 46,
        "gp.objective_calls": 38,
        "gp.gradient_calls": 197,
        "lbfgsb.runs": 9,
        "lbfgsb.iterations": 157,
        "gp.predict_calls": 439,
        "gp.predict_rows": 38_101,
        "gp.tables": 53,  # one per fit or extension
        "gp.direct_blocks": 0,
        "feas.fit_calls": 53,
        "forest.fit_calls": 0,
        "forest.nodes": 0,
        "forest.screens": 0,
        "forest.draws": 0,
        "space.sample_calls": 54,
        "space.sample_batches": 54,  # one per call, for the permutation
        "space.neighbour_calls": 386,
        "space.neighbour_rows": 24_538,
        "distance.appends": 60,
        "encode.batches": 60,  # one per ask
    },
}


#: how each pinned run's L-BFGS-B calls ended, by ``OptimizeResult.message``
EXPECTED_MESSAGES = {
    ("rise_mm_gpu", "exact", 3, 40): {
        "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH": 57,  # 56
        "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL": 1,  # 2
    },
    ("taco_spmm_scircuit", "fast", 100, 60): {
        "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH": 7,
        "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL": 1,
        "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT": 1,
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
    messages: Counter = Counter()
    minimize = gp_module.optimize.minimize

    def lbfgsb(*args, **kwargs):
        result = minimize(*args, **kwargs)
        counts["lbfgsb.runs"] += 1
        counts["lbfgsb.iterations"] += result.nit
        messages[result.message] += 1
        return result

    monkeypatch.setattr(gp_module.optimize, "minimize", lbfgsb)
    # each trained fit grows one level per screen, so it screens at most
    # max_depth times
    screens_per_fit = []
    fit = RandomForestClassifier.fit

    def recording_fit(forest, *args, **kwargs):
        before = counts["forest.screens"]
        result = fit(forest, *args, **kwargs)
        screens_per_fit.append((counts["forest.screens"] - before, forest.max_depth))
        return result

    monkeypatch.setattr(RandomForestClassifier, "fit", recording_fit)
    bench = get_benchmark(benchmark_name)

    def new_tuner():
        return make_tuner("BaCO", bench.space, seed, fidelity="paper", surrogate_policy=policy)

    session = new_tuner().start_session(budget, benchmark_name=benchmark_name)
    history = drive(session, bench.evaluate)
    assert len(history) == budget
    expected = EXPECTED[(benchmark_name, policy, seed, budget)]
    assert {key: counts[key] for key in expected} == expected
    assert messages == EXPECTED_MESSAGES[(benchmark_name, policy, seed, budget)]
    assert len(screens_per_fit) == counts["forest.fit_calls"]
    assert all(0 < screens <= depth for screens, depth in screens_per_fit)

    payload = session.snapshot()
    counts.clear()
    TuningSession.restore(payload, new_tuner())
    assert {key: counts[key] for key in RESTORE_EXPECTED} == RESTORE_EXPECTED

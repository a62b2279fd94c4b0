"""Unary-constraint narrowing under the sampler: the filter, narrowed draws, suite.

``SearchSpace.sample_rows`` first narrows each free integer (at most 4096
values), ordinal and categorical parameter to the values its unary residual
expression constraints accept (node consistency), then draws the narrowed
parameters from those values and masks every drawn row with the residual
constraints.  Four protection layers:

* **exactness against the scalar oracle** — each narrowed value list is the
  ordered list of values every unary expression constraint's scalar
  ``Constraint.evaluate`` accepts; parameters with nothing to narrow, reals,
  permutations, wide integer ranges, and parameters read only by callables
  or multi-variable constraints are absent (brute force on small spaces,
  plus hypothesis properties over random mixed R/I/O/C/P spaces, one driven
  by the scalar ``sample_reference`` oracle); the lists never drop a value
  of the brute-force support, alone or in a conjunction, and do not depend
  on the order of the constraints;
* **semantic equivalence** — the sampler produces only feasible rows
  (each decodes to a configuration ``is_feasible`` accepts and encodes back
  to itself; the residual mask stays the final filter), reaches exactly the
  brute-force support of each single constraint, unary or not, and keeps
  unconstrained dimensions untouched; a draw from a parameter's full ``values_list()`` is
  the unrestricted draw (same values, dtype and generator state), so
  parameters the filter leaves alone keep their plain streams;
* **diagnostics** — a parameter with no surviving value raises at once, and
  an exhausted rejection budget names the constraints that starved it (also
  when only their conjunction is unsatisfiable);
* **the hard-constraint workload suite** — densities behave as labelled
  under plain rejection (unconstrained draws, each decoded and checked by
  ``is_feasible``), the sampler draws the 1e-6 instance, and at 1e-2
  it accepts at least 5x as many of its draws as plain rejection does.
"""

from __future__ import annotations

import itertools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import settings as hyp_settings
from hypothesis import strategies as st

from repro.space.constraints import Constraint
from repro.space.parameters import (
    CategoricalParameter,
    IntegerParameter,
    OrdinalParameter,
    PermutationParameter,
    RealParameter,
)
from repro.space.space import SearchSpace

from oracles import feasible_rows, neighbours, sample_reference

#: the parameter types the filter narrows (integers up to 4096 values)
_NARROWABLE = (IntegerParameter, OrdinalParameter, CategoricalParameter)


# ---------------------------------------------------------------------------
# the unary filter vs. brute force
# ---------------------------------------------------------------------------

def _brute_force_support(domains: dict, constraints) -> dict:
    """Per-parameter value sets that appear in >= 1 satisfying assignment."""
    names = list(domains)
    support: dict = {name: set() for name in names}
    for combo in itertools.product(*(domains[name] for name in names)):
        config = dict(zip(names, combo))
        if all(c.evaluate(config) for c in constraints):
            for name, value in config.items():
                support[name].add(value)
    return support


_DOMAINS = {"a": list(range(8)), "b": list(range(8)), "c": [1, 2, 4, 8]}

#: single constraints over ``_DOMAINS``: three unary, six multi-variable
_SINGLE_CONSTRAINTS = [
    "a < b",
    "a % 2 == 0",
    "a + b <= 4",
    "a * c <= 8",
    "a == b",
    "c in (2, 8)",
    "a <= 2 or b >= 6",
    "a % 2 == 0 and b > a",
    "2 <= a <= 5",
]


def _small_space(constraints) -> SearchSpace:
    return SearchSpace(
        [
            IntegerParameter("a", 0, 7),
            IntegerParameter("b", 0, 7),
            OrdinalParameter("c", _DOMAINS["c"]),
        ],
        constraints,
        build_chain_of_trees=False,
    )


@pytest.mark.parametrize("expression", ["a % 2 == 0", "c in (2, 8)", "2 <= a <= 5"])
def test_unary_filter_is_exact(expression):
    """The filter keeps exactly a unary constraint's support, in order, and
    leaves the parameters it does not read un-narrowed."""
    constraints = [Constraint(expression)]
    space = _small_space(constraints)
    support = _brute_force_support(_DOMAINS, constraints)
    narrowed = space._narrowed_values()
    for name, values in _DOMAINS.items():
        kept = [v for v in values if v in support[name]]
        if kept == values:
            assert name not in narrowed, name
        else:
            assert narrowed[name] == kept, name


@pytest.mark.parametrize("expression", _SINGLE_CONSTRAINTS)
def test_sampler_reaches_exact_support(expression):
    """Narrowing never drops a supported value and the residual mask drops
    the rest: the drawn rows cover exactly the brute-force support."""
    constraints = [Constraint(expression)]
    space = _small_space(constraints)
    support = _brute_force_support(_DOMAINS, constraints)
    for name, values in space._narrowed_values().items():
        assert support[name] <= set(values), name
    rows = space.sample_rows(np.random.default_rng(11), 2000)
    columns = space.encoder.value_columns(rows)
    for name in _DOMAINS:
        assert set(columns[name].tolist()) == support[name], name


def test_conjunction_narrowing_is_sound():
    """Only the unary conjunct narrows, and it may keep values no joint
    assignment uses (``b == 0`` needs ``a < 0``) but never drops one."""
    constraints = [
        Constraint("a < b"),
        Constraint("a + b <= 9"),
        Constraint("a * c <= 16"),
        Constraint("b % 2 == 0"),
    ]
    space = _small_space(constraints)
    support = _brute_force_support(_DOMAINS, constraints)
    narrowed = space._narrowed_values()
    assert narrowed == {"b": [0, 2, 4, 6]}
    assert support["b"] == {2, 4, 6}
    rows = space.sample_rows(np.random.default_rng(12), 256)
    assert feasible_rows(space, rows).all()


def test_jointly_unsatisfiable_constraints_are_left_to_the_mask():
    """Each constraint alone is satisfiable, so nothing narrows or raises up
    front; the rejection budget runs out and names both constraints."""
    space = _small_space([Constraint("a < b"), Constraint("b < a")])
    assert space._narrowed_values() == {}
    with pytest.raises(RuntimeError, match="rejection sampling failed") as info:
        space.sample_rows(np.random.default_rng(0), 2, max_rejection_rounds=50)
    assert "'a < b'" in str(info.value) and "'b < a'" in str(info.value)


def test_reals_wide_integers_and_callables_are_not_narrowed():
    space = SearchSpace(
        [
            RealParameter("eps", 0.01, 1.0),
            IntegerParameter("wide", 0, 10_000),  # more than 4096 values
            OrdinalParameter("o", list(range(10))),
            PermutationParameter("perm", 3),
        ],
        [
            Constraint("eps >= 0.05"),
            Constraint("wide % 2 == 0"),
            Constraint.from_callable(lambda cfg: cfg["o"] > 4, variables=["o"]),
            Constraint("perm[0] != 1"),
        ],
        build_chain_of_trees=False,
    )
    assert space._narrowed_values() == {}
    rows = space.sample_rows(np.random.default_rng(5), 64)
    assert feasible_rows(space, rows).all()


# ---------------------------------------------------------------------------
# hypothesis property suite
# ---------------------------------------------------------------------------

_TEMPLATES = (
    "a < b",
    "a >= b",
    "a + b <= {n}",
    "a % 2 == 0",
    "b % 3 == 1",
    "a != b",
    "a in (0, 2, 4, 6)",
    "a <= b or b >= {n}",
    "1 <= a <= {n}",
    "eps >= 0.05 or a <= {n}",
    "eps >= 0.05",
    "mode != 'u'",
    "perm[0] != 1",
)


@st.composite
def constrained_spaces(draw):
    """Random mixed R/I/O/C/P spaces with 1-3 residual template constraints."""
    a_vals = draw(st.lists(st.integers(0, 9), min_size=3, max_size=6, unique=True))
    parameters = [
        OrdinalParameter("a", sorted(a_vals)),
        IntegerParameter("b", 0, draw(st.integers(3, 9))),
        RealParameter("eps", 0.01, 1.0, transform=draw(st.sampled_from(["linear", "log"]))),
        CategoricalParameter("mode", ["u", "v", "w"][: draw(st.integers(2, 3))]),
        PermutationParameter("perm", draw(st.integers(2, 3))),
    ]
    chosen = draw(
        st.lists(st.sampled_from(_TEMPLATES), min_size=1, max_size=3, unique=True)
    )
    constraints = [
        Constraint(template.format(n=draw(st.integers(2, 8)))) for template in chosen
    ]
    # residual-only on purpose: the narrowing of free parameters is the code
    # under test
    return SearchSpace(parameters, constraints, build_chain_of_trees=False)


@given(constrained_spaces())
@hyp_settings(max_examples=40, deadline=None)
def test_narrowed_values_are_the_unary_scalar_support(space):
    """Each narrowed list is, in order, the values every unary expression
    constraint's scalar oracle accepts; un-narrowed parameters are absent."""
    expected = {}
    empty = []
    for param in space.parameters:
        if not isinstance(param, _NARROWABLE):
            continue
        unary = [c for c in space.constraints if c.variables == {param.name}]
        values = param.values_list()
        kept = [v for v in values if all(c.evaluate({param.name: v}) for c in unary)]
        if not kept:
            empty.append(param.name)
        elif kept != values:
            expected[param.name] = kept
    if empty:
        with pytest.raises(RuntimeError, match="no feasible configuration"):
            space._narrowed_values()
    else:
        assert space._narrowed_values() == expected


@given(constrained_spaces(), st.randoms(use_true_random=False))
@hyp_settings(max_examples=30, deadline=None)
def test_narrowing_is_order_independent(space, shuffler):
    """Reordering the constraints narrows the same values, in the same order."""
    shuffled = list(space.constraints)
    shuffler.shuffle(shuffled)
    twin = SearchSpace(space.parameters, shuffled, build_chain_of_trees=False)
    try:
        reference = space._narrowed_values()
    except RuntimeError:
        with pytest.raises(RuntimeError, match="no feasible configuration"):
            twin._narrowed_values()
        return
    assert twin._narrowed_values() == reference


@given(constrained_spaces(), st.integers(0, 2**31 - 1))
@hyp_settings(max_examples=30, deadline=None)
def test_no_feasible_configuration_is_ever_pruned(space, seed):
    """Every config the scalar oracle accepts uses only narrowed values."""
    rng = np.random.default_rng(seed)
    try:
        configs = sample_reference(space, rng, 5, max_rejection_rounds=400)
    except RuntimeError:
        assume(False)  # feasible region too sparse to exercise the oracle
    narrowed = space._narrowed_values()
    for config in configs:
        assert space.is_feasible(config)
        for name, values in narrowed.items():
            assert config[name] in values, (name, config[name], values)


@given(constrained_spaces(), st.integers(0, 2**31 - 1))
@hyp_settings(max_examples=20, deadline=None)
def test_propagated_rows_are_feasible_and_default_stream_unchanged(space, seed):
    try:
        rows = space.sample_rows(np.random.default_rng(seed), 16)
    except RuntimeError:
        assume(False)
    assert len(rows) == 16
    assert feasible_rows(space, rows).all()
    # handing every narrowable parameter its value list, narrowed or full,
    # draws the same rows: un-narrowed parameters keep their streams
    full = {
        p.name: p.values_list() for p in space.parameters if isinstance(p, _NARROWABLE)
    }
    full.update(space._narrowed_values())
    twin = SearchSpace(space.parameters, space.constraints, build_chain_of_trees=False)
    with mock.patch.object(twin, "_narrowed_values", return_value=full):
        replay = twin.sample_rows(np.random.default_rng(seed), 16)
    np.testing.assert_array_equal(rows, replay)


_FULL_DOMAIN_PARAMETERS = [
    IntegerParameter("i", -3, 40),
    IntegerParameter("i_wide", 0, 10_000),  # wider than the narrowing cap
    OrdinalParameter("o", [1, 2, 4, 8, 16, 32]),
    CategoricalParameter("c", ["u", "v", "w"]),
]


@pytest.mark.parametrize("param", _FULL_DOMAIN_PARAMETERS, ids=lambda p: p.name)
@given(st.integers(0, 2**32 - 1), st.integers(0, 64))
@hyp_settings(max_examples=25, deadline=None)
def test_full_domain_draw_is_the_unrestricted_draw(param, seed, n):
    """Why passing only the narrowed lists draws what passing every full
    list would: a parameter's own ``values_list()`` changes nothing."""
    plain_rng, full_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    plain = param.sample_batch(plain_rng, n)
    full = param.sample_batch(full_rng, n, param.values_list())
    assert full.dtype == plain.dtype
    np.testing.assert_array_equal(full, plain)
    assert full_rng.bit_generator.state == plain_rng.bit_generator.state


# ---------------------------------------------------------------------------
# the narrowing sampler
# ---------------------------------------------------------------------------

def _divisible_space() -> SearchSpace:
    return SearchSpace(
        [
            OrdinalParameter("a", list(range(30))),
            OrdinalParameter("b", list(range(10))),
            RealParameter("eps", 0.01, 1.0, transform="log"),
            CategoricalParameter("mode", ["u", "v"]),
            PermutationParameter("perm", 3),
        ],
        [Constraint("a % 3 == 0"), Constraint("eps >= 0.05")],
        build_chain_of_trees=False,
    )


class TestPropagatedSampling:
    def test_propagation_reaches_exact_support_and_uniformity(self):
        space = _divisible_space()
        rows = space.sample_rows(np.random.default_rng(0), 5000)
        configs = [space.encoder.decode(row) for row in rows]
        observed = np.array([c["a"] for c in configs])
        expected_support = set(range(0, 30, 3))
        counts = {v: int((observed == v).sum()) for v in expected_support}
        assert set(observed.tolist()) == expected_support
        # uniform over the support: each value within +-40% of expectation
        for value, count in counts.items():
            assert 0.6 * 500 < count < 1.4 * 500, (value, count)
        # untouched dimensions keep their full support
        assert {c["mode"] for c in configs} == {"u", "v"}
        assert min(c["eps"] for c in configs) >= 0.05
        assert len({tuple(c["perm"]) for c in configs}) == 6

    def test_propagation_stats_recorded(self):
        space = _divisible_space()
        space.sample_rows(np.random.default_rng(1), 64)
        stats = space.last_sample_stats
        assert "propagate" not in stats  # there is no other mode to record
        assert stats["accepted"] == 64
        divisible, bounded = stats["constraints"]
        assert [divisible["name"], bounded["name"]] == ["a % 3 == 0", "eps >= 0.05"]
        # `a` draws only multiples of 3; the real bound is left to the mask
        assert divisible["passed"] == stats["drawn"]
        assert stats["acceptance_rate"] == bounded["rate"]

    def test_provably_infeasible_space_raises_immediately(self):
        space = SearchSpace(
            [OrdinalParameter("a", [1, 2, 3])],
            [Constraint("a > 5")],
            build_chain_of_trees=False,
        )
        with pytest.raises(RuntimeError, match="parameter 'a'.*no feasible configuration"):
            space.sample_rows(np.random.default_rng(0), 4)

    def test_residual_mask_enforces_real_bound(self):
        space = SearchSpace(
            [RealParameter("eps", 0.01, 1.0, transform="log")],
            [Constraint("eps >= 0.2")],
            build_chain_of_trees=False,
        )
        rows = space.sample_rows(np.random.default_rng(3), 512)
        values = space.encoder.value_columns(rows)["eps"]
        assert float(values.min()) >= 0.2
        assert float(values.max()) <= 1.0

    def test_neighbour_rows_agree_with_unpruned_path(self):
        """No candidate pre-filter: the residual mask alone keeps the row
        path's neighbours equal to the dict path's feasible ones."""
        space = _divisible_space()
        rows = space.sample_rows(np.random.default_rng(4), 8)
        batch, owners = space.neighbour_rows_batch(rows)
        assert feasible_rows(space, batch).all()
        for i, row in enumerate(rows):
            expected = neighbours(space, space.encoder.decode(row))
            assert int((owners == i).sum()) == len(expected)


def _unprunable_space() -> SearchSpace:
    """A sparse space the sampler cannot narrow: its constraint is a callable."""
    return SearchSpace(
        [OrdinalParameter("a", list(range(1000)))],
        [
            Constraint.from_callable(
                lambda cfg: cfg["a"] % 500 == 0, name="a is a multiple of 500",
                variables=["a"],
            )
        ],
        build_chain_of_trees=False,
    )


class TestRejectionDiagnostics:
    def test_failure_message_carries_acceptance_and_hint(self):
        """The per-constraint pass rates are the hint: they name the
        constraint that starves the sampler."""
        space = _unprunable_space()
        with pytest.raises(RuntimeError) as excinfo:
            space.sample_rows(np.random.default_rng(0), 64, max_rejection_rounds=2)
        message = str(excinfo.value)
        # the historical first line survives for callers matching on it
        assert message.startswith(
            "rejection sampling failed to find feasible configurations"
        )
        assert "acceptance rate" in message
        assert "residual constraint 'a is a multiple of 500'" in message
        assert "propagat" not in message  # there is no mode left to suggest

    def test_failure_reports_its_own_call_under_a_concurrent_overwrite(self):
        """Registry spaces are shared across sessions and threads: another
        call's stats landing in ``last_sample_stats`` between this call's
        store and its error must not leak into this call's message."""
        space = _unprunable_space()
        record = space._record_sample_stats

        def record_then_race(*args):
            stats = record(*args)
            space.last_sample_stats = {
                **space.last_sample_stats, "requested": 7, "accepted": 7, "drawn": 7,
            }
            return stats

        with mock.patch.object(space, "_record_sample_stats", record_then_race):
            with pytest.raises(RuntimeError) as excinfo:
                space.sample_rows(np.random.default_rng(0), 64, max_rejection_rounds=2)
        assert "requested 64 samples" in str(excinfo.value)
        assert "of 128 draws" in str(excinfo.value)


# ---------------------------------------------------------------------------
# hard-constraint workload suite
# ---------------------------------------------------------------------------

def _plain_rejection_rate(space: SearchSpace, seed: int, n: int = 20_000) -> float:
    """Acceptance rate of plain rejection: unconstrained ``sample_batch``
    draws, checked afterwards against the known constraints."""
    rows = SearchSpace(space.parameters).sample_rows(np.random.default_rng(seed), n)
    return float(feasible_rows(space, rows).mean())


class TestHardConstraintSuite:
    def test_registry_and_names(self):
        from repro.workloads import (
            HARD_CONSTRAINT_DENSITIES,
            benchmark_names,
            get_benchmark,
            hard_constraint_benchmark_names,
        )

        names = hard_constraint_benchmark_names()
        assert names == [
            "hard_constraint_1e-2",
            "hard_constraint_1e-4",
            "hard_constraint_1e-6",
        ]
        # a scenario axis of its own, not one of the paper's 25 instances
        assert not set(names) & set(benchmark_names())
        assert HARD_CONSTRAINT_DENSITIES == {"1e-2": 2, "1e-4": 4, "1e-6": 6}
        for name in names:
            bench = get_benchmark(name)
            assert bench.name == name
            assert bench.space.chain_of_trees is None
            result = bench.evaluator(bench.default_configuration)
            assert result.feasible and result.value > 0
        with pytest.raises(KeyError):
            get_benchmark("hard_constraint_1e-9")

    def test_density_scales_with_k(self):
        """Empirical acceptance of the 1e-2 instance sits near its label."""
        from repro.workloads import get_benchmark

        space = get_benchmark("hard_constraint_1e-2").space
        empirical = _plain_rejection_rate(space, 7)
        assert 0.002 < empirical < 0.05  # ~1e-2 up to sampling noise

    def test_sparsest_instance_needs_propagation(self):
        from repro.workloads import get_benchmark

        space = get_benchmark("hard_constraint_1e-6").space
        assert _plain_rejection_rate(space, 0) < 1e-3
        rows = space.sample_rows(np.random.default_rng(0), 32)
        assert len(rows) == 32
        assert feasible_rows(space, rows).all()

    def test_propagation_accepts_far_more_draws_than_rejection(self):
        """A count, not a timing: on the 1e-2 instance the sampler's
        acceptance rate is at least 5x plain rejection's."""
        from repro.workloads import get_benchmark

        space = get_benchmark("hard_constraint_1e-2").space
        rejection = _plain_rejection_rate(space, 0)
        space.sample_rows(np.random.default_rng(0), 32)
        assert space.last_sample_stats["acceptance_rate"] >= 5 * rejection

    def test_objective_is_deterministic_and_picklable(self):
        import pickle

        from repro.workloads import get_benchmark

        bench = get_benchmark("hard_constraint_1e-4")
        clone = pickle.loads(pickle.dumps(bench.evaluator))
        config = bench.default_configuration
        assert clone(config).value == bench.evaluator(config).value


# ---------------------------------------------------------------------------
# tuner plumbing: the removed knob and its old inputs
# ---------------------------------------------------------------------------

def _trace(history) -> dict:
    payload = history.to_dict()
    payload.pop("tuner_seconds", None)
    payload.pop("evaluation_seconds", None)
    return payload


class TestTunerPlumbing:
    def test_removed_knobs_raise_type_error(self):
        from repro.core.baco import BacoSettings

        with pytest.raises(TypeError):
            BacoSettings(constraint_propagation=True)
        with pytest.raises(TypeError):
            SearchSpace([OrdinalParameter("a", [1, 2])], propagate=True)

    def test_removed_cli_flag_exits_2(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["tune", "--benchmark", "hpvm_bfs", "--propagate"])
        assert excinfo.value.code == 2

    def test_old_propagate_checkpoint_resumes_bit_identically(self):
        """A checkpoint written with the old ``--propagate`` flag carries
        ``meta.propagate: true``.  Restore no longer reads the key, and the
        run finishes exactly like an uninterrupted one: that flag asked for
        what is now the only sampler."""
        from repro.core.session import drive
        from repro.experiments.runner import make_session, restore_session

        straight, bench = make_session("hard_constraint_1e-4", "BaCO", 10, 1)
        expected = _trace(drive(straight, bench.evaluator))

        session, _ = make_session("hard_constraint_1e-4", "BaCO", 10, 1)
        while len(session.history) < 7:
            [suggestion] = session.ask(1)
            session.tell(suggestion, bench.evaluator(suggestion.configuration))
        payload = json.loads(json.dumps(session.snapshot()))
        payload["meta"]["propagate"] = True
        resumed, _ = restore_session(payload)
        assert _trace(drive(resumed, bench.evaluator)) == expected

    def test_default_sessions_record_no_propagate_key(self):
        from repro.experiments.runner import make_session

        session, _bench = make_session("hard_constraint_1e-2", "Uniform Sampling", 2, 1)
        assert "propagate" not in session.meta

    @pytest.mark.parametrize("propagate", [True, False, "yes"])
    def test_service_start_ignores_a_propagate_field(self, propagate):
        """Like any field ``start`` does not read; ``false`` once asked for a
        stream that could not draw a DoE on ``hard_constraint_1e-4``."""
        from repro.service import SessionRegistry

        service = SessionRegistry(max_sessions=1)
        started = service.handle({
            "op": "start", "benchmark": "hard_constraint_1e-4",
            "tuner": "Uniform Sampling", "budget": 4, "seed": 3,
            "propagate": propagate,
        })
        assert started["ok"], started
        asked = service.handle({"op": "ask", "n": 4})
        assert asked["ok"] and len(asked["suggestions"]) == 4

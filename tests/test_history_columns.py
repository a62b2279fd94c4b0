"""The history column pass against the per-value walk it stands in front of.

A restore and the cache loader check a history's evaluations one column at
a time (``repro.core.session.HistoryColumns``) and hand the rows that pass
to the tuner as the history's encoded rows; only a history the pass
rejects is walked value by value, so the error still names the first bad
field.  This is a trust boundary, so:

* a hypothesis property over the 31 registry spaces and random R/I/O/C/P
  spaces (``riocp_spaces()`` with a log integer, a permutation of up to 10
  elements and an ordinal beyond 2**53 added) makes adversarial edits to
  valid histories: the pass accepts exactly the histories the walk and
  ``check_evaluations`` accept, with the bytes of ``encode_batch``, and a
  restore (``restore_session`` on registry spaces) and the cache loader
  either give the session and history the walk gives or raise its message;
* each adversarial value by name (a ``bool`` or integral float for an
  integer, NaN and ±inf, ``10**400``, a string for an ordinal, ints past
  ordinal values beyond 2**53, unhashable categories, bad permutations,
  wrong key sets, indices out of place, non-finite feasible values) on one
  fixed space, with the outcome the walk gives;
* on every registry space a restored BaCO tuner's space rows, GP distance
  tensor, evaluated keys and generator state have the bytes of the
  per-value path, which encoded the history with ``encode_batch``, once per
  encoder, and froze each configuration;
* a restored pending suggestion's ``encoded_row``, which ``tell`` hands to
  the tuner, must be its configuration's encoding bit for bit.
"""

from __future__ import annotations

import copy
import functools
import json
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core import schema
from repro.core.baco import BacoTuner
from repro.core.result import (
    check_evaluations,
    configuration_from_json,
    configuration_to_json,
    history_declaration,
)
from repro.core.session import HistoryColumns, TuningSession, configuration_declaration
from repro.experiments.runner import _checked_history, make_session, restore_session
from repro.models.distances import IncrementalDistanceTensor
from repro.space import (
    CategoricalParameter,
    IntegerParameter,
    OrdinalParameter,
    PermutationParameter,
    RealParameter,
    SearchSpace,
)
from repro.workloads.registry import get_benchmark

from test_neighbour_tables import REGISTRY
from test_vectorized_space import riocp_spaces

#: evaluations per history at most, and the budget of every snapshot
MAX_EVALUATIONS = 8
BUDGET = MAX_EVALUATIONS + 4


def _rejects(self, evaluations):
    """``HistoryColumns.accepts`` of the per-value path: every history is walked."""
    return False


@st.composite
def history_spaces(draw):
    """A ``riocp_spaces()`` space with a log integer, an integer ending at
    2**53, a permutation of 4–10 elements (past the 8 that a value table
    enumerates) and an ordinal whose values lie beyond 2**53, where an int
    rounds to a value's float."""
    space = draw(riocp_spaces())
    transform = st.sampled_from(["linear", "log"])
    extra = [
        IntegerParameter("li", 1, draw(st.integers(2, 10**6)), transform="log"),
        IntegerParameter("bi", 2**53 - 3, 2**53),
        PermutationParameter("lp", draw(st.integers(4, 10))),
        OrdinalParameter("big", [1, 2**53, 2**60], transform=draw(transform)),
    ]
    return SearchSpace([*space.parameters, *extra], space.constraints)


@functools.lru_cache(maxsize=None)
def _registry_pool(name: str) -> tuple:
    """Sampled configurations of a registry space, as JSON."""
    space = get_benchmark(name).space
    configurations = space.sample(np.random.default_rng(0), 2 * MAX_EVALUATIONS)
    return tuple(json.dumps(configuration_to_json(c)) for c in configurations)


@functools.lru_cache(maxsize=None)
def _registry_snapshot(name: str) -> str:
    """A fresh paper-fidelity BaCO session of a registry benchmark, as JSON."""
    session, _ = make_session(name, "BaCO", BUDGET, 3, fidelity="paper")
    return json.dumps(session.snapshot())


def _history(draw, configurations: list) -> list:
    """Valid evaluations of ``configurations``, some infeasible."""
    evaluations = []
    for i, configuration in enumerate(configurations):
        feasible = draw(st.booleans())
        value = draw(st.floats(0.01, 100.0)) if feasible else draw(
            st.sampled_from([float("inf"), float("nan"), 1.5, 7])
        )
        evaluations.append({
            "index": i,
            "configuration": configuration,
            "value": value,
            "feasible": feasible,
            "phase": draw(st.sampled_from(["initial", "learning"])),
        })
    return evaluations


#: values that replace a configuration value: a ``bool`` and non-finite,
#: huge, string, unhashable and structured values
JUNK = [True, False, float("nan"), float("inf"), -float("inf"), 10**400, 2**53 + 1,
        2**53 + 2, 2**60 + 1, 2**64, -1, 0, -0.0, 0.5, "x", "4", None, ["x"], {"a": 1}, []]


def _edit(draw, space: SearchSpace, evaluations: list) -> None:
    """One adversarial edit of ``evaluations``, in place."""
    i = draw(st.integers(0, len(evaluations) - 1))
    entry = evaluations[i]
    if not isinstance(entry, dict):  # an earlier edit replaced it
        return
    configuration = entry.get("configuration")
    if not isinstance(configuration, dict):
        configuration = {}
    name = draw(st.sampled_from(space.parameter_names))
    value = configuration.get(name)
    kind = draw(st.sampled_from([
        "junk value", "integral float", "string", "past a value", "permutation",
        "drop key", "extra key", "index", "non-finite feasible", "field", "entry",
    ]))
    if kind == "junk value":
        configuration[name] = draw(st.sampled_from(JUNK))
    elif kind == "integral float" and isinstance(value, (int, float)):
        configuration[name] = float(value)
    elif kind == "string":
        configuration[name] = str(value)
    elif kind == "past a value" and isinstance(value, (int, float)):
        configuration[name] = int(value) + draw(st.sampled_from([1, 2, -1]))
    elif kind == "permutation" and isinstance(value, list):
        edited = list(value)
        choice = draw(st.sampled_from(["repeat", "float", "missing", "bool", "huge", "extra"]))
        if choice == "repeat":
            edited[-1] = edited[0]
        elif choice == "float":
            edited[0] = float(edited[0])
        elif choice == "missing":
            edited.pop()
        elif choice == "bool":
            edited[edited.index(1) if 1 in edited else 0] = True
        elif choice == "huge":
            edited[0] = 10**400
        else:
            edited.append(len(edited))
        configuration[name] = edited
    elif kind == "drop key":
        configuration.pop(name, None)
    elif kind == "extra key":
        configuration["zz"] = 1
    elif kind == "index":
        entry["index"] = draw(st.sampled_from([i + 1, i - 1, True, float(i), str(i), None]))
    elif kind == "non-finite feasible":
        entry["feasible"] = True
        entry["value"] = draw(st.sampled_from([float("inf"), -float("inf"), float("nan")]))
    elif kind == "field":
        field = draw(st.sampled_from(["index", "configuration", "value", "feasible", "phase"]))
        if draw(st.booleans()):
            entry.pop(field, None)
        else:
            entry[field] = draw(st.sampled_from([*JUNK, "initial", 1, 1.0]))
    elif kind == "entry":
        if draw(st.booleans()):
            entry["extra"] = 1
        else:
            evaluations[i] = draw(st.sampled_from([None, 3, [], "x"]))


def _walk_accepts(space: SearchSpace, evaluations: list) -> bool:
    """The per-value walk and ``check_evaluations`` on ``evaluations``."""
    columns = HistoryColumns(space).accepts
    item = history_declaration(configuration_declaration(space), columns)["evaluations"].item
    try:  # the walk of the array, without its column function
        schema.check(evaluations, [item])
        check_evaluations({"evaluations": evaluations}, "")
    except ValueError:
        return False
    return True


def _outcome(action):
    """``action()``'s result, or the message of the ``ValueError`` it raised."""
    try:
        return action(), None
    except ValueError as exc:
        return None, str(exc)


def _tuner_state(session: TuningSession):
    tuner = session.tuner
    cache = tuner._gp_distance_cache
    return (
        np.vstack(tuner._space_rows).tobytes(),
        cache.rows.tobytes(),
        cache.tensor.tobytes(),
        tuner._evaluated_keys,
        tuner._rng.bit_generator.state,
        json.dumps(session.snapshot(), sort_keys=True),
    )


def _assert_as_walked(space, evaluations, payload, restore, name) -> bool:
    """The column pass on ``evaluations`` against the walk, then a restore of
    ``payload`` holding them and a load of them as a cache file, each with
    the pass and with every history walked; returns whether it accepted."""
    columns = HistoryColumns(space)
    accepted = columns.accepts(copy.deepcopy(evaluations))
    assert accepted == _walk_accepts(space, evaluations)
    if accepted:
        want = space.encoder.encode_batch(
            [configuration_from_json(e["configuration"]) for e in evaluations]
        )
        assert columns.rows.dtype == want.dtype and columns.rows.tobytes() == want.tobytes()
    else:
        assert columns.rows is None

    payload["history"]["evaluations"] = evaluations
    cache_file = {"tuner": "BaCO", "benchmark": name, "seed": 3, "evaluations": evaluations}
    cell = SimpleNamespace(space=space, name=name)

    def load(document):
        history = _checked_history(document, cell, "BaCO", len(evaluations), 3)
        return json.dumps(history.to_dict(), sort_keys=True)

    for action, document in ((restore, payload), (load, cache_file)):
        got, error = _outcome(lambda: action(copy.deepcopy(document)))
        with mock.patch.object(HistoryColumns, "accepts", _rejects):
            want, walk_error = _outcome(lambda: action(copy.deepcopy(document)))
        assert error == walk_error
        assert (error is None) == accepted
        if action is restore and accepted:
            assert _tuner_state(got) == _tuner_state(want)
        else:
            assert got == want
    return accepted


@given(data=st.data(), on_registry=st.booleans())
@settings(deadline=None)
def test_column_pass_accepts_what_the_walk_accepts(data, on_registry):
    """Adversarial histories: the same acceptance, rows, sessions and errors
    as the walk, through the column pass and through the per-value path."""
    draw = data.draw
    if on_registry:
        name = draw(st.sampled_from(REGISTRY))
        space = get_benchmark(name).space
        pool = _registry_pool(name)
        chosen = draw(st.lists(st.sampled_from(pool), max_size=MAX_EVALUATIONS))
        configurations = [json.loads(text) for text in chosen]
        payload = json.loads(_registry_snapshot(name))

        def restore(snapshot):
            return restore_session(snapshot)[0]
    else:
        space = draw(history_spaces())
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        n = draw(st.integers(0, MAX_EVALUATIONS))
        configurations = [configuration_to_json(c) for c in space.sample(rng, n)]
        name = "adhoc"
        payload = BacoTuner(space, seed=3).start_session(BUDGET, name).snapshot()

        def restore(snapshot):
            return TuningSession.restore(snapshot, BacoTuner(space, seed=3))

    evaluations = _history(draw, configurations)
    if evaluations:
        for _ in range(draw(st.integers(0, 2))):
            _edit(draw, space, evaluations)
    accepted = _assert_as_walked(space, evaluations, payload, restore, name)
    where = "registry" if on_registry else "riocp"
    event(f"{where} history {'accepted' if accepted else 'rejected'}")


def _fixed_space() -> SearchSpace:
    return SearchSpace([
        IntegerParameter("i", 1, 10),
        IntegerParameter("li", 1, 1000, transform="log"),
        IntegerParameter("bi", 2**53 - 3, 2**53),
        RealParameter("r", 0.5, 4.0, transform="log"),
        OrdinalParameter("o", [1, 2, 4], transform="log"),
        OrdinalParameter("big", [0, 2**53, 2**60]),
        CategoricalParameter("c", ["x", "y", 1]),
        # a category no JSON number holds; histories keep "x" until edited
        CategoricalParameter("cb", ["x", 10**400]),
        PermutationParameter("p", 3),
        PermutationParameter("lp", 10),
    ])


def _set(name, value, at=1):
    """An edit setting parameter ``name`` of evaluation ``at`` to ``value``."""
    return lambda evaluations: evaluations[at]["configuration"].__setitem__(name, value)


def _field(field, value, at=1):
    return lambda evaluations: evaluations[at].__setitem__(field, value)


def _infeasible(value):
    def edit(evaluations):
        evaluations[0].update(feasible=False, value=value)
    return edit


#: (edit, whether the walk accepts the edited history)
EDITS = {
    "bool for an integer": (_set("i", True), False),
    "integral float for an integer": (_set("i", 3.0), True),
    "fraction for an integer": (_set("i", 3.5), False),
    "nan for an integer": (_set("i", float("nan")), False),
    "inf for an integer": (_set("i", float("inf")), False),
    "-inf for a log integer": (_set("li", -float("inf")), False),
    "int past an integer's top beyond 2**53": (_set("bi", 2**53 + 1), False),
    "integral float for an integer beyond 2**53": (_set("bi", float(2**53)), True),
    "nan for a real": (_set("r", float("nan")), False),
    "inf for a real": (_set("r", float("inf")), False),
    "int for a real": (_set("r", 2), True),
    "10**400 for an integer": (_set("i", 10**400), False),
    "10**400 for a real": (_set("r", 10**400), False),
    "10**400 for an ordinal": (_set("o", 10**400), False),
    "10**400 for a categorical": (_set("c", 10**400), False),
    "string for an ordinal": (_set("o", "2"), False),
    "integral float for an ordinal": (_set("o", 2.0), True),
    "int just past 2**53, which rounds to it": (_set("big", 2**53 + 1), True),
    "int two past 2**53": (_set("big", 2**53 + 2), False),
    "int just past 2**60, which rounds to it": (_set("big", 2**60 + 1), True),
    "-0.0 for an ordinal's 0, encoded as -0.0": (_set("big", -0.0), True),
    "-0.0 for a categorical's 0th value's code": (_set("c", -0.0), False),
    "-0.0 for an integer": (_set("i", -0.0), False),
    "float for a numeric category": (_set("c", 1.0), True),
    "bool for a categorical equal to a category": (_set("c", True), False),
    "category beyond a float's range": (_set("cb", 10**400), False),
    "unhashable list for a categorical": (_set("c", ["x"]), False),
    "unhashable object for a categorical": (_set("c", {"a": 1}), False),
    "repeated permutation element": (_set("p", [0, 0, 2]), False),
    "float permutation element": (_set("p", [0, 1.0, 2]), False),
    "bool permutation element": (_set("p", [0, True, 2]), False),
    "missing permutation element": (_set("p", [0, 1]), False),
    "huge long-permutation element": (_set("lp", [10**400, *range(1, 10)]), False),
    "tuple-free long permutation": (_set("lp", list(range(9, -1, -1))), True),
    "missing parameter": (lambda e: e[1]["configuration"].pop("o"), False),
    "extra parameter": (_set("zz", 1), False),
    "missing evaluation field": (lambda e: e[1].pop("phase"), False),
    "extra evaluation field": (_field("extra", 1), False),
    "index out of place": (_field("index", 2), False),
    "bool index": (_field("index", True), False),
    "float index": (_field("index", 1.0), False),
    "inf feasible value": (_field("value", float("inf")), False),
    "nan feasible value": (_field("value", float("nan")), False),
    "nan infeasible value": (_infeasible(float("nan")), True),
    "int value": (_field("value", 7), True),
    "10**400 value": (_field("value", 10**400), False),
    "string feasible flag": (_field("feasible", "true"), False),
    "unknown phase": (_field("phase", "warmup"), False),
    "configuration not an object": (_field("configuration", [1, 2]), False),
    "evaluation not an object": (lambda e: e.__setitem__(1, [0]), False),
}


@pytest.mark.parametrize("edit,accepted", list(EDITS.values()), ids=list(EDITS))
def test_each_adversarial_value_is_taken_as_walked(edit, accepted):
    space = _fixed_space()
    configurations = space.sample(np.random.default_rng(1), 3)
    for configuration in configurations:
        configuration["cb"] = "x"
    evaluations = [
        {"index": i, "configuration": configuration_to_json(c), "value": 1.0 + i,
         "feasible": True, "phase": "initial"}
        for i, c in enumerate(configurations)
    ]
    edit(evaluations)
    payload = BacoTuner(space, seed=3).start_session(BUDGET, "adhoc").snapshot()
    payload["tuner_state"]["doe_queue"] = []  # it may hold the huge category

    def restore(snapshot):
        return TuningSession.restore(snapshot, BacoTuner(space, seed=3))

    assert _assert_as_walked(space, evaluations, payload, restore, "adhoc") == accepted


@pytest.mark.parametrize("tuner_name", ["BaCO", "BaCO (no transformations)"])
@pytest.mark.parametrize("name", REGISTRY)
def test_restored_caches_have_the_per_value_bytes(name, tuner_name):
    """A restore's space rows, GP rows and tensor, evaluated keys and
    generator state, against ``encode_batch`` per encoder and ``freeze``."""
    space = get_benchmark(name).space
    rng = np.random.default_rng(11)
    configurations = space.sample(rng, 12)
    feasible = rng.random(12) < 0.7
    session, _ = make_session(name, tuner_name, 16, 5, fidelity="paper")
    payload = json.loads(json.dumps(session.snapshot()))
    payload["history"]["evaluations"] = [
        {"index": i, "configuration": configuration_to_json(c),
         "value": float(i + 1) if ok else float("inf"), "feasible": bool(ok),
         "phase": "initial"}
        for i, (c, ok) in enumerate(zip(configurations, feasible))
    ]
    restored, _ = restore_session(payload)
    tuner = restored.tuner

    rows = space.encoder.encode_batch(configurations)
    assert len(tuner._space_rows) == 1 and tuner._space_rows[0].tobytes() == rows.tobytes()
    reference = IncrementalDistanceTensor(tuner._model_distance)
    reference.append(tuner._model_distance.encoder.encode_batch(
        [c for c, ok in zip(configurations, feasible) if ok]
    ))
    for view in ("rows", "tensor"):
        got, want = getattr(tuner._gp_distance_cache, view), getattr(reference, view)
        assert got.tobytes() == want.tobytes() and got.strides == want.strides
    assert tuner._evaluated_keys == {space.freeze(c) for c in configurations}
    assert tuner._rng.bit_generator.state == payload["rng"]
    assert tuner._model_shares_rows == (tuner_name == "BaCO")


def test_a_pending_row_must_be_its_encoding_bit_for_bit():
    """``tell`` hands a restored suggestion's ``encoded_row`` to the tuner as
    the configuration's row, so -0.0 where the encoding holds 0.0 is
    refused; a JSON integer reads as the float it equals."""
    session, bench = make_session("hpvm_bfs", "BaCO", 10, 3)
    [suggestion] = session.ask(1)
    payload = json.loads(json.dumps(session.snapshot()))
    row = payload["pending"][0]["encoded_row"]
    assert 0.0 in row

    signed = copy.deepcopy(payload)
    signed["pending"][0]["encoded_row"] = [-0.0 if x == 0 else x for x in row]
    refused = r"^'pending\[0\]\.encoded_row' must be the configuration's encoding"
    with pytest.raises(ValueError, match=refused):
        restore_session(signed)

    integral = copy.deepcopy(payload)
    integral["pending"][0]["encoded_row"] = [int(x) if x == int(x) else x for x in row]
    restored, _ = restore_session(integral)
    [reissued] = restored.ask(1)
    result = bench.evaluator(suggestion.configuration)
    session.tell(suggestion, result)
    restored.tell(reissued, result)
    live, resumed = (np.vstack(s.tuner._space_rows) for s in (session, restored))
    assert resumed.tobytes() == live.tobytes()

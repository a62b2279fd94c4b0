"""Hardening tests for the tuning service (repro.service).

Regression tests for the four serve-loop bugs:

* a non-string / unhashable ``op`` (``{"op": ["ask"]}``) used to escape
  ``handle()`` as a TypeError and kill the serve loop,
* ``tell`` used to answer ``best_value: Infinity`` — an invalid JSON token —
  while every result so far was infeasible,
* a non-finite feasible ``value`` (``NaN`` / ``Infinity`` / ``1e999``) was
  only rejected with a generic error deep inside ``ObjectiveResult``,
* ``start`` silently discarded an active session with in-flight
  suggestions.

Plus coverage of every documented error path and a fuzz-style test feeding
500+ adversarial request lines through ``handle_line``, asserting it never
raises and always answers strict JSON.

And one coercion bug: ``tell`` read ``value`` and ``elapsed`` through
``float()``, so ``"value": true`` was recorded as a feasible 1.0, strings
such as ``"2.5"`` and ``"-3"`` were parsed, and ``null`` failed with a raw
``TypeError``.  Both fields now take JSON numbers only (a non-finite value
as the string ``"inf"``, ``"-inf"`` or ``"nan"``), in process and over TCP.

And restore accepts exactly what a snapshot writes: each field of an edited
snapshot of BaCO, OpenTuner or Uniform Sampling either fails naming its
path or restores a session whose own snapshot is the edited text.
"""

from __future__ import annotations

import copy
import functools
import json
import math
import random
import string

import pytest

from repro.client import TuningClient
from repro.server import running_server
from repro.service import (
    MAX_LINE_BYTES,
    SessionRegistry,
    json_safe,
    wire_decode,
    wire_encode,
)

BENCH = "hpvm_bfs"


def start_request(**overrides):
    request = {
        "op": "start",
        "benchmark": BENCH,
        "tuner": "Uniform Sampling",
        "budget": 4,
        "seed": 2,
    }
    request.update(overrides)
    return request


def strict_loads(line: str):
    """json.loads that refuses the non-strict Infinity/NaN tokens."""

    def boom(token):
        raise AssertionError(f"non-strict JSON token {token!r} in response: {line!r}")

    return json.loads(line, parse_constant=boom)


class TestOpValidation:
    """Regression: malformed ``op`` values must not escape handle()."""

    @pytest.mark.parametrize(
        "op", [["ask"], {"ask": 1}, 7, 1.5, None, True, [[["deep"]]]]
    )
    def test_non_string_op_is_an_error_not_a_crash(self, op):
        service = SessionRegistry(max_sessions=1)
        line = service.handle_line(json.dumps({"op": op}))
        response = strict_loads(line)
        assert response["ok"] is False
        assert "'op' must be a string" in response["error"]

    def test_missing_op(self):
        response = SessionRegistry(max_sessions=1).handle({})
        assert response["ok"] is False and "'op'" in response["error"]

    def test_unknown_op_lists_available(self):
        response = SessionRegistry(max_sessions=1).handle({"op": "frobnicate"})
        assert response["ok"] is False
        assert "ask" in response["error"] and "start" in response["error"]

    def test_huge_op_is_truncated_in_the_error(self):
        response = SessionRegistry(max_sessions=1).handle({"op": "x" * 10_000})
        assert response["ok"] is False
        assert len(response["error"]) < 500


class TestBestValueStrictJson:
    """Regression: infeasible-only histories must not emit ``Infinity``."""

    def test_tell_best_value_is_null_until_feasible(self):
        service = SessionRegistry(max_sessions=1)
        assert service.handle(start_request())["ok"]
        service.handle({"op": "ask", "n": 2})

        line = service.handle_line('{"op": "tell", "id": 0, "feasible": false}')
        response = strict_loads(line)
        assert response["ok"] is True
        assert response["best_value"] is None

        line = service.handle_line('{"op": "status"}')
        assert strict_loads(line)["best_value"] is None

        told = service.handle({"op": "tell", "id": 1, "value": 3.25})
        assert told["best_value"] == 3.25

    def test_snapshot_with_infeasible_history_is_strict_json(self):
        service = SessionRegistry(max_sessions=1)
        assert service.handle(start_request())["ok"]
        service.handle({"op": "ask", "n": 1})
        service.handle({"op": "tell", "id": 0, "feasible": False})
        line = service.handle_line('{"op": "snapshot"}')
        payload = strict_loads(line)["snapshot"]
        # the inf value is wire-encoded, and decodes back to the exact float
        decoded = wire_decode(payload)
        assert decoded["history"]["evaluations"][0]["value"] == math.inf

    def test_json_safe_helper(self):
        assert json_safe(math.inf) is None
        assert json_safe(-math.inf) is None
        assert json_safe(math.nan) is None
        assert json_safe(1.5) == 1.5
        assert json_safe("Infinity") == "Infinity"

    def test_wire_roundtrip(self):
        payload = {"a": [1.0, math.inf, -math.inf], "b": {"c": math.nan}}
        encoded = wire_encode(payload)
        line = json.dumps(encoded, allow_nan=False)  # must not raise
        decoded = wire_decode(json.loads(line))
        assert decoded["a"] == [1.0, math.inf, -math.inf]
        assert math.isnan(decoded["b"]["c"])


class TestNonFiniteTellRejected:
    """Regression: ``tell`` must reject non-finite feasible values."""

    def _started(self):
        service = SessionRegistry(max_sessions=1)
        assert service.handle(start_request())["ok"]
        service.handle({"op": "ask", "n": 1})
        return service

    @pytest.mark.parametrize("token", ["Infinity", "-Infinity", "NaN"])
    def test_nonfinite_tokens_rejected_at_parse_time(self, token):
        service = self._started()
        line = service.handle_line('{"op": "tell", "id": 0, "value": %s}' % token)
        response = strict_loads(line)
        assert response["ok"] is False
        assert "non-finite" in response["error"]

    def test_overflowing_literal_rejected_with_clear_error(self):
        # 1e999 overflows to inf without ever producing an Infinity token,
        # so strict parsing alone cannot catch it
        service = self._started()
        response = strict_loads(service.handle_line('{"op": "tell", "id": 0, "value": 1e999}'))
        assert response["ok"] is False
        assert "finite 'value'" in response["error"]
        assert "feasible" in response["error"]

    def test_rejected_tell_does_not_consume_the_suggestion(self):
        service = self._started()
        assert not service.handle({"op": "tell", "id": 0, "value": math.inf})["ok"]
        # the suggestion survives the rejected tell and can still be told
        assert service.handle({"op": "tell", "id": 0, "value": 2.0})["ok"]

    def test_infeasible_tell_may_omit_the_value(self):
        service = self._started()
        response = service.handle({"op": "tell", "id": 0, "feasible": False})
        assert response["ok"] is True

    def test_nonfinite_elapsed_rejected(self):
        service = self._started()
        response = service.handle(
            {"op": "tell", "id": 0, "value": 1.0, "elapsed": 1e999}
        )
        assert not response["ok"] and "elapsed" in response["error"]


#: (field, bad value): not a JSON number (nor a non-finite float's
#: string), a number too large for a float, or a negative ``elapsed``
BAD_TELL_NUMBERS = [
    *[("value", v) for v in (True, False, "2.5", "Infinity", None, [1.0], {"$float": "inf"})],
    ("value", 10**400),
    *[("elapsed", v) for v in (True, "-3", "0.5", None, -3, -0.5, "inf")],
]


class TestTellNumberFields:
    """Regression: ``tell`` takes only JSON numbers for ``value`` and
    ``elapsed``, and each error names its field."""

    @staticmethod
    def _started():
        service = SessionRegistry(max_sessions=1)
        assert service.handle(start_request())["ok"]
        service.handle({"op": "ask", "n": 2})
        return service

    @pytest.mark.parametrize(
        "field, value", BAD_TELL_NUMBERS,
        ids=[f"{field}={value!r}"[:24] for field, value in BAD_TELL_NUMBERS],
    )
    def test_rejected_in_process(self, field, value):
        service = self._started()
        request = {"op": "tell", "id": 0, "value": 2.0, field: value}
        response = strict_loads(service.handle_line(json.dumps(request)))
        assert response["ok"] is False
        assert f"'{field}'" in response["error"], response["error"]
        status = service.handle({"op": "status"})
        assert status["pending_ids"] == [0, 1] and status["evaluations"] == 0

    @pytest.mark.parametrize("value", [True, "2.5", None])
    def test_infeasible_value_is_still_a_number(self, value):
        service = self._started()
        request = {"op": "tell", "id": 0, "feasible": False, "value": value}
        response = service.handle(request)
        assert response["ok"] is False and "'value'" in response["error"]

    def test_non_finite_values_travel_as_strings(self):
        service = self._started()
        request = {"op": "tell", "id": 0, "feasible": False, "value": "-inf"}
        assert service.handle(request)["ok"]
        response = service.handle({"op": "tell", "id": 1, "value": "inf"})
        assert response["ok"] is False and "finite 'value'" in response["error"]
        payload = wire_decode(service.handle({"op": "snapshot"})["snapshot"])
        assert payload["history"]["evaluations"][0]["value"] == -math.inf

    def test_json_integers_are_numbers(self):
        service = self._started()
        told = service.handle({"op": "tell", "id": 0, "value": 3, "elapsed": 0})
        assert told["ok"] is True and told["best_value"] == 3.0
        assert service.handle({"op": "tell", "id": 1, "value": 2.5, "elapsed": 2})["ok"]

    def test_rejected_over_tcp(self):
        registry = SessionRegistry(max_sessions=2)
        with running_server(registry) as server:
            with TuningClient(port=server.port) as client:
                client.start(benchmark=BENCH, budget=4, tuner="Uniform Sampling", seed=2)
                client.ask(2)
                for field, value in BAD_TELL_NUMBERS:
                    response = client.call("tell", **{"id": 0, "value": 2.0, field: value})
                    assert response["ok"] is False, (field, value)
                    assert f"'{field}'" in response["error"], response["error"]
                status = client.status()
                assert status["pending_ids"] == [0, 1] and status["evaluations"] == 0
                told = client.call("tell", id=0, value=2, elapsed=1)
                assert told["ok"] is True and told["best_value"] == 2.0


@functools.lru_cache(maxsize=None)
def _baco_snapshot_text() -> str:
    """A BaCO session on hpvm_bfs with 8 evaluations told and suggestion 8
    pending, as the wire-encoded snapshot JSON."""
    from repro.workloads import get_benchmark

    evaluator = get_benchmark(BENCH).evaluator
    service = SessionRegistry(max_sessions=1)
    assert service.handle(start_request(tuner="BaCO", budget=12, seed=5))["ok"]
    for _ in range(8):
        [suggestion] = service.handle({"op": "ask", "n": 1})["suggestions"]
        configuration = {
            k: tuple(v) if isinstance(v, list) else v
            for k, v in suggestion["configuration"].items()
        }
        result = evaluator(configuration)
        told = service.handle({
            "op": "tell", "id": suggestion["id"], "feasible": result.feasible,
            "value": result.value if result.feasible else "inf",
        })
        assert told["ok"], told
    assert service.handle({"op": "ask", "n": 1})["suggestions"][0]["id"] == 8
    return json.dumps(service.handle({"op": "snapshot"})["snapshot"])


def _set(path, value):
    """An edit that sets the snapshot entry at ``path`` to ``value``."""

    def edit(snapshot):
        target = snapshot
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value(target[path[-1]]) if callable(value) else value

    return edit


@functools.lru_cache(maxsize=None)
def _snapshot_text(tuner, budget, told, pending, policy=None) -> str:
    """A session of ``tuner`` on hpvm_bfs (seed 5) with ``told`` evaluations
    told and ``pending`` suggestions in flight, as wire-encoded snapshot
    JSON."""
    from repro.experiments.runner import make_session
    from repro.workloads import get_benchmark

    evaluator = get_benchmark(BENCH).evaluator
    session, _ = make_session(BENCH, tuner, budget, 5, surrogate_policy=policy)
    while len(session.history) < told:
        [suggestion] = session.ask(1)
        session.tell(suggestion, evaluator(suggestion.configuration))
    if pending:
        session.ask(pending)
    return json.dumps(wire_encode(session.snapshot()))


#: an OpenTuner session past its 3 initial samples, with 2 learning
#: suggestions (and so 2 in-flight techniques) pending
_OPENTUNER = ("ATF with OpenTuner", 12, 5, 2)
_UNIFORM = ("Uniform Sampling", 12, 5, 2)


def _on(snapshot, edit):
    """An edit that swaps the snapshot for ``_snapshot_text(*snapshot)``'s,
    then applies ``edit`` to it."""

    def swapped(payload):
        payload.clear()
        payload.update(json.loads(_snapshot_text(*snapshot)))
        edit(payload)

    return swapped


def _drop(path):
    """An edit that deletes the snapshot entry at ``path``."""

    def edit(snapshot):
        target = snapshot
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]

    return edit


def _queue_unroll_visit_3(snapshot):
    configuration = snapshot["history"]["evaluations"][0]["configuration"]
    snapshot["tuner_state"]["doe_queue"] = [{**configuration, "unroll_visit": 3}]


#: (field the error must name, edit of a valid snapshot)
BAD_RESTORE_FIELDS = [
    ("history.evaluations[0].configuration.unroll_visit",
     _set(("history", "evaluations", 0, "configuration", "unroll_visit"), 3)),
    ("history.evaluations[0].configuration.extra",
     _set(("history", "evaluations", 0, "configuration", "extra"), 1)),
    ("history.evaluations[0].configuration.fuse_0",
     _set(("history", "evaluations", 0, "configuration", "fuse_0"), {"not": "hashable"})),
    ("history.evaluations[0].feasible",
     _set(("history", "evaluations", 0, "feasible"), "no")),
    ("session.budget", _set(("session", "budget"), 12.9)),
    ("session.budget", _set(("session", "budget"), 3)),
    ("session.next_suggestion_id", _set(("session", "next_suggestion_id"), True)),
    ("pending[0].id", _set(("pending", 0, "id"), 8.7)),
    ("history.evaluations[2].index", _set(("history", "evaluations", 2, "index"), 7)),
    ("rng.state.state", _set(("rng", "state", "state"), float)),
    ("tuner_state.doe_queue[0].unroll_visit", _queue_unroll_visit_3),
    ("tuner_state", _set(("tuner_state",), [1])),
    ("tuner.class", _set(("tuner", "class"), "OpenTunerLikeTuner")),
    ("history.tuner", _set(("history", "tuner"), "Ytopt")),
    ("history.benchmark", _set(("history", "benchmark"), "hpvm_audio")),
    ("history.seed", _set(("history", "seed"), 6)),
    ("pending[0].encoded_row",
     _set(("pending", 0, "encoded_row"), lambda row: [x + 1.0 for x in row])),
    ("meta.fidelity", _drop(("meta", "fidelity"))),
    ("meta.fidelity", _set(("meta", "fidelity"), "quick")),
    *[(f"tuner_state.{field}", _on(_OPENTUNER, _set(("tuner_state", *path), value)))
      for field, path, value in [
          ("initial_left", ("initial_left",), 2.7),
          ("bandit.window", ("bandit", "window"), 0),
          ("bandit.exploration", ("bandit", "exploration"), "nan"),
          ("bandit.techniques", ("bandit", "techniques"), ["bogus"]),
          ("bandit.outcomes.mutate", ("bandit", "outcomes", "mutate"), [0.5]),
          ("bandit.uses.random", ("bandit", "uses", "random"), -1),
          ("inflight[0].techniques[0]", ("inflight", 0, "techniques"), ["bogus"]),
          ("inflight[0].key", ("inflight", 0, "key"), lambda key: [99, *key[1:]]),
      ]],
    ("tuner_state.seen", _on(_UNIFORM, _set(("tuner_state", "seen"), 5))),
    ("tuner_state.seen", _on(_UNIFORM, _set(("tuner_state", "seen"), lambda seen: seen[::-1]))),
]
_BAD_RESTORE_IDS = [
    "unroll_visit=3", "extra_key", "fuse_0=object", "feasible=no", "budget=12.9", "budget=3",
    "next_id=true", "pending_id=8.7", "index=7", "float_rng_word",
    "doe_unroll_visit=3", "tuner_state=[1]", "class", "history_tuner", "history_benchmark",
    "history_seed", "encoded_row", "no_fidelity", "fidelity=quick",
    "opentuner_initial_left=2.7", "opentuner_window=0", "opentuner_exploration=nan",
    "opentuner_techniques", "opentuner_outcome=0.5", "opentuner_uses=-1",
    "opentuner_inflight_technique", "opentuner_inflight_key", "uniform_seen=5",
    "uniform_seen_unsorted",
]


class TestRestoreChecksSnapshot:
    """Regression: ``restore`` used to accept each malformed snapshot below
    and replay it as something else (a value outside the ordinal, ``"no"``
    as feasible, ``12.9`` as 12, ``true`` as 1, a truncated RNG word), or
    fail with a bare ``TypeError`` (an unhashable categorical value).  Each
    now fails with an error naming its field, in process and over TCP."""

    @staticmethod
    def _edited(edit):
        snapshot = json.loads(_baco_snapshot_text())
        edit(snapshot)
        return snapshot

    def test_valid_snapshot_restores(self):
        response = SessionRegistry(max_sessions=1).handle(
            {"op": "restore", "payload": json.loads(_baco_snapshot_text())}
        )
        assert response["ok"], response
        assert response["evaluations"] == 8 and response["pending_ids"] == [8]

    @pytest.mark.parametrize("field, edit", BAD_RESTORE_FIELDS, ids=_BAD_RESTORE_IDS)
    def test_rejected_in_process(self, field, edit):
        service = SessionRegistry(max_sessions=1)
        request = {"op": "restore", "payload": self._edited(edit)}
        response = strict_loads(service.handle_line(json.dumps(request)))
        assert response["ok"] is False
        assert field in response["error"], response["error"]
        assert "unknown session" in service.handle({"op": "status"})["error"]

    @pytest.mark.parametrize("field, edit", BAD_RESTORE_FIELDS, ids=_BAD_RESTORE_IDS)
    def test_rejected_over_tcp(self, field, edit):
        with running_server(SessionRegistry(max_sessions=2)) as server:
            with TuningClient(port=server.port, session="tampered") as client:
                response = client.call("restore", payload=self._edited(edit))
                assert response["ok"] is False
                assert field in response["error"], response["error"]
                restored = client.call(
                    "restore", payload=json.loads(_baco_snapshot_text())
                )
                assert restored["ok"] and restored["pending_ids"] == [8]


class TestStartConflicts:
    """Regression: ``start`` must not silently discard an active session."""

    def test_start_over_in_flight_suggestions_refused(self):
        service = SessionRegistry(max_sessions=1)
        assert service.handle(start_request())["ok"]
        service.handle({"op": "ask", "n": 2})
        response = service.handle(start_request())
        assert response["ok"] is False
        assert "in-flight" in response["error"] and "force" in response["error"]

    def test_start_over_active_session_refused(self):
        service = SessionRegistry(max_sessions=1)
        assert service.handle(start_request())["ok"]
        response = service.handle(start_request())
        assert response["ok"] is False
        assert "active" in response["error"]

    def test_force_discards_and_restarts(self):
        service = SessionRegistry(max_sessions=1)
        assert service.handle(start_request())["ok"]
        service.handle({"op": "ask", "n": 1})
        response = service.handle(start_request(force=True))
        assert response["ok"] is True
        assert service.handle({"op": "status"})["evaluations"] == 0

    def test_finished_session_is_silently_replaceable(self):
        service = SessionRegistry(max_sessions=1)
        assert service.handle(start_request(budget=1))["ok"]
        service.handle({"op": "ask", "n": 1})
        service.handle({"op": "tell", "id": 0, "value": 1.0})
        assert service.handle({"op": "status"})["done"]
        assert service.handle(start_request())["ok"]

    def test_named_session_conflict_in_registry_mode(self, tmp_path):
        registry = SessionRegistry(sessions_dir=tmp_path, max_sessions=4)
        assert registry.handle(start_request(session="gpu"))["ok"]
        response = registry.handle(start_request(session="gpu"))
        assert response["ok"] is False and "'gpu'" in response["error"]
        # a different name is not a conflict
        assert registry.handle(start_request(session="fpga"))["ok"]

    def test_concurrent_starts_admit_exactly_one(self):
        """Regression: two racing non-force starts of the same name must not
        both succeed — the conflict check is re-run atomically inside the
        admission, so exactly one client owns the session."""
        import threading

        registry = SessionRegistry(max_sessions=4)
        outcomes = []
        barrier = threading.Barrier(4)

        def racer():
            barrier.wait()
            outcomes.append(registry.handle(start_request(session="contested")))

        threads = [threading.Thread(target=racer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sum(1 for r in outcomes if r["ok"]) == 1, outcomes
        for response in outcomes:
            if not response["ok"]:
                assert "force" in response["error"] or "busy" in response["error"]

    def test_autosaved_checkpoint_is_a_conflict(self, tmp_path):
        registry = SessionRegistry(sessions_dir=tmp_path, max_sessions=4)
        assert registry.handle(start_request(session="gpu"))["ok"]
        assert registry.handle({"op": "close", "session": "gpu"})["ok"]
        response = registry.handle(start_request(session="gpu"))
        assert response["ok"] is False and "autosaved" in response["error"]
        assert registry.handle(start_request(session="gpu", force=True))["ok"]
        # force unlinked the stale checkpoint so it cannot resurrect
        assert not (tmp_path / "gpu.ckpt.json").exists()


class TestErrorPaths:
    """Every documented error path answers ok=false and keeps serving."""

    def test_malformed_json(self):
        service = SessionRegistry(max_sessions=1)
        for line in ["{not json", "", "}{", '"just a string"', "[1, 2]", "null", "42"]:
            response = strict_loads(service.handle_line(line))
            assert response["ok"] is False, line
            assert "bad request" in response["error"]

    def test_oversized_line(self):
        service = SessionRegistry(max_sessions=1)
        response = strict_loads(service.handle_line("x" * (MAX_LINE_BYTES + 1)))
        assert response["ok"] is False and "exceeds" in response["error"]

    def test_ops_before_start(self):
        for op in ["ask", "tell", "status", "snapshot", "close"]:
            response = SessionRegistry(max_sessions=1).handle(
                {"op": op, "id": 0, "value": 1.0}
            )
            assert response["ok"] is False, op
            assert "unknown session" in response["error"]

    def test_tell_unknown_id(self):
        service = SessionRegistry(max_sessions=1)
        service.handle(start_request())
        response = service.handle({"op": "tell", "id": 123, "value": 1.0})
        assert response["ok"] is False and "123" in response["error"]

    def test_tell_without_value(self):
        service = SessionRegistry(max_sessions=1)
        service.handle(start_request())
        service.handle({"op": "ask"})
        response = service.handle({"op": "tell", "id": 0})
        assert response["ok"] is False and "'value'" in response["error"]

    def test_tell_non_boolean_feasible(self):
        service = SessionRegistry(max_sessions=1)
        service.handle(start_request())
        service.handle({"op": "ask"})
        response = service.handle(
            {"op": "tell", "id": 0, "value": 1.0, "feasible": "false"}
        )
        assert response["ok"] is False and "boolean" in response["error"]

    # ``budget``, ``seed``, ``n`` and ``id`` take JSON integers only: int()
    # coercion would tell suggestion 0 for ``"id": 0.99`` and suggestion 1
    # for ``"id": true``, ask for 2 on ``"n": 2.7`` and run 5 evaluations on
    # ``"budget": 5.9``
    @staticmethod
    def _assert_rejected(service, request, field):
        response = strict_loads(service.handle_line(json.dumps(request)))
        assert response["ok"] is False, request
        assert f"'{field}'" in response["error"], response["error"]

    @pytest.mark.parametrize("value", [0.99, True, "1", None])
    def test_tell_non_integer_id(self, value):
        service = SessionRegistry(max_sessions=1)
        service.handle(start_request())
        service.handle({"op": "ask", "n": 2})
        self._assert_rejected(service, {"op": "tell", "id": value, "value": 2.0}, "id")
        status = service.handle({"op": "status"})
        assert status["pending_ids"] == [0, 1] and status["evaluations"] == 0
        assert service.handle({"op": "tell", "id": 1, "value": 2.0})["ok"]

    @pytest.mark.parametrize("value", [2.7, True, "2", None])
    def test_ask_non_integer_n(self, value):
        service = SessionRegistry(max_sessions=1)
        service.handle(start_request())
        self._assert_rejected(service, {"op": "ask", "n": value}, "n")
        assert service.handle({"op": "status"})["pending_ids"] == []

    @pytest.mark.parametrize("field, value", [
        *[("budget", v) for v in (5.9, True, "5", None)],
        *[("seed", v) for v in (3.5, False, "3", None)],
    ])
    def test_start_non_integer_budget_or_seed(self, field, value):
        service = SessionRegistry(max_sessions=1)
        self._assert_rejected(service, start_request(**{field: value}), field)
        assert "unknown session" in service.handle({"op": "status"})["error"]

    @pytest.mark.parametrize("fidelity", ["Fast", "quick"])
    def test_start_unknown_fidelity(self, fidelity):
        # any fidelity but "fast" used to build BaCO at paper settings
        service = SessionRegistry(max_sessions=1)
        self._assert_rejected(service, start_request(tuner="BaCO", fidelity=fidelity), "fidelity")
        assert "unknown session" in service.handle({"op": "status"})["error"]

    def test_restore_needs_exactly_one_source(self, tmp_path):
        service = SessionRegistry(max_sessions=1)
        for extra in [{}, {"path": str(tmp_path / "x.json"), "payload": {}}]:
            response = service.handle({"op": "restore", **extra})
            assert response["ok"] is False
            assert "exactly one" in response["error"]

    def test_restore_malformed_payload(self):
        for payload in [{}, {"session": 3}, {"session": {}}, [1], "x"]:
            response = SessionRegistry(max_sessions=1).handle(
                {"op": "restore", "payload": payload}
            )
            assert response["ok"] is False

    def test_restore_missing_file(self, tmp_path):
        response = SessionRegistry(max_sessions=1).handle(
            {"op": "restore", "path": str(tmp_path / "missing.json")}
        )
        assert response["ok"] is False

    def test_restore_payload_without_seed(self):
        # an entropy-seeded restore would silently lose determinism
        service = SessionRegistry(max_sessions=1)
        service.handle(start_request())
        payload = service.handle({"op": "snapshot"})["snapshot"]
        del payload["tuner"]["seed"]
        response = SessionRegistry(max_sessions=1).handle(
            {"op": "restore", "payload": payload}
        )
        assert response["ok"] is False and "seed" in response["error"]

    def test_ask_after_done_returns_empty(self):
        service = SessionRegistry(max_sessions=1)
        service.handle(start_request(budget=1))
        service.handle({"op": "ask"})
        service.handle({"op": "tell", "id": 0, "value": 1.0})
        response = service.handle({"op": "ask", "n": 3})
        assert response["ok"] is True
        assert response["suggestions"] == [] and response["done"] is True

    def test_invalid_session_names(self):
        registry = SessionRegistry(max_sessions=4)
        for name in ["", "../evil", "a/b", "x" * 200, 7, None, ["s"], ".hidden"]:
            response = registry.handle(start_request(session=name))
            assert response["ok"] is False, name
            assert "'session'" in response["error"]

    def test_unknown_benchmark_and_tuner(self):
        service = SessionRegistry(max_sessions=1)
        assert not service.handle(start_request(benchmark="nope_bench"))["ok"]
        assert not service.handle(start_request(tuner="NopeTuner"))["ok"]
        assert not service.handle(start_request(budget="many"))["ok"]
        assert not service.handle(start_request(budget=0))["ok"]


#: values no well-formed request or snapshot field should hold blindly
JUNK_VALUES = [
    None, True, False, 0, -1, 3.5, 1e999, -1e999, "x", "", [], {}, [[]],
    {"a": [1, {"b": None}]}, "Infinity", "\x00", "日本語", 10**40,
]


def adversarial_lines(n: int = 520) -> list[str]:
    """A deterministic battery of adversarial request lines."""
    rng = random.Random(0xBAC0)
    ops = ["start", "ask", "tell", "status", "snapshot", "restore",
           "close", "sessions", "shutdown", "nope", "", None, 3, ["ask"],
           {"op": "ask"}, True, 1.5]
    junk_values = JUNK_VALUES
    keys = ["session", "n", "id", "value", "feasible", "elapsed", "benchmark",
            "tuner", "budget", "seed", "fidelity", "path", "payload", "force"]
    lines: list[str] = []
    while len(lines) < n:
        roll = rng.random()
        if roll < 0.25:
            # structurally broken text
            alphabet = string.printable
            lines.append("".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 60))))
        elif roll < 0.35:
            # valid JSON, wrong shape
            lines.append(json.dumps(rng.choice([[1, 2], "op", 42, None, [{"op": "ask"}]])))
        elif roll < 0.5:
            # non-strict JSON tokens in random positions
            key = rng.choice(keys)
            token = rng.choice(["NaN", "Infinity", "-Infinity"])
            lines.append('{"op": "tell", "%s": %s}' % (key, token))
        else:
            # a request object with a random op and corrupted fields
            request = {"op": rng.choice(ops)}
            for _ in range(rng.randrange(0, 4)):
                request[rng.choice(keys)] = rng.choice(junk_values)
            # never let a fuzz snapshot/restore touch a real path
            if "path" in request:
                request["path"] = rng.choice([None, "", 3, []])
            try:
                lines.append(json.dumps(request))
            except (TypeError, ValueError):
                continue
    return lines


class TestFuzzNeverRaisesStrictJson:
    """500+ adversarial lines: no uncaught exception, only strict JSON out."""

    def test_fuzz_empty_registry(self):
        registry = SessionRegistry(max_sessions=2)
        for line in adversarial_lines():
            response = strict_loads(registry.handle_line(line))
            assert isinstance(response, dict) and "ok" in response, line

    def test_fuzz_with_live_session(self):
        # a live session with an in-flight suggestion exercises the deeper
        # handler paths (tell routing, conflicts, snapshots)
        registry = SessionRegistry(max_sessions=2)
        assert registry.handle(start_request(budget=500))["ok"]
        registry.handle({"op": "ask", "n": 3})
        for line in adversarial_lines():
            response = strict_loads(registry.handle_line(line))
            assert isinstance(response, dict) and "ok" in response, line
        # and the registry still serves afterwards (a fuzz line may have
        # legitimately closed the session or requested shutdown, but the
        # dispatcher itself must remain usable)
        status = registry.handle({"op": "status"})
        assert status["ok"] is True or "unknown session" in status["error"]
        assert registry.handle(start_request(session="fresh", budget=3))["ok"]


#: the snapshots the restore fuzz edits, as ``_snapshot_text`` arguments
FUZZ_SNAPSHOTS = {
    # inside the 5-configuration DoE, so the queue still holds two
    "BaCO exact": ("BaCO", 20, 2, 1),
    # past a warm refit, so the policy state holds hyper-parameters
    "BaCO fast": ("BaCO", 20, 12, 1, "fast,refit_every=3,sweep_every=10"),
    "ATF with OpenTuner": _OPENTUNER,
    "Uniform Sampling": _UNIFORM,
}


def _at(payload, path):
    for key in path:
        payload = payload[key]
    return payload


def _paths(payload, path=()):
    """The path of every object member and array item inside ``payload``."""
    items = payload.items() if isinstance(payload, dict) else (
        enumerate(payload) if isinstance(payload, list) else ()
    )
    for key, value in items:
        yield (*path, key)
        yield from _paths(value, (*path, key))


def _edited_snapshots(snapshot, n, seed):
    """``n`` seeded edits of ``snapshot``, each of one place: a member or
    item replaced by a junk value, an object member dropped, or one added."""
    rng = random.Random(seed)
    paths = list(_paths(snapshot))
    members = [path for path in paths if isinstance(_at(snapshot, path[:-1]), dict)]
    objects = [()] + [path for path in paths if isinstance(_at(snapshot, path), dict)]
    for _ in range(n):
        edited = copy.deepcopy(snapshot)
        roll = rng.random()
        if roll < 0.6:
            path = rng.choice(paths)
            _at(edited, path[:-1])[path[-1]] = copy.deepcopy(rng.choice(JUNK_VALUES))
        elif roll < 0.8:
            path = rng.choice(members)
            del _at(edited, path[:-1])[path[-1]]
        else:
            _at(edited, rng.choice(objects))["extra"] = copy.deepcopy(rng.choice(JUNK_VALUES))
        yield edited


class TestRestoreMutationFuzz:
    """Restore accepts exactly what ``snapshot()`` writes.  Each seeded edit
    of a valid snapshot either fails with the ``ValueError`` or ``KeyError``
    the service and the CLI report, or restores a session whose own snapshot
    serialises to the edited text, with legal pending and DoE
    configurations.  Before the snapshot had one declaration, ``tuner_state:
    [1]`` raised ``AttributeError`` and OpenTuner's ``initial_left: 2.7``
    came back as 2."""

    @staticmethod
    def _snapshot(name):
        return wire_decode(json.loads(_snapshot_text(*FUZZ_SNAPSHOTS[name])))

    @staticmethod
    def _assert_legal(session):
        space = session.tuner.space
        queued = [s.configuration for s in session.pending] + list(session.tuner._doe_queue)
        for configuration in queued:
            assert list(configuration) == list(space.parameter_names)
            assert all(space[name].contains(v) for name, v in configuration.items())

    @staticmethod
    def _outcomes(name, n):
        """``(edited snapshot, restored session or None, error text)`` for
        ``n`` seeded edits of one snapshot, restored in process."""
        from repro.experiments.runner import restore_session

        for edited in _edited_snapshots(TestRestoreMutationFuzz._snapshot(name), n, len(name)):
            try:
                session, _ = restore_session(edited)
            except (ValueError, KeyError) as exc:
                yield edited, None, f"{type(exc).__name__}: {exc}"
            else:
                yield edited, session, None

    @pytest.mark.parametrize("name", FUZZ_SNAPSHOTS)
    def test_restore_is_exact_or_refused(self, name):
        restored = 0
        for edited, session, _ in self._outcomes(name, 100):
            if session is not None:
                restored += 1
                text = json.dumps(edited, sort_keys=True)
                assert json.dumps(session.snapshot(), sort_keys=True) == text
                self._assert_legal(session)
        assert restored > 0  # the edits reach past the first failing field

    def test_tcp_restore_matches_in_process(self):
        """20 edits, restored ones and refused ones from each snapshot, give
        the same session or the same error over TCP."""
        subset = []
        for name in FUZZ_SNAPSHOTS:
            outcomes = list(self._outcomes(name, 100))
            restored = [o for o in outcomes if o[1] is not None][:3]
            subset += restored + [o for o in outcomes if o[1] is None][: 5 - len(restored)]
        assert len(subset) == 20
        with running_server(SessionRegistry(max_sessions=32)) as server:
            with TuningClient(port=server.port) as client:
                for i, (edited, session, error) in enumerate(subset):
                    name = f"fuzz{i}"
                    response = client.call("restore", session=name, payload=wire_encode(edited))
                    if session is None:
                        assert response == {"ok": False, "op": "restore", "error": error}
                        continue
                    assert response["ok"], response
                    snapshot = wire_decode(client.call("snapshot", session=name)["snapshot"])
                    assert json.dumps(snapshot, sort_keys=True) == json.dumps(edited, sort_keys=True)

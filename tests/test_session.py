"""Tests for the ask/tell TuningSession API (repro.core.session).

Covers the tentpole guarantees of the API inversion:

* a manual ask/tell loop reproduces ``tune()`` bit for bit,
* snapshots round-trip through JSON and resume bit-identically, including
  in-flight (asked-but-untold) suggestions,
* batch asks never over-commit the budget, deduplicate against pending
  work, and yield deterministic traces for a fixed batch size,
* the legacy helpers raise a clear error outside an active session,
* a dropped session and its tuner are freed by reference counting alone,
* the JSON-lines service drives a session end to end through a
  single-session ``SessionRegistry`` (the multi-session registry, the TCP
  server, and the malformed-traffic hardening are covered by
  ``test_server.py`` and ``test_service_hardening.py``).
"""

from __future__ import annotations

import gc
import json
import math
import weakref

import numpy as np
import pytest

from repro.baselines.opentuner import OpenTunerLikeTuner
from repro.baselines.random_search import CoTSamplingTuner, UniformSamplingTuner
from repro.baselines.ytopt import YtoptLikeTuner
from repro.core.baco import BacoSettings, BacoTuner
from repro.core.result import ObjectiveResult
from repro.core.session import Suggestion, TuningSession, drive
from repro.service import SessionRegistry


def _fast_settings(**overrides) -> BacoSettings:
    base = dict(
        gp_prior_samples=6,
        gp_refined_starts=1,
        gp_max_iterations=10,
        n_random_samples=64,
        n_local_search_starts=3,
        max_local_search_steps=10,
        feasibility_trees=8,
    )
    base.update(overrides)
    return BacoSettings(**base)


def _make_tuner(name, space, seed):
    factories = {
        "baco": lambda: BacoTuner(space, settings=_fast_settings(), seed=seed),
        "opentuner": lambda: OpenTunerLikeTuner(space, seed=seed),
        "ytopt": lambda: YtoptLikeTuner(space, seed=seed, rf_trees=8),
        "uniform": lambda: UniformSamplingTuner(space, seed=seed),
        "cot": lambda: CoTSamplingTuner(space, seed=seed),
    }
    return factories[name]()


ALL_TUNERS = ["baco", "opentuner", "ytopt", "uniform", "cot"]


def _trace(history):
    return [
        (e.configuration, e.value, e.feasible, e.phase) for e in history.evaluations
    ]


class TestAskTellEquivalence:
    @pytest.mark.parametrize("name", ALL_TUNERS)
    def test_manual_loop_matches_tune(self, name, small_space, quadratic_objective):
        budget = 14
        expected = _make_tuner(name, small_space, 4).tune(
            quadratic_objective, budget, benchmark_name="toy"
        )

        tuner = _make_tuner(name, small_space, 4)
        session = tuner.start_session(budget, benchmark_name="toy")
        while not session.done:
            [suggestion] = session.ask(1)
            session.tell(suggestion, quadratic_objective(suggestion.configuration))
        assert _trace(session.history) == _trace(expected)
        assert session.history.benchmark_name == "toy"
        assert session.history.seed == 4

    def test_drive_matches_tune(self, small_space, quadratic_objective):
        expected = _make_tuner("baco", small_space, 2).tune(quadratic_objective, 10)
        tuner = _make_tuner("baco", small_space, 2)
        session = tuner.start_session(10)
        history = drive(session, quadratic_objective)
        assert _trace(history) == _trace(expected)

    def test_suggestions_carry_metadata(self, small_space, quadratic_objective):
        tuner = _make_tuner("baco", small_space, 0)
        session = tuner.start_session(8)
        [suggestion] = session.ask(1)
        assert suggestion.id == 0
        assert suggestion.phase == "initial"
        assert set(suggestion.configuration) == set(small_space.parameter_names)
        row = small_space.encoder.encode(suggestion.configuration)
        assert suggestion.encoded_row == tuple(float(x) for x in row)


class TestSessionProtocol:
    def test_invalid_budget(self, small_space):
        with pytest.raises(ValueError):
            _make_tuner("uniform", small_space, 0).start_session(0)

    def test_tell_unknown_id_raises(self, small_space, quadratic_objective):
        session = _make_tuner("uniform", small_space, 0).start_session(5)
        [suggestion] = session.ask(1)
        with pytest.raises(KeyError):
            session.tell(suggestion.id + 1, ObjectiveResult(1.0))
        session.tell(suggestion, ObjectiveResult(1.0))
        with pytest.raises(KeyError):  # double tell
            session.tell(suggestion, ObjectiveResult(1.0))

    def test_ask_never_overcommits_budget(self, small_space, quadratic_objective):
        session = _make_tuner("uniform", small_space, 1).start_session(5)
        first = session.ask(3)
        assert len(first) == 3
        second = session.ask(10)
        assert len(second) == 2  # only 2 of 5 left after 3 pending
        assert session.ask(1) == []
        ids = [s.id for s in first + second]
        assert ids == sorted(ids) == list(range(5))
        for suggestion in first + second:
            session.tell(suggestion, quadratic_objective(suggestion.configuration))
        assert session.done
        assert session.ask(4) == []

    def test_batch_ask_deduplicates_pending(self, small_space):
        session = _make_tuner("uniform", small_space, 3).start_session(30)
        suggestions = session.ask(12)
        keys = {small_space.freeze(s.configuration) for s in suggestions}
        # the dedup loop has 32 tries per slot over a ~100-point space
        assert len(keys) >= 11

    def test_batch_ask_before_any_tell_exceeding_doe(self, small_space):
        """Regression: ask(n) straight after start, with n beyond the DoE.

        BaCO's learning-phase recommender runs with an empty history here
        (nothing told back yet) and must fall through to random proposals
        instead of fitting the feasibility model on zero rows.
        """
        from repro.core.baco import BacoTuner

        session = BacoTuner(small_space, seed=0).start_session(3)
        suggestions = session.ask(3)
        assert len(suggestions) == 3
        keys = {small_space.freeze(s.configuration) for s in suggestions}
        assert len(keys) == 3
        for suggestion in suggestions:
            assert small_space.is_feasible(suggestion.configuration)

    def test_out_of_order_tells_are_accepted(self, small_space, quadratic_objective):
        session = _make_tuner("uniform", small_space, 5).start_session(6)
        suggestions = session.ask(4)
        for suggestion in reversed(suggestions):
            session.tell(suggestion, quadratic_objective(suggestion.configuration))
        assert len(session.history) == 4
        # history order follows tell order
        told = [s.configuration for s in reversed(suggestions)]
        assert [e.configuration for e in session.history] == told

    @pytest.mark.parametrize("batch", [2, 4])
    def test_fixed_batch_size_is_deterministic(
        self, batch, small_space, quadratic_objective
    ):
        def run():
            tuner = _make_tuner("baco", small_space, 6)
            session = tuner.start_session(12)
            return drive(session, quadratic_objective, batch_size=batch)

        assert _trace(run()) == _trace(run())

    def test_drive_validates_arguments(self, small_space, quadratic_objective):
        session = _make_tuner("uniform", small_space, 0).start_session(4)
        with pytest.raises(ValueError):
            drive(session)
        with pytest.raises(ValueError):
            drive(session, quadratic_objective, batch_size=0)


class TestNoActiveSession:
    """The history accessor fails with a clear error before tune()."""

    def test_history_property(self, small_space):
        tuner = _make_tuner("uniform", small_space, 0)
        with pytest.raises(RuntimeError, match="no active tuning session"):
            tuner.history


class TestSnapshotRestore:
    @pytest.mark.parametrize("name", ALL_TUNERS)
    def test_resume_is_bit_identical(self, name, small_space, hidden_constraint_objective):
        budget, interrupt_at = 14, 6
        expected = _make_tuner(name, small_space, 8).tune(
            hidden_constraint_objective, budget
        )

        tuner = _make_tuner(name, small_space, 8)
        session = tuner.start_session(budget)
        while len(session.history) < interrupt_at:
            [suggestion] = session.ask(1)
            session.tell(
                suggestion, hidden_constraint_objective(suggestion.configuration)
            )
        payload = json.loads(json.dumps(session.snapshot()))

        restored = TuningSession.restore(payload, _make_tuner(name, small_space, 8))
        assert len(restored.history) == interrupt_at
        history = drive(restored, hidden_constraint_objective)
        assert _trace(history) == _trace(expected)

    def test_pending_suggestions_survive_snapshot(
        self, small_space, quadratic_objective
    ):
        tuner = _make_tuner("uniform", small_space, 9)
        session = tuner.start_session(8)
        issued = session.ask(3)
        payload = json.loads(json.dumps(session.snapshot()))

        restored = TuningSession.restore(payload, _make_tuner("uniform", small_space, 9))
        reissued = restored.ask(3)
        assert [s.id for s in reissued] == [s.id for s in issued]
        assert [s.configuration for s in reissued] == [s.configuration for s in issued]
        for suggestion in reissued:
            restored.tell(suggestion, quadratic_objective(suggestion.configuration))
        assert len(restored.history) == 3

    def test_restore_rejects_wrong_tuner(self, small_space):
        session = _make_tuner("uniform", small_space, 0).start_session(5)
        payload = session.snapshot()
        with pytest.raises(ValueError, match="snapshot was taken by tuner"):
            TuningSession.restore(payload, _make_tuner("cot", small_space, 0))

    def test_restore_rejects_unknown_version(self, small_space):
        session = _make_tuner("uniform", small_space, 0).start_session(5)
        payload = session.snapshot()
        payload["version"] = 99
        with pytest.raises(ValueError, match="snapshot version"):
            TuningSession.restore(payload, _make_tuner("uniform", small_space, 0))

    def test_snapshot_restores_baco_caches(self, small_space, quadratic_objective):
        """Encoder caches and the incremental GP tensor are rebuilt exactly."""
        tuner = _make_tuner("baco", small_space, 11)
        session = tuner.start_session(12)
        while len(session.history) < 7:
            [suggestion] = session.ask(1)
            session.tell(suggestion, quadratic_objective(suggestion.configuration))
        payload = json.loads(json.dumps(session.snapshot()))

        fresh = _make_tuner("baco", small_space, 11)
        TuningSession.restore(payload, fresh)
        # the restore observes the history in one batch, the live run in 7
        assert len(fresh._space_rows) == 1 and len(tuner._space_rows) == 7
        assert (
            np.vstack(fresh._space_rows).tobytes() == np.vstack(tuner._space_rows).tobytes()
        )
        assert fresh.history.evaluations == tuner.history.evaluations
        assert fresh._evaluated_keys == tuner._evaluated_keys
        assert len(fresh._gp_distance_cache) == len(tuner._gp_distance_cache)
        for view in ("rows", "tensor"):
            restored = getattr(fresh._gp_distance_cache, view)
            live = getattr(tuner._gp_distance_cache, view)
            assert restored.tobytes() == live.tobytes()
            assert restored.strides == live.strides
        assert fresh._rng.bit_generator.state == tuner._rng.bit_generator.state


class TestSessionService:
    def _start(self, service, budget=6):
        response = service.handle(
            {
                "op": "start",
                "benchmark": "hpvm_bfs",
                "tuner": "Uniform Sampling",
                "budget": budget,
                "seed": 2,
            }
        )
        assert response["ok"], response
        return response

    def test_start_ask_tell_roundtrip(self):
        service = SessionRegistry(max_sessions=1)
        started = self._start(service)
        assert started["benchmark"] == "hpvm_bfs"

        asked = service.handle({"op": "ask", "n": 2})
        assert asked["ok"] and len(asked["suggestions"]) == 2
        for entry, value in zip(asked["suggestions"], (4.5, 2.5)):
            told = service.handle({"op": "tell", "id": entry["id"], "value": value})
            assert told["ok"], told
        status = service.handle({"op": "status"})
        assert status["evaluations"] == 2
        assert status["best_value"] == 2.5

    def test_snapshot_restore_via_file(self, tmp_path):
        service = SessionRegistry(max_sessions=1)
        self._start(service)
        asked = service.handle({"op": "ask", "n": 1})
        service.handle(
            {"op": "tell", "id": asked["suggestions"][0]["id"], "value": 1.25}
        )
        path = tmp_path / "session.ckpt.json"
        saved = service.handle({"op": "snapshot", "path": str(path)})
        assert saved["ok"] and path.exists()

        fresh = SessionRegistry(max_sessions=1)
        restored = fresh.handle({"op": "restore", "path": str(path)})
        assert restored["ok"] and restored["evaluations"] == 1
        status = fresh.handle({"op": "status"})
        assert status["best_value"] == 1.25

    def test_errors_do_not_kill_the_service(self):
        service = SessionRegistry(max_sessions=1)
        assert not service.handle({"op": "ask"})["ok"]  # no session yet
        assert not service.handle({"op": "nope"})["ok"]
        line = service.handle_line("{not json")
        assert json.loads(line)["ok"] is False
        self._start(service)
        assert not service.handle({"op": "tell", "id": 123, "value": 1.0})["ok"]
        assert service.handle({"op": "shutdown"})["ok"]
        assert not service.running


class TestSessionLifetime:
    """Session and tuner form no reference cycle, so dropping a session
    frees its tuner without the cyclic GC (which the server's evictions and
    every checkpoint reload would otherwise wait on)."""

    @staticmethod
    def _tuner_dies_with(make):
        gc.collect()
        gc.disable()
        try:
            session = make()
            tuner = weakref.ref(session.tuner)
            del session
            return tuner() is None
        finally:
            gc.enable()

    def test_fresh_session(self):
        from repro.experiments.runner import make_session

        assert self._tuner_dies_with(lambda: make_session("hpvm_bfs", "BaCO", 6, 0)[0])

    def test_restored_session(self, tmp_path):
        from repro.experiments.runner import load_session, make_session, save_session

        session, bench = make_session("hpvm_bfs", "BaCO", 6, 0)
        for suggestion in session.ask(2):
            session.tell(suggestion.id, bench.evaluator(suggestion.configuration))
        path = save_session(session, tmp_path / "session.ckpt.json")
        assert self._tuner_dies_with(lambda: load_session(path)[0])

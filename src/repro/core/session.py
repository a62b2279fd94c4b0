"""Ask/tell tuning sessions: the inverted control flow of every tuner.

Historically each tuner owned its loop (``Tuner._run``) and called the
objective inline, which made parallel candidate evaluation, mid-run
checkpointing, and service-style usage impossible.  :class:`TuningSession`
inverts that relationship, following the ask/tell convention of mainstream
BO frameworks (skopt/ytopt, OpenTuner):

* :meth:`TuningSession.ask` returns up to ``n`` :class:`Suggestion` objects —
  configuration, encoded feature row, phase, and a stable suggestion id;
* the caller evaluates the configurations however it likes (inline, thread
  pool, process pool, remote workers, ...);
* :meth:`TuningSession.tell` feeds each observation back, in any order —
  deterministic replays require telling in suggestion-id order, which
  :func:`drive` does for you.

The session (not the tuner) owns the :class:`~repro.core.result.TuningHistory`
and the evaluation budget; the tuner is reduced to a proposal state machine
(:meth:`repro.core.tuner.Tuner._propose`) plus per-observation cache updates
(:meth:`repro.core.tuner.Tuner._observe`).

Checkpoint / resume
-------------------

:meth:`TuningSession.snapshot` captures the complete session state as a
JSON-serializable dict: the RNG bit-generator state, the full history, any
suggestions issued but not yet told, and the tuner's private state (pending
DoE queue, bandit statistics, dedup sets).  :meth:`TuningSession.restore`
rebuilds a live session from such a payload and a *freshly constructed*
tuner: the history is replayed through the tuner's observation hook, which
deterministically reconstructs every derived cache (encoded rows, feasible
values, the incremental GP train-train distance tensor) without storing a
single float twice, and the RNG is restored bit-exactly.  A restored session
therefore continues the run exactly where the snapshot left off — the
completed trace is bit-identical to an uninterrupted one.

JSON notes: Python's ``json`` round-trips ``float`` values exactly (``repr``
emits the shortest representation that parses back to the same double), so
snapshots preserve bit-identical behaviour across processes.

Thread safety
-------------

A session is mutated from one logical caller at a time, but the tuning
*server* (:mod:`repro.server`) drives many sessions from a pool of
connection threads.  Every state transition — :meth:`ask`, :meth:`tell`,
:meth:`snapshot` — therefore runs under a per-session re-entrant lock, so a
snapshot never observes a half-applied tell and two racing asks cannot issue
the same suggestion id.  Distinct sessions never share mutable state (each
tuner owns its RNG and caches; the search space they share is read-only with
idempotent lazily-built caches), so cross-session concurrency needs no
further coordination and cannot perturb a session's trace.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

import numpy as np

from .result import (
    ObjectiveFunction,
    ObjectiveResult,
    TuningHistory,
    configuration_from_json,
    configuration_to_json,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (tuner imports us)
    from .tuner import Tuner

__all__ = [
    "Suggestion",
    "TuningSession",
    "drive",
    "frozen_key_from_json",
    "frozen_key_to_json",
]

SNAPSHOT_VERSION = 1


@dataclass(frozen=True)
class Suggestion:
    """One configuration proposed by :meth:`TuningSession.ask`.

    ``id`` is unique within the session and totally ordered by proposal time;
    telling results back in id order reproduces the serial trace.
    ``encoded_row`` is the configuration's fixed-width numeric encoding
    (:class:`repro.space.encoding.ConfigEncoder`), so batch evaluators and
    services can feed surrogate models without re-encoding.
    """

    id: int
    configuration: dict[str, Any]
    phase: str
    encoded_row: tuple[float, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "configuration": configuration_to_json(self.configuration),
            "phase": self.phase,
            "encoded_row": list(self.encoded_row),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Suggestion":
        return cls(
            id=int(payload["id"]),
            configuration=configuration_from_json(payload["configuration"]),
            phase=payload["phase"],
            encoded_row=tuple(float(x) for x in payload.get("encoded_row", ())),
        )


# ---------------------------------------------------------------------------
# JSON helpers for frozen configuration keys (tuples, possibly nested)
# ---------------------------------------------------------------------------

def frozen_key_to_json(key: tuple) -> list:
    """A frozen configuration key as JSON (tuples become lists)."""
    return [list(v) if isinstance(v, tuple) else v for v in key]


def frozen_key_from_json(items: Sequence[Any]) -> tuple:
    """Inverse of :func:`frozen_key_to_json`."""
    return tuple(tuple(v) if isinstance(v, list) else v for v in items)


def _rng_state_to_json(rng: np.random.Generator) -> dict[str, Any]:
    """The bit-generator state as a JSON-safe dict (ints stay exact)."""
    state = rng.bit_generator.state
    return {
        "bit_generator": state["bit_generator"],
        "state": {k: int(v) for k, v in state["state"].items()},
        "has_uint32": int(state.get("has_uint32", 0)),
        "uinteger": int(state.get("uinteger", 0)),
    }


def _rng_state_from_json(rng: np.random.Generator, payload: Mapping[str, Any]) -> None:
    name = type(rng.bit_generator).__name__
    if payload["bit_generator"] != name:
        raise ValueError(
            f"snapshot was taken with bit generator {payload['bit_generator']!r} "
            f"but the tuner uses {name!r}"
        )
    rng.bit_generator.state = {
        "bit_generator": payload["bit_generator"],
        "state": {k: int(v) for k, v in payload["state"].items()},
        "has_uint32": int(payload.get("has_uint32", 0)),
        "uinteger": int(payload.get("uinteger", 0)),
    }


def _json_int(value: Any, field: str, low: int = 0) -> int:
    """``value`` as a JSON integer ``>= low``: ``int()`` would read ``true``
    as 1 and truncate ``8.7`` to 8, so a ``bool`` or a ``float`` is refused."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ValueError(f"{field} must be an integer >= {low}, got {value!r}")
    return value


def _check_configuration(space: Any, payload: Any, field: str) -> None:
    """A snapshotted configuration names exactly the space's parameters, each
    with a value the parameter contains."""
    if not isinstance(payload, Mapping):
        raise ValueError(f"{field} must be an object, got {payload!r}")
    configuration = configuration_from_json(payload)
    for name in (*configuration, *space.parameter_names):
        if name not in space:
            raise ValueError(f"{field}.{name} is not a parameter of the space")
        if name not in configuration:
            raise ValueError(f"{field}.{name} is missing")
        if not space[name].contains(configuration[name]):
            raise ValueError(
                f"{field}.{name} holds {configuration[name]!r}, not a legal value"
            )


def _check_snapshot(payload: Mapping[str, Any], space: Any) -> None:
    """Refuse a snapshot whose replay would silently differ from its run;
    each malformed field raises ``ValueError`` naming it."""
    meta = payload["session"]
    budget = _json_int(meta.get("budget"), "session.budget", low=1)
    history = payload.get("history")
    evaluations = history.get("evaluations") if isinstance(history, Mapping) else None
    pending = payload.get("pending", [])
    if not isinstance(evaluations, list) or not isinstance(pending, list):
        raise ValueError("history.evaluations and pending must be lists")
    if len(evaluations) + len(pending) > budget:
        raise ValueError(
            f"session.budget {budget} is below the snapshot's {len(evaluations)} "
            f"evaluations plus {len(pending)} pending suggestions"
        )
    next_id = _json_int(
        meta.get("next_suggestion_id", len(evaluations)), "session.next_suggestion_id"
    )
    for i, entry in enumerate(evaluations):
        field = f"history.evaluations[{i}]"
        if not isinstance(entry, Mapping):
            raise ValueError(f"{field} must be an object")
        if _json_int(entry.get("index"), f"{field}.index") != i:
            raise ValueError(f"{field}.index must be {i}, got {entry['index']!r}")
        feasible, value = entry.get("feasible"), entry.get("value")
        if not isinstance(feasible, bool):
            raise ValueError(f"{field}.feasible must be true or false, got {feasible!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{field}.value must be a number, got {value!r}")
        _check_configuration(space, entry.get("configuration"), f"{field}.configuration")
    pending_ids: set[int] = set()
    for i, entry in enumerate(pending):
        field = f"pending[{i}]"
        if not isinstance(entry, Mapping):
            raise ValueError(f"{field} must be an object")
        suggestion_id = _json_int(entry.get("id"), f"{field}.id")
        if suggestion_id in pending_ids or suggestion_id >= next_id:
            raise ValueError(
                f"{field}.id {suggestion_id} repeats a pending id or is not below "
                f"session.next_suggestion_id {next_id}"
            )
        pending_ids.add(suggestion_id)
        _check_configuration(space, entry.get("configuration"), f"{field}.configuration")
    rng = payload.get("rng")
    words = rng.get("state") if isinstance(rng, Mapping) else None
    if not isinstance(words, Mapping):
        raise ValueError("rng.state must be an object")
    for word, value in words.items():
        _json_int(value, f"rng.state.{word}")


# ---------------------------------------------------------------------------
# the session
# ---------------------------------------------------------------------------

class TuningSession:
    """Ask/tell interface over one tuner run with a fixed evaluation budget."""

    def __init__(
        self,
        tuner: "Tuner",
        budget: int,
        benchmark_name: str = "",
        *,
        _restoring: bool = False,
    ) -> None:
        if budget < 1:
            raise ValueError("budget must be at least 1")
        self.tuner = tuner
        self.budget = int(budget)
        self.benchmark_name = benchmark_name
        #: guards every state transition (ask/tell/snapshot); re-entrant so
        #: the multi-session server can reuse it as the per-session op lock
        self._lock = threading.RLock()
        #: free-form caller metadata carried through snapshots (e.g. the
        #: experiment layer records the fidelity the tuner was built with)
        self.meta: dict[str, Any] = {}
        #: suggestions issued by ask() and not yet told back
        self._pending: dict[int, Suggestion] = {}
        #: restored in-flight suggestions, re-issued by ask() before new ones
        self._reissue: deque[Suggestion] = deque()
        self._next_id = 0
        if not _restoring:
            self.history = TuningHistory(
                tuner_name=tuner.name,
                benchmark_name=benchmark_name,
                seed=tuner.seed,
            )
            tuner._bind_session(self)
            tuner._begin(self.budget)

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """True once the budget is exhausted (every evaluation told back)."""
        with self._lock:
            return len(self.history) >= self.budget

    @property
    def remaining(self) -> int:
        """Evaluations still to be told before the budget is exhausted."""
        with self._lock:
            return max(0, self.budget - len(self.history))

    @property
    def pending(self) -> tuple[Suggestion, ...]:
        """Issued-but-untold suggestions, in suggestion-id order."""
        with self._lock:
            issued = list(self._pending.values()) + list(self._reissue)
        return tuple(sorted(issued, key=lambda s: s.id))

    @property
    def phase_timings(self) -> dict[str, Any]:
        """Per-phase wall-clock breakdown of the tuner's recommendation loop.

        Delegates to the tuner's :class:`~repro.core.profiling.PhaseProfiler`
        summary — seconds and call counts for every phase in
        :data:`~repro.core.profiling.PHASES` (sample, feas_fit, fit, predict,
        ei, feas_predict, climb).  Timings are process-local observations
        (they are not part of snapshots and reset when the tuner state is
        rebuilt on restore).
        """
        return self.tuner.phase_profiler.summary()

    # ------------------------------------------------------------------
    def ask(self, n: int = 1) -> list[Suggestion]:
        """Propose up to ``n`` configurations to evaluate next.

        Never over-commits the budget: at most ``budget - told - pending``
        suggestions are returned (an empty list once everything is issued).
        Restored in-flight suggestions are re-issued first, without consuming
        any randomness.
        """
        if n < 1:
            raise ValueError("ask() needs n >= 1")
        with self._lock:
            capacity = self.budget - len(self.history) - len(self._pending) - len(self._reissue)
            # re-issue restored in-flight suggestions first
            out: list[Suggestion] = []
            while self._reissue and len(out) < n:
                suggestion = self._reissue.popleft()
                self._pending[suggestion.id] = suggestion
                out.append(suggestion)
            need = min(n - len(out), max(0, capacity))
            if need > 0:
                pending_keys = {
                    self.tuner.space.freeze(s.configuration) for s in self._pending.values()
                }
                proposals = self.tuner._propose(need, pending_keys)
                if len(proposals) != need:
                    raise RuntimeError(
                        f"{type(self.tuner).__name__}._propose returned "
                        f"{len(proposals)} proposals instead of {need}"
                    )
                encoder = self.tuner.space.encoder
                for configuration, phase in proposals:
                    suggestion = Suggestion(
                        id=self._next_id,
                        configuration=dict(configuration),
                        phase=phase,
                        encoded_row=tuple(float(x) for x in encoder.encode(configuration)),
                    )
                    self._next_id += 1
                    self._pending[suggestion.id] = suggestion
                    out.append(suggestion)
            return out

    def tell(
        self,
        suggestion: "Suggestion | int",
        result: ObjectiveResult,
        elapsed: float = 0.0,
    ):
        """Record the observation for one previously asked suggestion.

        ``elapsed`` (seconds spent in the black box) is accumulated into
        ``history.evaluation_seconds``.  Tells may arrive in any order;
        deterministic replays require suggestion-id order (see :func:`drive`).
        Returns the appended :class:`~repro.core.result.Evaluation`.
        """
        suggestion_id = suggestion.id if isinstance(suggestion, Suggestion) else int(suggestion)
        with self._lock:
            issued = self._pending.pop(suggestion_id, None)
            if issued is None:
                raise KeyError(
                    f"suggestion id {suggestion_id} is unknown, already told, "
                    "or was never issued by ask()"
                )
            if not isinstance(result, ObjectiveResult):
                self._pending[suggestion_id] = issued  # reject without losing it
                raise TypeError("tell() expects an ObjectiveResult")
            evaluation = self.history.append(issued.configuration, result, phase=issued.phase)
            self.history.evaluation_seconds += max(0.0, float(elapsed))
            self.tuner._record_observation(issued.configuration, result)
            return evaluation

    # ------------------------------------------------------------------
    # checkpoint / resume
    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The complete session state as a JSON-serializable dict.

        Taken under the session lock, so a concurrent ``tell`` can never
        leave the snapshot with a history/RNG/pending combination that no
        serial execution would produce.
        """
        with self._lock:
            return {
                "version": SNAPSHOT_VERSION,
                "session": {
                    "budget": self.budget,
                    "benchmark_name": self.benchmark_name,
                    "next_suggestion_id": self._next_id,
                },
                "meta": dict(self.meta),
                "tuner": {
                    "name": self.tuner.name,
                    "class": type(self.tuner).__name__,
                    "seed": self.tuner.seed,
                },
                "rng": _rng_state_to_json(self.tuner._rng),
                "history": self.history.to_dict(),
                "pending": [s.to_dict() for s in self.pending],
                "tuner_state": self.tuner._state_dict(),
            }

    @classmethod
    def restore(cls, payload: Mapping[str, Any], tuner: "Tuner") -> "TuningSession":
        """Rebuild a live session from :meth:`snapshot` output.

        ``tuner`` must be a freshly constructed instance equivalent to the one
        that produced the snapshot (same class, space, and settings); its RNG
        state is overwritten with the snapshotted one, and every derived cache
        is reconstructed by replaying the history through the tuner's
        observation hook.  The payload may come from a client, so its
        counters, entries and RNG words are checked before anything is
        installed; a malformed field raises ``ValueError`` naming it.
        """
        version = payload.get("version")
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported session snapshot version: {version!r}")
        meta = payload["session"]
        snap_tuner = payload.get("tuner", {})
        if snap_tuner.get("name") != tuner.name:
            raise ValueError(
                f"snapshot was taken by tuner {snap_tuner.get('name')!r} but "
                f"restore() was given {tuner.name!r}"
            )
        _check_snapshot(payload, tuner.space)
        session = cls(
            tuner,
            meta["budget"],
            meta.get("benchmark_name", ""),
            _restoring=True,
        )
        session.meta = dict(payload.get("meta", {}))
        session.history = TuningHistory.from_dict(payload["history"])
        tuner._bind_session(session)
        tuner._reset_state(session.budget)
        for evaluation in session.history.evaluations:
            tuner._record_observation(
                evaluation.configuration,
                ObjectiveResult(value=evaluation.value, feasible=evaluation.feasible),
            )
        tuner._load_state_dict(payload.get("tuner_state", {}))
        tuner._post_restore()
        _rng_state_from_json(tuner._rng, payload["rng"])
        session._reissue = deque(
            Suggestion.from_dict(entry) for entry in payload.get("pending", ())
        )
        session._next_id = meta.get("next_suggestion_id", len(session.history))
        return session


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def drive(
    session: TuningSession,
    objective: ObjectiveFunction | None = None,
    *,
    batch_size: int = 1,
    evaluate_batch: Callable[[Sequence[Suggestion]], Sequence[tuple[ObjectiveResult, float]]] | None = None,
    after_tell: Callable[[TuningSession], None] | None = None,
) -> TuningHistory:
    """Run a session to completion and return its history.

    Exactly one of ``objective`` (evaluated inline, one configuration at a
    time) or ``evaluate_batch`` (receives a list of suggestions, returns
    ``(result, elapsed_seconds)`` pairs in the same order — typically backed
    by a process pool) must be provided.  Results are always told back in
    suggestion-id order, so a given ``batch_size`` yields a deterministic
    trace regardless of evaluation concurrency; ``batch_size=1`` reproduces
    the serial ``tune()`` trace bit for bit.

    ``after_tell`` runs after each batch has been told (checkpoint hooks).
    """
    if (objective is None) == (evaluate_batch is None):
        raise ValueError("provide exactly one of objective or evaluate_batch")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    while not session.done:
        suggestions = session.ask(batch_size)
        if not suggestions:
            raise RuntimeError(
                "session is not done but ask() returned nothing — "
                f"{len(session.pending)} suggestions are pending a tell()"
            )
        if evaluate_batch is not None:
            outcomes = list(evaluate_batch(suggestions))
            if len(outcomes) != len(suggestions):
                raise RuntimeError(
                    "evaluate_batch returned a mismatched number of results"
                )
        else:
            outcomes = []
            for suggestion in suggestions:
                start = time.perf_counter()
                result = objective(suggestion.configuration)
                outcomes.append((result, time.perf_counter() - start))
        told = sorted(zip(suggestions, outcomes), key=lambda pair: pair[0].id)
        for suggestion, (result, elapsed) in told:
            session.tell(suggestion, result, elapsed=elapsed)
        if after_tell is not None:
            after_tell(session)
    return session.history

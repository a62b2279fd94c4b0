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
(:meth:`repro.core.tuner.Tuner._propose`) plus one batch observation hook
(:meth:`repro.core.tuner.Tuner._observe`) that ``tell`` and restore share.
The hook receives the observed configurations with their encoded rows:
``tell`` passes the suggestion's ``encoded_row``, which ``ask`` encoded, so
no configuration is encoded twice.

Checkpoint / resume
-------------------

:meth:`TuningSession.snapshot` captures the complete session state as a
JSON-serializable dict: the RNG bit-generator state, the full history, any
suggestions issued but not yet told, and the tuner's private state (pending
DoE queue, bandit statistics, dedup sets).  :meth:`TuningSession.restore`
rebuilds a live session from such a payload and a *freshly constructed*
tuner in three steps: ``_reset_state``, one ``_observe`` call with the whole
history, which deterministically reconstructs every derived cache (encoded
rows, the incremental GP train-train distance tensor) without storing a
single float twice, and ``_load_state_dict``; then the RNG is restored
bit-exactly.  The history is checked one column at a time
(:class:`HistoryColumns`): the evaluation fields as columns and each
parameter's values as one column, and the rows that pass are the encoded
rows ``_observe`` receives, so a restore encodes nothing one value at a
time.  Only a history the column pass rejects is walked value by value,
which raises the error naming the first bad field.  A restored session
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

import itertools
import operator
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

import numpy as np

from ..space.encoding import ColumnBlock, ConfigEncoder
from ..space.parameters import (
    CategoricalParameter,
    IntegerParameter,
    OrdinalParameter,
    Parameter,
    PermutationParameter,
)
from . import schema
from .result import (
    PHASES,
    ObjectiveFunction,
    ObjectiveResult,
    TuningHistory,
    check_evaluations,
    configuration_from_json,
    configuration_to_json,
    history_declaration,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (tuner imports us)
    from .tuner import Tuner

__all__ = [
    "HistoryColumns",
    "Suggestion",
    "TuningSession",
    "configuration_declaration",
    "drive",
    "frozen_declaration",
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
        """Inverse of :meth:`to_dict` for a payload that matches its
        declaration in a snapshot's ``pending`` list."""
        return cls(
            id=payload["id"],
            configuration=configuration_from_json(payload["configuration"]),
            phase=payload["phase"],
            encoded_row=tuple(payload["encoded_row"]),
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


#: a PCG64 state word (``state``, ``inc``) is 128 bits wide
_RNG_WORD = schema.integer(0, 2**128 - 1)
_VERSION = schema.Leaf(
    f"snapshot version {SNAPSHOT_VERSION}", schema.one_of(SNAPSHOT_VERSION).accepts
)
_INTEGER = schema.integer()
_NUMBER = schema.number()
_SCALAR = schema.one_of(schema.string, _NUMBER)
_PERMUTATION = schema.Leaf(
    "a list of integers", lambda v: isinstance(v, list) and all(map(_INTEGER.accepts, v))
)


def _value_declaration(param: Parameter) -> schema.Leaf:
    """A value ``param`` contains, in its JSON type: a permutation is a list
    of integers, a categorical a string or number, any other a number."""
    json_type = (
        _PERMUTATION if isinstance(param, PermutationParameter)
        else _SCALAR if isinstance(param, CategoricalParameter)
        else _NUMBER
    )
    return schema.Leaf(
        "a legal value of the parameter",
        lambda value: json_type.accepts(value) and param.contains(value),
    )


def configuration_declaration(space: Any) -> dict[str, schema.Leaf]:
    """A configuration of ``space`` as JSON: exactly its parameters, each
    holding a legal value (:func:`~repro.core.result.configuration_to_json`)."""
    return {param.name: _value_declaration(param) for param in space.parameters}


#: an evaluation's fields, in the order of the history declaration
_FIELDS = ("index", "configuration", "value", "feasible", "phase")
_EVALUATION = operator.itemgetter(*_FIELDS)
_NUMBER_TYPES = {int, float}
_SCALAR_TYPES = {str, int, float}
_PHASES = set(PHASES)


def _floats(column: Sequence[Any]) -> np.ndarray | None:
    """``column`` as floats if it holds JSON numbers only (no ``bool``, no
    ``int`` beyond a float's range), else ``None``."""
    if not set(map(type, column)) <= _NUMBER_TYPES:
        return None
    try:
        return np.array(column, dtype=float)
    except OverflowError:
        return None


def _block_rows(encoder: ConfigEncoder, block: ColumnBlock, column: list) -> np.ndarray | None:
    """The ``(n, width)`` encodings of one parameter's value column, with the
    bits of ``encode_batch``, if every value passes its
    :func:`_value_declaration`; else ``None``."""
    param = block.parameter
    if block.kind == "permutation":  # lists of ints holding 0 .. width-1 once
        if set(map(type, column)) != {list} or set(map(len, column)) != {block.width}:
            return None
        if set(map(type, itertools.chain.from_iterable(column))) != {int}:
            return None
        try:
            matrix = np.array(column, dtype=np.int64)
        except OverflowError:
            return None
        if not (np.sort(matrix, axis=1) == np.arange(block.width)).all():
            return None
        return encoder.encode_value_column(param.name, matrix)
    if block.kind == "categorical":  # strings or numbers the table indexes
        types = set(map(type, column))
        if not types <= _SCALAR_TYPES:
            return None
        if int in types and _floats([v for v in column if type(v) is int]) is None:
            return None
        table = encoder.table(param.name)
        codes = list(map(table.index.get, column))
        return None if None in codes else table.encoded[codes]
    values = _floats(column)
    if values is None:
        return None
    if isinstance(param, OrdinalParameter):  # a value's float, as contains reads it
        table = encoder.table(param.name)
        codes = np.minimum(np.searchsorted(table.raw, values), len(table.raw) - 1)
        if not (table.raw[codes] == values).all():
            return None
        # a linear warp is the float itself, so -0.0 keeps its sign
        return table.encoded[codes] if param.transform == "log" else values[:, None]
    if isinstance(param, IntegerParameter):
        if not (np.floor(values) == values).all():  # NaN or a fraction
            return None
        # min and max compare ints and floats (±inf too) exactly, past 2**53
        if not param.low <= min(column) or not max(column) <= param.high:
            return None
    elif not ((values >= param.low) & (values <= param.high)).all():
        return None
    return encoder.encode_value_column(param.name, values)


class HistoryColumns:
    """The column pass over a history's evaluations in ``space``.

    :meth:`accepts` checks the ``evaluations`` array whole: the evaluation
    fields as columns (indices ``0 .. n-1``, booleans, JSON numbers finite
    when feasible, phases in :data:`~repro.core.result.PHASES`) and each
    parameter's values as one column, read through the encoder's value
    tables or by vectorised type and bound checks.  On JSON it accepts
    exactly what the evaluations' declaration and
    :func:`~repro.core.result.check_evaluations` accept, and keeps in
    :attr:`rows` the configurations' encoded rows, with the bits of
    ``encode_batch``.  Declared as a :class:`~repro.core.schema.columns`,
    it leaves a rejected history to the walk, whose error names the first
    bad field.
    """

    def __init__(self, space: Any) -> None:
        self.encoder: ConfigEncoder = space.encoder
        self.rows: np.ndarray | None = None

    def accepts(self, evaluations: list) -> bool:
        try:
            self.rows = self._rows(evaluations)
        except KeyError:  # an evaluation or configuration lacks a key
            self.rows = None
        return self.rows is not None

    def _rows(self, evaluations: list) -> np.ndarray | None:
        encoder = self.encoder
        if not evaluations:
            return np.empty((0, encoder.width))
        if set(map(type, evaluations)) != {dict} or set(map(len, evaluations)) != {len(_FIELDS)}:
            return None
        index, configurations, values, feasible, phases = zip(*map(_EVALUATION, evaluations))
        if set(map(type, index)) != {int} or index != tuple(range(len(index))):
            return None
        if set(map(type, feasible)) != {bool} or set(map(type, phases)) != {str}:
            return None
        values = _floats(values)
        if values is None or not set(phases) <= _PHASES:
            return None
        if not np.isfinite(values[np.array(feasible)]).all():
            return None
        if set(map(type, configurations)) != {dict}:
            return None
        if set(map(len, configurations)) != {len(encoder.blocks)}:
            return None
        rows = np.empty((len(configurations), encoder.width))
        for block in encoder.blocks:
            name = block.parameter.name
            encoded = _block_rows(encoder, block, [c[name] for c in configurations])
            if encoded is None:
                return None
            rows[:, block.columns] = encoded
        return rows


def frozen_declaration(space: Any) -> schema.Leaf:
    """A frozen configuration key of ``space`` as JSON
    (:func:`frozen_key_to_json`): one legal value per parameter, in order."""
    accepts = [_value_declaration(param).accepts for param in space.parameters]
    return schema.Leaf(
        "a legal frozen configuration",
        lambda value: isinstance(value, list)
        and len(value) == len(accepts)
        and all(legal(item) for legal, item in zip(accepts, value)),
    )


def _snapshot_declaration(tuner: "Tuner", columns: HistoryColumns) -> dict[str, Any]:
    """What :meth:`TuningSession.snapshot` writes for ``tuner``, its history
    checked by ``columns``; the tuner state is declared by the tuner and
    checked once the history is observed."""
    configuration = configuration_declaration(tuner.space)
    rng = tuner._rng.bit_generator.state
    return {
        "version": _VERSION,
        "session": {"budget": schema.integer(1), "benchmark_name": schema.string,
                    "next_suggestion_id": schema.integer(0)},
        "meta": {...: ...},
        "tuner": {"name": schema.string, "class": schema.string,
                  "seed": schema.nullable(_INTEGER)},
        "rng": {
            "bit_generator": schema.one_of(rng["bit_generator"]),
            "state": {word: _RNG_WORD for word in rng["state"]},
            "has_uint32": schema.integer(0, 1),
            "uinteger": schema.integer(0, 2**32 - 1),
        },
        "history": history_declaration(configuration, columns.accepts),
        "pending": [{"id": schema.integer(0), "configuration": configuration,
                     "phase": schema.one_of(*PHASES), "encoded_row": [_NUMBER]}],
        "tuner_state": ...,
    }


def _check_snapshot_rules(
    payload: Mapping[str, Any], tuner: "Tuner", evaluations_checked: bool
) -> None:
    """The cross-field rules of a declared snapshot: it is this tuner's, its
    history (unless ``evaluations_checked`` by the column pass) and pending
    suggestions fit the budget, pending ids ascend below
    ``session.next_suggestion_id``, and each pending ``encoded_row`` is its
    configuration's encoding, bit for bit."""
    snap_tuner, meta = payload["tuner"], payload["session"]
    if snap_tuner["name"] != tuner.name:
        raise ValueError(
            f"snapshot was taken by tuner {snap_tuner['name']!r} but "
            f"restore() was given {tuner.name!r}"
        )
    history, pending = payload["history"], payload["pending"]
    for path, value, expected in (
        ("tuner.class", snap_tuner["class"], type(tuner).__name__),
        ("tuner.seed", snap_tuner["seed"], tuner.seed),
        ("history.tuner", history["tuner"], tuner.name),
        ("history.benchmark", history["benchmark"], meta["benchmark_name"]),
        ("history.seed", history["seed"], tuner.seed),
    ):
        if value != expected:
            schema.fail(path, repr(expected), value)
    if not evaluations_checked:
        check_evaluations(history, "history")
    evaluations = history["evaluations"]
    if len(evaluations) + len(pending) > meta["budget"]:
        schema.fail(
            "session.budget",
            f"at least the {len(evaluations)} evaluations plus "
            f"{len(pending)} pending suggestions",
            meta["budget"],
        )
    next_id, previous = meta["next_suggestion_id"], -1
    encoder = tuner.space.encoder
    for i, entry in enumerate(pending):
        if not previous < entry["id"] < next_id:
            schema.fail(
                f"pending[{i}].id",
                f"above the previous pending id {previous} and below "
                f"session.next_suggestion_id {next_id}",
                entry["id"],
            )
        previous = entry["id"]
        # tell hands this row to the tuner, so it must have the bits
        row = encoder.encode(configuration_from_json(entry["configuration"]))
        if np.array(entry["encoded_row"], dtype=float).tobytes() != row.tobytes():
            schema.fail(
                f"pending[{i}].encoded_row", "the configuration's encoding",
                entry["encoded_row"],
            )


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
            row = np.array([issued.encoded_row], dtype=float)
            self.tuner._observe([issued.configuration], [result], row)
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
                "rng": self.tuner._rng.bit_generator.state,
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
        is reconstructed by one call of the tuner's observation hook with the
        whole history and the rows its column pass encoded.  The payload may
        come from a client, so it must be exactly what :meth:`snapshot`
        writes (``meta`` excepted, which is free-form): it is checked against
        its declaration before anything is installed, and the tuner state
        against the tuner's once the history is observed.  A malformed field
        raises ``ValueError`` naming it.
        """
        columns = HistoryColumns(tuner.space)
        schema.check(payload, _snapshot_declaration(tuner, columns))
        _check_snapshot_rules(payload, tuner, columns.rows is not None)
        meta = payload["session"]
        session = cls(tuner, meta["budget"], meta["benchmark_name"], _restoring=True)
        session.meta = dict(payload["meta"])
        session.history = TuningHistory.from_dict(payload["history"])
        tuner._bind_session(session)
        tuner._reset_state(session.budget)
        evaluations = session.history.evaluations
        configurations = [e.configuration for e in evaluations]
        rows = columns.rows
        if rows is None:  # the walk took values of types no JSON parse makes
            rows = tuner.space.encoder.encode_batch(configurations)
        tuner._observe(
            configurations,
            [ObjectiveResult(value=e.value, feasible=e.feasible) for e in evaluations],
            rows,
        )
        state = payload["tuner_state"]
        schema.check(state, tuner._state_declaration(session.budget), "tuner_state")
        tuner._load_state_dict(state)
        tuner._rng.bit_generator.state = payload["rng"]
        session._reissue = deque(Suggestion.from_dict(entry) for entry in payload["pending"])
        session._next_id = meta["next_suggestion_id"]
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

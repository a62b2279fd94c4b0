"""Multi-session tuning service: ask/tell over JSON lines.

:class:`SessionRegistry` dispatches a line-oriented JSON protocol over many
*named* :class:`repro.core.session.TuningSession` instances, so one
long-running server can drive concurrent tuning runs whose evaluations are
performed by slow external systems (a real compiler toolchain, a build farm,
a measurement harness).  Combined with ``snapshot`` / ``restore`` and the
``--sessions-dir`` autosave directory the service survives crashes and
restarts without losing — or changing — a single evaluation.

One request per line in, one JSON response per line out.  Requests carry an
``op`` field and an optional ``session`` name (default ``"default"``); any
other fields are op-specific.  Responses always carry ``ok`` (and ``error``
when ``ok`` is false — the service keeps serving after errors) and are
**strict JSON**: non-finite floats never appear as bare ``Infinity``/``NaN``
tokens.  Inside snapshot payloads they are wire-encoded as
``{"$float": "inf"}`` markers (see :func:`wire_encode`); scalar response
fields such as ``best_value`` are ``null`` until a feasible result exists.
Each op's fields are declared in :data:`REQUESTS` and checked by
:func:`repro.core.schema.check` before the op runs, so a bad field is an
error naming it: an integer field such as ``budget`` or ``id`` takes no
float, boolean, string or ``null``, and ``value`` takes a JSON number or
``"inf"``, ``"-inf"`` or ``"nan"``, the spellings of the non-finite floats
strict JSON has no number for.  Keys an op does not declare are ignored.

=========  ==============================================================
op         meaning
=========  ==============================================================
start      create a session: ``benchmark``, ``budget``, optional
           ``tuner``, ``seed``, ``fidelity``, ``session``.  Refuses to
           clobber an unfinished session of the same name unless
           ``"force": true``.
ask        propose configurations: optional ``n`` (default 1)
tell       report a result: ``id``, ``value``, optional ``feasible``
           (default true) and ``elapsed`` seconds.  Feasible results
           must carry a finite ``value``; ``elapsed`` must be finite
           and >= 0.
status     session progress: evaluations, best value, pending ids
snapshot   checkpoint: optional ``path`` writes a file, otherwise the
           (wire-encoded) payload is returned inline
restore    resume: exactly one of ``path`` (a checkpoint file) or an
           inline ``payload``
close      drop the session from the registry (autosaved first when a
           sessions directory is configured)
sessions   list active and autosaved sessions
shutdown   stop serving; autosaves every dirty session first (the
           response is still written)
=========  ==============================================================

Example exchange::

    {"op": "start", "session": "gpu", "benchmark": "hpvm_bfs", "tuner": "BaCO", "budget": 20, "seed": 0}
    {"op": "ask", "session": "gpu", "n": 2}
    {"op": "tell", "session": "gpu", "id": 0, "value": 3.4}
    {"op": "tell", "session": "gpu", "id": 1, "value": 7.1, "feasible": true}
    {"op": "snapshot", "session": "gpu", "path": "results/session.ckpt.json"}
    {"op": "shutdown"}

The registry holds at most ``max_sessions`` sessions in memory; the least
recently used one is evicted when a new session would exceed the cap,
atomically autosaved to ``sessions_dir`` (``save_session``'s temp-file +
rename), and transparently reloaded on the next request that names it.
Without a sessions directory the registry refuses to evict (evicting would
silently lose a run) and reports itself full instead.

Framing is pluggable: :func:`serve` runs the degenerate single-connection
case on stdin/stdout, and :class:`repro.server.TuningServer` lifts the same
registry onto a threaded TCP socket with one lock per session, so requests
for different sessions proceed concurrently while requests for the same
session serialize.
"""

from __future__ import annotations

import json
import math
import re
import threading
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, IO, Iterator, Mapping

from .core import schema
from .core.result import ObjectiveResult
from .core.session import TuningSession
from .experiments.config import FIDELITIES

__all__ = [
    "DEFAULT_SESSION",
    "MAX_LINE_BYTES",
    "REQUESTS",
    "SessionRegistry",
    "json_safe",
    "serve",
    "wire_decode",
    "wire_encode",
]

DEFAULT_SESSION = "default"
#: refuse absurd frames before json.loads ever sees them
MAX_LINE_BYTES = 1 << 20
#: autosave file name per session inside ``sessions_dir``
_AUTOSAVE_SUFFIX = ".ckpt.json"
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,99}$")


# ---------------------------------------------------------------------------
# strict-JSON helpers
# ---------------------------------------------------------------------------

def json_safe(value: Any) -> Any:
    """Scalar response fields: non-finite floats become ``None``.

    JSON has no ``Infinity``/``NaN`` tokens; ``history.best_value()`` is
    ``inf`` until the first feasible result, which clients see as ``null``.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def wire_encode(obj: Any) -> Any:
    """Recursively replace non-finite floats with ``{"$float": repr}`` markers.

    Snapshot payloads legitimately contain ``inf`` (infeasible evaluations
    record ``value: inf``); this keeps responses strict JSON while letting
    ``restore`` round-trip the exact floats via :func:`wire_decode`.
    """
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else {"$float": repr(obj)}
    if isinstance(obj, Mapping):
        return {str(k): wire_encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [wire_encode(v) for v in obj]
    return obj


def wire_decode(obj: Any) -> Any:
    """Inverse of :func:`wire_encode`."""
    if isinstance(obj, Mapping):
        if set(obj) == {"$float"}:
            return float(obj["$float"])
        return {k: wire_decode(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [wire_decode(v) for v in obj]
    return obj


def _reject_constant(token: str) -> float:
    raise ValueError(f"non-finite number {token} is not valid strict JSON")


_SESSION_NAME = schema.Leaf(
    "a name matching [A-Za-z0-9][A-Za-z0-9._-]* (at most 100 characters)",
    lambda value: schema.string.accepts(value) and _NAME_RE.match(value) is not None,
)
_PATH = schema.Leaf("a file path", lambda value: schema.string.accepts(value) and value != "")
#: a session op's fields; a request's other keys are ignored
_SESSION_OP = {"session?": _SESSION_NAME, ...: ...}
#: each op's request fields (:mod:`repro.core.schema`), checked before it runs
REQUESTS: dict[str, dict[Any, Any]] = {
    "start": {
        **_SESSION_OP, "benchmark": schema.string, "tuner?": schema.string,
        "budget": schema.integer(1), "seed?": schema.integer(),
        "fidelity?": schema.one_of(*FIDELITIES),
        "surrogate_policy?": schema.nullable(schema.string), "force?": schema.boolean,
    },
    "ask": {**_SESSION_OP, "n?": schema.integer(1)},
    "tell": {
        **_SESSION_OP, "id": schema.integer(0), "feasible?": schema.boolean,
        # strict JSON has no non-finite numbers, so clients spell them as
        # strings (``repr`` of the float; ``TuningClient.tell`` does so)
        "value?": schema.one_of(schema.number(), "inf", "-inf", "nan"),
        "elapsed?": schema.number(at_least=0),
    },
    "status": _SESSION_OP,
    "snapshot": {**_SESSION_OP, "path?": schema.nullable(_PATH)},
    "restore": {**_SESSION_OP, "path?": _PATH, "payload?": {...: ...}, "force?": schema.boolean},
    "close": _SESSION_OP,
    "sessions": {...: ...},
    "shutdown": {...: ...},
}


class _ManagedSession:
    """A named session plus its lock and autosave dirty flag."""

    __slots__ = ("name", "session", "lock", "dirty")

    def __init__(self, name: str, session: TuningSession) -> None:
        self.name = name
        self.session = session
        # the session's own re-entrant lock doubles as the per-name op lock,
        # so direct TuningSession users and the registry serialize together
        self.lock = session._lock
        self.dirty = True


class SessionRegistry:
    """Stateful dispatcher behind the JSON-lines tuning service.

    Thread-safe: a registry lock guards the name -> session map and the LRU
    order, and each session carries its own re-entrant lock held for the
    duration of any op that touches it.  Lock order is always registry lock
    first, session lock second — never the reverse — so concurrent clients
    cannot deadlock.
    """

    def __init__(
        self,
        sessions_dir: Path | str | None = None,
        max_sessions: int = 8,
    ) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be at least 1")
        self.sessions_dir = Path(sessions_dir) if sessions_dir is not None else None
        if self.sessions_dir is not None:
            self.sessions_dir.mkdir(parents=True, exist_ok=True)
        self.max_sessions = int(max_sessions)
        self._sessions: "OrderedDict[str, _ManagedSession]" = OrderedDict()
        self._lock = threading.RLock()
        self._handlers: dict[str, Callable[[Mapping[str, Any]], dict[str, Any]]] = {
            "start": self._op_start,
            "ask": self._op_ask,
            "tell": self._op_tell,
            "status": self._op_status,
            "snapshot": self._op_snapshot,
            "restore": self._op_restore,
            "close": self._op_close,
            "sessions": self._op_sessions,
            "shutdown": self._op_shutdown,
        }
        self.running = True

    # ------------------------------------------------------------------
    # wire layer
    # ------------------------------------------------------------------

    def handle_line(self, line: str) -> str:
        """One request line in, one strict-JSON response line out (never raises)."""
        try:
            if len(line) > MAX_LINE_BYTES:
                raise ValueError(
                    f"request line exceeds {MAX_LINE_BYTES} bytes"
                )
            request = json.loads(line, parse_constant=_reject_constant)
            if not isinstance(request, Mapping):
                raise ValueError("request must be a JSON object")
        except (json.JSONDecodeError, ValueError, RecursionError) as exc:
            return self._dump({"ok": False, "error": f"bad request: {exc}"})
        return self._dump(self.handle(request))

    def _dump(self, response: Mapping[str, Any]) -> str:
        try:
            return json.dumps(wire_encode(response), allow_nan=False)
        except Exception as exc:  # noqa: BLE001 - the last line of defence
            return json.dumps(
                {
                    "ok": False,
                    "error": f"unserializable response: {type(exc).__name__}: {exc}",
                },
                allow_nan=False,
            )

    def handle(self, request: Mapping[str, Any]) -> dict[str, Any]:
        """Dispatch one request dict to its op handler (never raises)."""
        op = request.get("op")
        # a non-string op (e.g. {"op": ["ask"]}) is unhashable: validate
        # before the dict lookup instead of letting a TypeError escape
        if not isinstance(op, str):
            return {
                "ok": False,
                "error": f"'op' must be a string, got {schema.short(op)}; "
                         f"available: {sorted(self._handlers)}",
            }
        handler = self._handlers.get(op)
        if handler is None:
            return {
                "ok": False,
                "error": f"unknown op {schema.short(op)}; available: {sorted(self._handlers)}",
            }
        try:
            schema.check(request, REQUESTS[op])
            return {"ok": True, "op": op, **handler(request)}
        except Exception as exc:  # noqa: BLE001 - the service must keep serving
            return {"ok": False, "op": op, "error": f"{type(exc).__name__}: {exc}"}

    # ------------------------------------------------------------------
    # session bookkeeping
    # ------------------------------------------------------------------

    @staticmethod
    def _session_name(request: Mapping[str, Any]) -> str:
        return request.get("session", DEFAULT_SESSION)

    def _autosave_path(self, name: str) -> Path | None:
        if self.sessions_dir is None:
            return None
        return self.sessions_dir / f"{name}{_AUTOSAVE_SUFFIX}"

    def _get_entry(self, name: str) -> _ManagedSession:
        """An active session by name, transparently reloading an autosaved one."""
        with self._lock:
            entry = self._sessions.get(name)
            if entry is not None:
                self._sessions.move_to_end(name)
                return entry
        path = self._autosave_path(name)
        if path is None or not path.exists():
            raise KeyError(
                f"unknown session {name!r} — send a start or restore request"
            )
        from .experiments.runner import load_session

        session, _ = load_session(path)
        return self._admit(name, session, dirty=False)

    @contextmanager
    def _locked_entry(self, name: str) -> "Iterator[_ManagedSession]":
        """Look up a session and hold its lock, closing the eviction race.

        Between :meth:`_get_entry` returning and the caller acquiring the
        session lock, LRU eviction (which grabs free session locks
        non-blockingly) could autosave-and-drop the entry, leaving the op to
        mutate an orphan whose state is never persisted.  Re-validating the
        registry entry *after* acquiring the lock closes that window: an
        evicted entry is released and transparently reloaded.  Taking the
        registry lock while holding a session lock cannot deadlock because
        no code path ever blocks on a session lock while holding the
        registry lock.
        """
        while True:
            entry = self._get_entry(name)
            entry.lock.acquire()
            # repro: allow[lock-discipline] documented-safe inversion: nothing ever blocks on a session lock while holding the registry lock (see docstring)
            with self._lock:
                if self._sessions.get(name) is entry:
                    break
            entry.lock.release()  # evicted in the window; reload and retry
        try:
            yield entry
        finally:
            entry.lock.release()

    def _admit(
        self,
        name: str,
        session: TuningSession,
        dirty: bool = True,
        guard_conflict: bool = False,
    ) -> _ManagedSession:
        """Insert (or replace) a session and evict over-capacity LRU entries.

        ``guard_conflict`` re-runs the start/restore conflict check *inside*
        the registry lock: two concurrent non-force starts of the same name
        can both pass the advisory pre-check, and without this guard the
        second would silently discard the first's freshly admitted run.
        """
        with self._lock:
            existing = self._sessions.get(name)
            if existing is not None and not dirty:
                # lost a concurrent reload race; keep the live entry
                self._sessions.move_to_end(name)
                return existing
            if guard_conflict and existing is not None:
                conflict = self._conflict_of_entry(name, existing)
                if conflict is not None:
                    raise RuntimeError(
                        f"{conflict} — pass \"force\": true to discard it"
                    )
            if (
                existing is None
                and self.sessions_dir is None
                and len(self._sessions) >= self.max_sessions
            ):
                raise RuntimeError(
                    f"session registry is full ({self.max_sessions} active); "
                    "close a session or run with --sessions-dir to enable "
                    "LRU eviction"
                )
            entry = _ManagedSession(name, session)
            entry.dirty = dirty
            self._sessions[name] = entry
            self._sessions.move_to_end(name)
            self._evict_lru_locked(protect=name)
            return entry

    def _conflict_of_entry(self, name: str, entry: _ManagedSession) -> str | None:
        """Why replacing an in-memory entry would discard work (None: safe).

        Safe with or without the registry lock held: the entry's session
        lock is only tried non-blockingly, so this never creates a
        registry-then-session blocking wait.
        """
        if not entry.lock.acquire(blocking=False):
            return f"session {name!r} is busy with another request"
        try:
            session = entry.session
            if session.pending:
                return (
                    f"session {name!r} has {len(session.pending)} in-flight "
                    "suggestion(s)"
                )
            if not session.done:
                return (
                    f"session {name!r} is active at {len(session.history)}"
                    f"/{session.budget} evaluations"
                )
            return None  # finished run: replacing it loses nothing
        finally:
            entry.lock.release()

    def _evict_lru_locked(self, protect: str) -> None:
        """Autosave-and-drop least-recently-used sessions beyond the cap.

        Runs with the registry lock held.  Busy sessions (op in flight) are
        skipped rather than waited on; the registry briefly overshoots its
        cap and retries at the next admission.

        The checkpoint write deliberately happens under the registry lock:
        releasing it between pop and save would open a window where a
        concurrent request for the victim reloads a *stale* checkpoint.
        Checkpoints are small (KBs of JSON) and evictions only fire on
        admissions past the cap, so the stall is bounded and rare; ops on
        other sessions that are already past `_locked_entry` proceed
        unaffected.
        """
        # repro: allow[lock-discipline] _locked suffix contract: every caller already holds the registry lock
        while len(self._sessions) > self.max_sessions:
            victim = None
            for name, entry in self._sessions.items():  # front == LRU
                if name != protect and entry.lock.acquire(blocking=False):
                    victim = entry
                    break
            if victim is None:
                break
            try:
                self._save_entry(victim)
                del self._sessions[victim.name]
            finally:
                victim.lock.release()

    def _save_entry(self, entry: _ManagedSession) -> Path | None:
        """Autosave one session (caller holds its lock).  Returns the path."""
        path = self._autosave_path(entry.name)
        if path is None:
            return None
        from .experiments.runner import save_session

        written = save_session(entry.session, path)
        entry.dirty = False
        return written

    def autosave_all(self) -> list[str]:
        """Autosave every dirty session; returns the written paths."""
        if self.sessions_dir is None:
            return []
        with self._lock:
            entries = list(self._sessions.values())
        written = []
        for entry in entries:
            with entry.lock:
                if entry.dirty:
                    path = self._save_entry(entry)
                    if path is not None:
                        written.append(str(path))
        return written

    # ------------------------------------------------------------------
    # op handlers
    # ------------------------------------------------------------------

    def _start_conflict(self, name: str) -> str | None:
        """Why starting ``name`` would discard work (None when safe).

        Advisory fast-fail before the expensive session construction; the
        authoritative in-memory check is repeated atomically inside
        :meth:`_admit` (``guard_conflict=True``).
        """
        with self._lock:
            entry = self._sessions.get(name)
        if entry is not None:
            return self._conflict_of_entry(name, entry)
        path = self._autosave_path(name)
        if path is not None and path.exists():
            return f"session {name!r} has an autosaved checkpoint at {path}"
        return None

    def _op_start(self, request: Mapping[str, Any]) -> dict[str, Any]:
        from .experiments.runner import make_session

        name = self._session_name(request)
        force = request.get("force", False)
        conflict = self._start_conflict(name)
        if conflict is not None and not force:
            raise RuntimeError(
                f"{conflict} — pass \"force\": true to discard it"
            )
        session, benchmark = make_session(
            request["benchmark"],
            request.get("tuner", "BaCO"),
            request["budget"],
            request.get("seed", 0),
            fidelity=request.get("fidelity", "fast"),
            surrogate_policy=request.get("surrogate_policy"),
        )
        if force:
            path = self._autosave_path(name)
            if path is not None:
                path.unlink(missing_ok=True)  # the discarded run must not resurrect
        self._admit(name, session, guard_conflict=not force)
        return {
            "session": name,
            "benchmark": benchmark.name,
            "tuner": session.tuner.name,
            "budget": session.budget,
            "seed": session.tuner.seed,
            "dimension": benchmark.space.dimension,
        }

    def _op_ask(self, request: Mapping[str, Any]) -> dict[str, Any]:
        name = self._session_name(request)
        n = request.get("n", 1)
        with self._locked_entry(name) as entry:
            suggestions = entry.session.ask(n)
            done = entry.session.done
            if suggestions:
                entry.dirty = True
        return {
            "session": name,
            "suggestions": [s.to_dict() for s in suggestions],
            "done": done,
        }

    def _op_tell(self, request: Mapping[str, Any]) -> dict[str, Any]:
        name = self._session_name(request)
        feasible = request.get("feasible", True)
        if "value" not in request and feasible:
            raise ValueError("tell needs a 'value' (or 'feasible': false)")
        value = float(request.get("value", math.inf))
        # json.loads happily produces inf/nan (1e999 overflows even in strict
        # mode); a non-finite feasible value would poison best_value and the
        # GP fit, so reject it here with a clear error
        if feasible and not math.isfinite(value):
            raise ValueError(
                f"feasible results need a finite 'value', got {value!r} — "
                "report failed measurements with \"feasible\": false"
            )
        elapsed = request.get("elapsed", 0.0)
        suggestion_id = request["id"]
        with self._locked_entry(name) as entry:
            evaluation = entry.session.tell(
                suggestion_id,
                ObjectiveResult(value=value, feasible=feasible),
                elapsed=elapsed,
            )
            best = entry.session.history.best_value()
            done = entry.session.done
            entry.dirty = True
        return {
            "session": name,
            "index": evaluation.index,
            "best_value": json_safe(best),
            "done": done,
        }

    def _op_status(self, request: Mapping[str, Any]) -> dict[str, Any]:
        name = self._session_name(request)
        with self._locked_entry(name) as entry:
            session = entry.session
            return {
                "session": name,
                "benchmark": session.benchmark_name,
                "tuner": session.tuner.name,
                "budget": session.budget,
                "evaluations": len(session.history),
                "remaining": session.remaining,
                "pending_ids": [s.id for s in session.pending],
                "best_value": json_safe(session.history.best_value()),
                "done": session.done,
                "timings": session.phase_timings,
            }

    def _op_snapshot(self, request: Mapping[str, Any]) -> dict[str, Any]:
        name = self._session_name(request)
        path = request.get("path")
        with self._locked_entry(name) as entry:
            if path is None:
                return {"session": name, "snapshot": entry.session.snapshot()}
            from .experiments.runner import save_session

            written = save_session(entry.session, Path(path))
            # only a write to the registry's own autosave file makes the
            # entry clean — a caller-supplied path must not disable the
            # shutdown/eviction autosave that kill/resume depends on
            if written == self._autosave_path(name):
                entry.dirty = False
        return {"session": name, "path": str(written)}

    def _op_restore(self, request: Mapping[str, Any]) -> dict[str, Any]:
        name = self._session_name(request)
        force = request.get("force", False)
        conflict = self._start_conflict(name)
        if conflict is not None and not force:
            raise RuntimeError(
                f"{conflict} — pass \"force\": true to discard it"
            )
        if ("path" in request) == ("payload" in request):
            raise ValueError("restore needs exactly one of 'path' or 'payload'")
        from .experiments.runner import load_session, restore_session

        if "path" in request:
            session, benchmark = load_session(request["path"])
        else:
            session, benchmark = restore_session(wire_decode(request["payload"]))
        self._admit(name, session, guard_conflict=not force)
        return {
            "session": name,
            "benchmark": benchmark.name,
            "tuner": session.tuner.name,
            "evaluations": len(session.history),
            "remaining": session.remaining,
            "pending_ids": [s.id for s in session.pending],
        }

    def _op_close(self, request: Mapping[str, Any]) -> dict[str, Any]:
        name = self._session_name(request)
        with self._lock:
            in_memory = name in self._sessions
        if not in_memory:
            # already only on disk: answer without the expensive reload (and
            # without the reload's _admit evicting an unrelated live session)
            path = self._autosave_path(name)
            if path is not None and path.exists():
                return {"session": name, "saved": str(path)}
            raise KeyError(
                f"unknown session {name!r} — send a start or restore request"
            )
        # save *before* unlinking: a concurrent op blocked on the session
        # lock re-validates in _locked_entry, misses the map, and reloads the
        # checkpoint written here — never a stale one
        with self._locked_entry(name) as entry:
            if entry.dirty:
                saved = self._save_entry(entry)
            else:
                # only report a checkpoint that actually exists on disk
                saved = self._autosave_path(name)
                if saved is not None and not saved.exists():
                    saved = None
            # repro: allow[lock-discipline] same documented-safe inversion as _locked_entry: the registry lock is never held while blocking on a session lock
            with self._lock:
                if self._sessions.get(name) is entry:
                    del self._sessions[name]
        return {"session": name, "saved": None if saved is None else str(saved)}

    def _op_sessions(self, request: Mapping[str, Any]) -> dict[str, Any]:
        with self._lock:
            entries = list(self._sessions.items())
        active = []
        for name, entry in entries:
            with entry.lock:
                session = entry.session
                active.append(
                    {
                        "session": name,
                        "benchmark": session.benchmark_name,
                        "tuner": session.tuner.name,
                        "evaluations": len(session.history),
                        "budget": session.budget,
                        "pending": len(session.pending),
                        "best_value": json_safe(session.history.best_value()),
                        "done": session.done,
                    }
                )
        autosaved = []
        if self.sessions_dir is not None:
            in_memory = {name for name, _ in entries}
            autosaved = sorted(
                p.name[: -len(_AUTOSAVE_SUFFIX)]
                for p in self.sessions_dir.glob(f"*{_AUTOSAVE_SUFFIX}")
                if p.name[: -len(_AUTOSAVE_SUFFIX)] not in in_memory
            )
        return {"active": active, "autosaved": autosaved}

    def _op_shutdown(self, request: Mapping[str, Any]) -> dict[str, Any]:
        saved = self.autosave_all()
        self.running = False
        return {"stopping": True, "saved": saved}


def serve(
    stdin: IO[str],
    stdout: IO[str],
    registry: SessionRegistry | None = None,
) -> int:
    """Run the JSON-lines loop until shutdown or EOF.  Returns an exit code.

    The stdin/stdout transport is the degenerate single-connection case of
    :class:`repro.server.TuningServer`; both speak the same protocol over the
    same registry.
    """
    service = registry if registry is not None else SessionRegistry()
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        stdout.write(service.handle_line(line) + "\n")
        stdout.flush()
        if not service.running:
            break
    service.autosave_all()
    return 0

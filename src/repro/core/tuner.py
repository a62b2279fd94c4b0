"""Common interface shared by BaCO and all baseline autotuners.

Tuners are *proposal state machines* driven through an ask/tell
:class:`~repro.core.session.TuningSession`:

* :meth:`Tuner._begin` resets internal state and plans any up-front design
  (the DoE queue), consuming randomness exactly as the historical push-driven
  ``_run`` loops did;
* :meth:`Tuner._propose` emits the next ``k`` configurations to evaluate;
* :meth:`Tuner._observe` updates per-observation caches from a batch of
  results and their encoded rows: ``tell`` passes its one observation, a
  restore the whole history;
* :meth:`Tuner._state_dict` / :meth:`Tuner._load_state_dict` round-trip the
  tuner-private state (queues, bandits, dedup sets) through JSON for
  checkpoint / resume, and :meth:`Tuner._state_declaration` declares it
  (:mod:`repro.core.schema`), so a restore accepts exactly what a snapshot
  writes.  A restore is three steps: :meth:`Tuner._reset_state`, one
  :meth:`Tuner._observe` of the history, :meth:`Tuner._load_state_dict`.

:meth:`Tuner.tune` remains the convenience entry point used throughout the
experiment harness — it runs the session API's one serial driver,
:func:`~repro.core.session.drive`, and produces bit-identical traces to the
pre-inversion loops.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from collections import deque
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from ..space.space import Configuration, SearchSpace
from .profiling import PhaseProfiler
from .result import (
    ObjectiveFunction,
    ObjectiveResult,
    TuningHistory,
    configuration_from_json,
    configuration_to_json,
)
from .session import configuration_declaration

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .session import TuningSession

__all__ = ["Tuner"]


class Tuner(ABC):
    """Base class: a tuner proposes configurations and records evaluations.

    Subclasses implement :meth:`_propose` (and usually :meth:`_plan` /
    :meth:`_observe`); the base class keeps the bookkeeping (history,
    de-duplication, timing) uniform so that the wall-clock comparison of
    Table 10 treats every tuner identically.
    """

    name = "tuner"

    def __init__(self, space: SearchSpace, seed: int | None = None) -> None:
        self.space = space
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._history: TuningHistory | None = None
        self._evaluated_keys: set[tuple] = set()
        self._doe_queue: deque[Configuration] = deque()
        #: wall-clock per recommendation-loop phase (profiling.PHASES); pure
        #: observation, never consulted by the tuner itself
        self.phase_profiler = PhaseProfiler()

    # ------------------------------------------------------------------
    # the ask/tell session surface
    # ------------------------------------------------------------------

    def start_session(self, budget: int, benchmark_name: str = "") -> "TuningSession":
        """Begin a fresh ask/tell session with ``budget`` evaluations."""
        from .session import TuningSession

        return TuningSession(self, budget, benchmark_name=benchmark_name)

    def tune(
        self,
        objective: ObjectiveFunction,
        budget: int,
        benchmark_name: str = "",
    ) -> TuningHistory:
        """Run the tuner for ``budget`` black-box evaluations.

        :func:`~repro.core.session.drive` over :meth:`start_session`, one
        suggestion at a time; the produced trace is bit-identical to the
        historical push-driven loop.
        """
        from .session import drive

        session = self.start_session(budget, benchmark_name=benchmark_name)
        start = time.perf_counter()
        history = drive(session, objective)
        history.tuner_seconds = max(
            0.0, time.perf_counter() - start - history.evaluation_seconds
        )
        return history

    def _bind_session(self, session: "TuningSession") -> None:
        """Attach the session's history so ``self.history`` works mid-run.

        Only the history is kept: a back-reference to the session would make
        session ↔ tuner a reference cycle, freed only by the cyclic GC.
        """
        self._history = session.history

    # ------------------------------------------------------------------
    # state machine hooks (overridden by subclasses)
    # ------------------------------------------------------------------

    def _begin(self, budget: int) -> None:
        """Reset state and plan the run (may consume randomness)."""
        self._reset_state(budget)
        self._plan(budget)

    def _reset_state(self, budget: int) -> None:
        """Clear all per-session state.  Must not consume randomness — the
        checkpoint-restore path calls this before observing the history."""
        self._evaluated_keys = set()
        self._doe_queue = deque()
        self.phase_profiler.reset()

    def _plan(self, budget: int) -> None:
        """Draw any up-front design (DoE).  Only called for fresh sessions."""

    @abstractmethod
    def _propose(self, k: int, pending_keys: set[tuple]) -> list[tuple[Configuration, str]]:
        """Return exactly ``k`` ``(configuration, phase)`` proposals.

        ``pending_keys`` holds the frozen keys of suggestions issued but not
        yet told, so batch proposals can avoid duplicating in-flight work.
        """

    def _observe(
        self,
        configurations: Sequence[Configuration],
        results: Sequence[ObjectiveResult],
        rows: np.ndarray,
    ) -> None:
        """Hook called once the history ends with these observations.

        ``tell`` passes its one observation; a restore passes the whole
        history at once.  ``rows`` is the ``(len(configurations), width)``
        float matrix of their encodings in the space's encoder, with the
        bits of ``encode_batch``: ``tell`` passes the suggestion's
        ``encoded_row`` and a restore the rows its column pass built, so a
        subclass need not encode them again.  Subclasses extend this
        (calling ``super()``, which records the frozen keys) to keep
        per-observation caches (encoded feature rows, incremental distance
        tensors, ...) in step with the history instead of re-deriving them
        every iteration, so it must depend only on the observations and the
        history — never on randomness — and give the same caches for any
        split of a history into batches.
        """
        self._evaluated_keys.update(self.space.freeze(c) for c in configurations)

    # ------------------------------------------------------------------
    # checkpoint / resume state
    # ------------------------------------------------------------------

    def _state_dict(self) -> dict[str, Any]:
        """Tuner-private state for session snapshots (JSON-serializable)."""
        return {"doe_queue": [configuration_to_json(c) for c in self._doe_queue]}

    def _state_declaration(self, budget: int) -> dict[str, Any]:
        """What :meth:`_state_dict` can write for the observed history of a
        ``budget``-evaluation session (:mod:`repro.core.schema`); restore
        checks it before :meth:`_load_state_dict` runs.  Subclasses extend it
        as they extend :meth:`_state_dict`."""
        return {"doe_queue": [configuration_declaration(self.space)]}

    def _load_state_dict(self, payload: Mapping[str, Any]) -> None:
        """Restore the state produced by :meth:`_state_dict`; ``payload``
        matches :meth:`_state_declaration`, so only cross-field rules are
        left to check.  The history is observed by then, so subclasses also
        rebuild here the caches that depend on both (e.g. a Cholesky factor
        over the observed rows with snapshotted hyper-parameters).  Must not
        consume randomness."""
        self._doe_queue = deque(configuration_from_json(entry) for entry in payload["doe_queue"])

    # ------------------------------------------------------------------
    # history access
    # ------------------------------------------------------------------

    @property
    def history(self) -> TuningHistory:
        if self._history is None:
            raise RuntimeError(
                "no active tuning session — call tune() or start_session() first"
            )
        return self._history

"""Per-phase wall-clock profiling of the tuner's recommendation loop.

The BaCO loop spends its time between black-box evaluations in seven places:
drawing feasible candidates (**sample**), refitting the feasibility forest
(**feas_fit**), fitting the surrogate (**fit**), GP/RF posterior prediction
(**predict**), the EI / feasibility-weighting arithmetic (**ei**) with the
forest's feasibility probability (**feas_predict**), and the multistart local
search bookkeeping around them (**climb**).  :class:`PhaseProfiler` attributes
wall-clock to those phases with *exclusive* (self-time) accounting: entering
a nested phase pauses the enclosing one, so the per-phase seconds always sum
to the total time spent inside any phase — a predict issued from inside the
climb counts as ``predict``, not twice.

The profiler is pure observation: it never touches RNG streams or model
arithmetic, so enabling it cannot perturb a trajectory.  Every
:class:`~repro.core.tuner.Tuner` carries one as ``phase_profiler``; the
service ``status`` op reads the summary.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = ["PHASES", "PhaseProfiler"]

#: canonical phase names, in loop order (summaries always list all seven)
PHASES = ("sample", "feas_fit", "fit", "predict", "ei", "feas_predict", "climb")


class PhaseProfiler:
    """Exclusive wall-clock accounting over named phases.

    ``phase(name)`` is a re-entrant context manager; nesting pauses the outer
    phase's clock (see module docstring).  ``seconds`` / ``calls`` accumulate
    until :meth:`reset`.
    """

    __slots__ = ("seconds", "calls", "_stack")

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        #: [name, clock-resumed-at] frames of currently open phases
        self._stack: list[list[Any]] = []

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        now = time.perf_counter()
        if self._stack:
            outer = self._stack[-1]
            self.seconds[outer[0]] = self.seconds.get(outer[0], 0.0) + (now - outer[1])
        frame = [name, now]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.seconds[name] = self.seconds.get(name, 0.0) + (end - frame[1])
            self.calls[name] = self.calls.get(name, 0) + 1
            if self._stack:
                self._stack[-1][1] = end

    def reset(self) -> None:
        self.seconds = {}
        self.calls = {}
        self._stack = []

    def summary(self) -> dict[str, Any]:
        """JSON-ready phase breakdown: seconds and call counts per phase.

        Always contains every canonical phase (zero-filled), plus any
        ad-hoc phases that were recorded, so downstream schema checks can
        rely on the key set.
        """
        names = list(PHASES) + sorted(set(self.seconds) - set(PHASES))
        return {
            "seconds": {n: float(self.seconds.get(n, 0.0)) for n in names},
            "calls": {n: int(self.calls.get(n, 0)) for n in names},
        }

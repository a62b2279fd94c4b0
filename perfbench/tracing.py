"""Span recorder for the traced benchmark runs.

A traced run installs wrappers around the public functions of each layer
(GP, feasibility forest, search space, acquisition, local search, session,
service, storage, client) and records one span per call: the layer name,
the wrapped function, start and end (``time.perf_counter``, which is
``CLOCK_MONOTONIC`` on Linux and so comparable across the client and server
processes), the parent span on the same thread, and the id of the request
(ask/tell pair or server op) that caused it.

Wrappers only observe: they call the original with the original arguments
and return its result untouched, so a traced run proposes exactly what an
untraced one does.  Every wrapper is removed again by :func:`installed`.

A layer's *self time* is its spans' duration minus the time covered by their
direct child spans; self times of all spans add up to the duration of the
root spans, and the rest of a timed window is reported as ``other``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "PATCHES",
    "Span",
    "SpanRecorder",
    "installed",
    "layer_totals",
    "roots_in_window",
    "wrapper_cost_s",
]

Counter = Callable[[tuple, Any], Mapping[str, float]]


def _rows(key: str) -> Counter:
    """Count the rows of the first positional argument after ``self``."""
    return lambda args, result: {key: len(args[1])}


def _neighbour_rows(args: tuple, result: Any) -> Mapping[str, float]:
    return {"space.neighbour_rows": len(result[0])}


def _saved_bytes(args: tuple, result: Any) -> Mapping[str, float]:
    return {"store.save_bytes": result.stat().st_size}


def _service_errors(args: tuple, result: Any) -> Mapping[str, float]:
    # SessionRegistry serializes the response dict with ``ok`` first
    return {"service.errors": 1 if result.startswith('{"ok": false') else 0}


#: (module, attribute path, layer, counter).  Counters run only for the
#: outermost span of a layer, so a wrapper nested in another of its own layer
#: (``RandomForestClassifier.fit`` inside ``FeasibilityModel.fit_rows``)
#: never counts the same rows twice.
PATCHES: tuple[tuple[str, str, str, Counter | None], ...] = (
    ("repro.models.gp", "GaussianProcess.fit_rows", "gp.fit", None),
    ("repro.models.gp", "GaussianProcess.extend_cholesky", "gp.extend", None),
    ("repro.models.gp", "GaussianProcess.refit_targets", "gp.extend", None),
    ("repro.models.gp", "GaussianProcess.predict_rows", "gp.predict", _rows("gp.predict_rows")),
    ("repro.core.feasibility", "FeasibilityModel.fit_rows", "feas.fit", None),
    ("repro.models.random_forest", "RandomForestClassifier.fit", "feas.fit", None),
    ("repro.core.feasibility", "FeasibilityModel.predict_probability_rows",
     "feas.predict", _rows("feas.predict_rows")),
    ("repro.core.feasibility", "FeasibilityModel.predict_probability",
     "feas.predict", _rows("feas.predict_rows")),
    ("repro.models.random_forest", "RandomForestClassifier.predict_proba", "feas.predict", None),
    ("repro.space.space", "SearchSpace.sample_rows", "space.sample", None),
    ("repro.space.space", "SearchSpace.sample", "space.sample", None),
    ("repro.space.space", "SearchSpace.sample_one", "space.sample", None),
    ("repro.space.space", "SearchSpace.neighbour_rows_batch", "space.neighbours", _neighbour_rows),
    ("repro.core.acquisition", "AcquisitionFunction.__call__", "acq", _rows("acq.rows")),
    ("repro.core.acquisition", "AcquisitionFunction.evaluate_rows", "acq", _rows("acq.rows")),
    ("repro.core.acquisition", "FusedAcquisitionScorer.prime_pool", "acq", _rows("acq.rows")),
    ("repro.core.acquisition", "FusedAcquisitionScorer.score_rows", "acq", _rows("acq.rows")),
    ("repro.core.local_search", "multistart_local_search_batch", "search", None),
    ("repro.core.local_search", "pooled_local_search_batch", "search", None),
    ("repro.core.session", "TuningSession.ask", "session.ask", None),
    ("repro.core.session", "TuningSession.tell", "session.tell", None),
    ("repro.core.session", "TuningSession.snapshot", "session.snapshot", None),
    ("repro.core.session", "TuningSession.restore", "session.restore", None),
    ("repro.service", "SessionRegistry.handle_line", "service.handle", _service_errors),
    ("repro.experiments.runner", "save_session", "store.save", _saved_bytes),
    ("repro.experiments.runner", "load_session", "store.load", None),
    ("repro.client", "TuningClient.call", "wire", None),
)


@dataclass(frozen=True)
class Span:
    """One recorded call.  ``parent`` indexes the merged span list (-1: root)."""

    name: str
    fn: str
    start: float
    end: float
    parent: int
    request: int
    counts: Mapping[str, float] | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class _ThreadLog:
    __slots__ = ("spans", "stack", "request")

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1


class SpanRecorder:
    """In-memory spans, one log per thread (no locking per span)."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
        return log

    def set_request(self, request: int) -> None:
        """Tag the calling thread's next spans with ``request``."""
        self._log().request = request

    def wrap(self, fn: Callable, name: str, counter: Counter | None = None,
             label: str | None = None) -> Callable:
        """``fn`` wrapped to record a span named ``name`` per call."""
        label = label or getattr(fn, "__qualname__", name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            log = self._log()
            stack = log.stack
            parent = stack[-1] if stack else -1
            record = [name, label, 0.0, 0.0, parent, log.request, None]
            stack.append(len(log.spans))
            log.spans.append(record)
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                stack.pop()
            if counter is not None and (parent < 0 or log.spans[parent][0] != name):
                record[6] = dict(counter(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def spans(self) -> list[Span]:
        """Every thread's spans in one list, parents re-indexed."""
        with self._lock:
            logs = list(self._logs)
        merged: list[Span] = []
        for log in logs:
            base = len(merged)
            merged.extend(
                Span(name, fn, start, end, parent + base if parent >= 0 else -1, request, counts)
                for name, fn, start, end, parent, request, counts in log.spans
            )
        return merged


# ---------------------------------------------------------------------------
# installing wrappers
# ---------------------------------------------------------------------------

def _resolve(module_name: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attribute


@contextmanager
def installed(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install every wrapper in :data:`PATCHES`; remove them all on exit.

    A class attribute is patched on its class, so every instance sees it.  A
    module-level function is patched in its defining module *and* in every
    ``repro`` module that imported it by name (``repro.core.baco`` holds its
    own reference to ``multistart_local_search_batch``), because the caller
    looks the name up in its own namespace.
    """
    undo: list[tuple[Any, str, Any]] = []
    try:
        for module_name, path, name, counter in PATCHES:
            owner, attribute = _resolve(module_name, path)
            original = owner.__dict__[attribute]
            if isinstance(owner, type):
                fn = original.__func__ if isinstance(original, classmethod) else original
                wrapped = recorder.wrap(fn, name, counter, label=path)
                if isinstance(original, classmethod):
                    wrapped = classmethod(wrapped)
                undo.append((owner, attribute, original))
                setattr(owner, attribute, wrapped)
                continue
            wrapped = recorder.wrap(original, name, counter, label=path)
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("repro")
                        and module.__dict__.get(attribute) is original):
                    undo.append((module, attribute, original))
                    setattr(module, attribute, wrapped)
        yield recorder
    finally:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def roots_in_window(spans: Sequence[Span], start: float, end: float) -> list[Span]:
    """The spans under roots that started inside ``[start, end)``."""
    keep = [False] * len(spans)
    for index, span in enumerate(spans):  # parents precede their children
        if span.parent < 0:
            keep[index] = start <= span.start < end
        else:
            keep[index] = keep[span.parent]
    # re-index parents into the filtered list
    position: dict[int, int] = {}
    kept: list[Span] = []
    for index, span in enumerate(spans):
        if keep[index]:
            position[index] = len(kept)
            parent = position[span.parent] if span.parent >= 0 else -1
            kept.append(replace(span, parent=parent))
    return kept


@dataclass
class LayerTotals:
    """Per-layer self seconds, outermost calls and counts, plus root time."""

    self_s: dict[str, float]
    calls: dict[str, int]
    fn_calls: dict[str, int]
    total_s: dict[str, float]
    counts: dict[str, float]
    root_s: float


def layer_totals(spans: Iterable[Span]) -> LayerTotals:
    """Self time per layer (duration minus direct children's durations)."""
    spans = list(spans)
    child_s = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_s[span.parent] += span.duration
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    fn_calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    root_s = 0.0
    for index, span in enumerate(spans):
        self_s[span.name] = self_s.get(span.name, 0.0) + span.duration - child_s[index]
        fn_calls[span.fn] = fn_calls.get(span.fn, 0) + 1
        outermost = span.parent < 0 or spans[span.parent].name != span.name
        if outermost:
            calls[span.name] = calls.get(span.name, 0) + 1
            total_s[span.name] = total_s.get(span.name, 0.0) + span.duration
        for key, value in (span.counts or {}).items():
            counts[key] = counts.get(key, 0) + value
        if span.parent < 0:
            root_s += span.duration
    return LayerTotals(self_s, calls, fn_calls, total_s, counts, root_s)


def wrapper_cost_s(samples: int = 20000) -> float:
    """Measured cost of one recorded span around a no-op call, in seconds."""
    def noop() -> None:
        return None

    traced = SpanRecorder().wrap(noop, "calibration")
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(samples):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(samples):
            traced()
        best = min(best, (time.perf_counter() - start - bare) / samples)
    return max(best, 0.0)

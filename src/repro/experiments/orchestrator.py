"""Parallel experiment orchestration over the (benchmark, tuner, budget, seed) grid.

Every data point in the paper's evaluation is one *cell*: a single tuner run
on a single benchmark with a fixed budget and seed.  Cells are completely
independent, so the whole cross product can be executed in parallel.  This
module provides the engine that does so:

* :func:`enumerate_cells` materializes the full grid up front,
* :func:`run_cells` executes a list of cells — serially in-process when
  ``workers == 1`` (the historical behavior of :mod:`repro.experiments.runner`),
  or on a :class:`~concurrent.futures.ProcessPoolExecutor` otherwise — with
  per-cell timeout and retry, skipping cells whose tuning history already
  exists in the on-disk JSON cache,
* a *checkpoint manifest* (``sweep_manifest.json`` next to the cache files)
  records the status of every cell so an interrupted sweep resumes where it
  left off and ``python -m repro status`` can summarize progress,
* per-cell :class:`CellEvent` notifications stream to an ``on_event`` hook
  (rendered by :func:`repro.experiments.reporting.format_cell_event`).

Determinism: a cell's seed is part of its identity, and parallel workers run
the exact same :func:`repro.experiments.runner.run_single` code path as the
serial engine, so a parallel sweep writes bit-identical history JSON to a
serial one.

Parallel workers re-resolve benchmarks by *name* through
:func:`repro.workloads.registry.get_benchmark`; ad-hoc :class:`Benchmark`
objects that are not registry-resolvable can only be executed with
``workers == 1`` (they are passed through in-process).

Cell-level parallelism composes with *within-cell* parallel evaluation:
with ``config.eval_workers > 1`` each cell drives its tuner through an
ask/tell :class:`repro.core.session.TuningSession`, fanning ``ask(q)``
batches out over a nested process pool (see
:func:`repro.experiments.runner.run_single`).
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
import warnings
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import get_all_start_methods, get_context
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..core.result import TuningHistory
from ..workloads.base import Benchmark
from ..workloads.registry import get_benchmark
from .config import ExperimentConfig, default_config
from .runner import (
    TUNER_VARIANTS,
    _cache_path,
    _pool_init,
    _registry_resolvable,
    run_single,
)

__all__ = [
    "Cell",
    "CellEvent",
    "CellOutcome",
    "CellTimeoutError",
    "SweepResult",
    "cell_cache_path",
    "enumerate_cells",
    "load_manifest",
    "manifest_path",
    "run_cells",
    "sweep",
]

MANIFEST_NAME = "sweep_manifest.json"


class CellTimeoutError(RuntimeError):
    """Raised inside a worker when a cell exceeds its wall-clock timeout."""


# ---------------------------------------------------------------------------
# the cell grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cell:
    """One experiment grid point: a tuner run on a benchmark at (budget, seed)."""

    benchmark: str
    tuner: str
    budget: int
    seed: int

    @property
    def key(self) -> str:
        return f"{self.benchmark}|{self.tuner}|b{self.budget}|s{self.seed}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.benchmark} · {self.tuner} · budget={self.budget} seed={self.seed}"


@dataclass(frozen=True)
class CellEvent:
    """Progress notification emitted once per cell state change."""

    kind: str  #: "start" | "cached" | "done" | "retry" | "failed"
    cell: Cell
    index: int  #: 1-based position in the sweep
    total: int
    elapsed: float = 0.0
    attempt: int = 1
    error: str = ""


@dataclass
class CellOutcome:
    """Terminal state of one cell after a sweep."""

    cell: Cell
    status: str  #: "done" | "cached" | "failed"
    attempts: int = 1
    elapsed: float = 0.0
    error: str = ""


def enumerate_cells(
    benchmarks: Iterable[Benchmark | str],
    tuners: Sequence[str],
    config: ExperimentConfig | None = None,
    budget: int | None = None,
    seeds: Sequence[int] | None = None,
) -> list[Cell]:
    """Materialize the (benchmark, tuner, seed) grid as a list of cells.

    ``budget`` overrides the per-benchmark scaled Table 3 budget; ``seeds``
    overrides the ``config.base_seed + repetition`` convention.  Cell order is
    benchmark-major then tuner then seed, matching the historical serial loop.
    """
    config = config or default_config()
    seed_list = (
        list(seeds)
        if seeds is not None
        else [config.base_seed + rep for rep in range(config.repetitions)]
    )
    for tuner in tuners:
        if tuner not in TUNER_VARIANTS:
            raise KeyError(f"unknown tuner {tuner!r}; available: {sorted(TUNER_VARIANTS)}")
    cells: list[Cell] = []
    for entry in benchmarks:
        bench = get_benchmark(entry) if isinstance(entry, str) else entry
        cell_budget = budget if budget is not None else config.scaled_budget(bench.full_budget)
        for tuner in tuners:
            for seed in seed_list:
                cells.append(Cell(bench.name, tuner, int(cell_budget), int(seed)))
    return cells


def cell_cache_path(config: ExperimentConfig, cell: Cell) -> Path:
    """Where :func:`repro.experiments.runner.run_single` caches this cell."""
    return _cache_path(config, cell.benchmark, cell.tuner, cell.budget, cell.seed)


# ---------------------------------------------------------------------------
# checkpoint manifest
# ---------------------------------------------------------------------------

def manifest_path(config: ExperimentConfig) -> Path:
    return config.cache_dir / MANIFEST_NAME


def load_manifest(config: ExperimentConfig) -> dict[str, Any]:
    """Load the sweep manifest, returning an empty shell when absent/corrupt."""
    path = manifest_path(config)
    if path.exists():
        try:
            payload = json.loads(path.read_text())
            if isinstance(payload, dict) and isinstance(payload.get("cells"), dict):
                return payload
        except (json.JSONDecodeError, OSError):
            pass
    return {"version": 1, "updated_at": 0.0, "cells": {}}


def _write_manifest(config: ExperimentConfig, manifest: Mapping[str, Any]) -> None:
    path = manifest_path(config)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(manifest, indent=1, sort_keys=True))
    os.replace(tmp, path)


def _record(manifest: dict[str, Any], config: ExperimentConfig, outcome: CellOutcome) -> None:
    cell = outcome.cell
    manifest["cells"][cell.key] = {
        "benchmark": cell.benchmark,
        "tuner": cell.tuner,
        "budget": cell.budget,
        "seed": cell.seed,
        "fidelity": config.fidelity,
        "status": outcome.status,
        "attempts": outcome.attempts,
        "elapsed": round(outcome.elapsed, 3),
        "error": outcome.error,
        "file": cell_cache_path(config, cell).name,
    }
    manifest["updated_at"] = time.time()


# ---------------------------------------------------------------------------
# cell execution (shared by the serial path and the worker processes)
# ---------------------------------------------------------------------------

@contextmanager
def _alarm(seconds: float | None):
    """Raise :class:`CellTimeoutError` after ``seconds`` of wall-clock time.

    Uses ``SIGALRM``, so it only arms on platforms that have it and when
    running on the main thread (worker-process tasks always do).
    """
    usable = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _on_alarm(signum, frame):  # pragma: no cover - exercised via timeout tests
        raise CellTimeoutError(f"cell exceeded the {seconds:.1f}s timeout")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _run_cell(
    cell: Cell,
    config: ExperimentConfig,
    timeout: float | None = None,
    benchmark: Benchmark | None = None,
) -> TuningHistory:
    """Execute one cell (used in-process and as the process-pool task)."""
    with _alarm(timeout):
        return run_single(
            benchmark if benchmark is not None else cell.benchmark,
            cell.tuner,
            cell.budget,
            cell.seed,
            config,
        )


def _run_cell_timed(
    cell: Cell, config: ExperimentConfig, timeout: float | None
) -> tuple[float, TuningHistory]:
    """Process-pool task: cell runtime measured inside the worker, so the
    reported elapsed time excludes queue wait."""
    started = time.time()
    history = _run_cell(cell, config, timeout)
    return time.time() - started, history


# ---------------------------------------------------------------------------
# the sweep engine
# ---------------------------------------------------------------------------

@dataclass
class SweepResult:
    """Outcome of :func:`run_cells`: per-cell statuses plus loaded histories."""

    config: ExperimentConfig
    outcomes: dict[Cell, CellOutcome]
    manifest_file: Path | None
    elapsed: float
    _histories: dict[Cell, TuningHistory] = field(default_factory=dict, repr=False)
    _benchmarks: dict[str, Benchmark] = field(default_factory=dict, repr=False)

    @property
    def counts(self) -> Counter:
        return Counter(outcome.status for outcome in self.outcomes.values())

    @property
    def failures(self) -> list[CellOutcome]:
        return [o for o in self.outcomes.values() if o.status == "failed"]

    def history(self, cell: Cell) -> TuningHistory:
        """The tuning history of a cell (loading from the cache if needed)."""
        if cell not in self._histories:
            bench = self._benchmarks.get(cell.benchmark, cell.benchmark)
            self._histories[cell] = run_single(
                bench, cell.tuner, cell.budget, cell.seed, self.config
            )
        return self._histories[cell]


def run_cells(
    cells: Sequence[Cell],
    config: ExperimentConfig | None = None,
    *,
    workers: int | None = None,
    timeout: float | None = None,
    retries: int | None = None,
    resume: bool | None = None,
    benchmarks: Mapping[str, Benchmark] | None = None,
    on_event: Callable[[CellEvent], None] | None = None,
    raise_on_error: bool = False,
) -> SweepResult:
    """Execute a list of cells, in parallel when ``workers > 1``.

    Keyword arguments default to the corresponding :class:`ExperimentConfig`
    fields.  Cells whose cached history already exists are skipped (status
    ``"cached"``) unless ``resume`` is false, in which case their cache entry
    is removed and they are recomputed.  Each remaining cell gets
    ``1 + retries`` attempts bounded by ``timeout`` seconds apiece.  With
    ``raise_on_error`` the first unrecoverable cell failure is re-raised after
    the sweep finishes (the behavior :func:`repro.experiments.runner.run_benchmark`
    relies on); otherwise failures are reported in the returned
    :class:`SweepResult`.
    """
    config = config or default_config()
    workers = config.workers if workers is None else max(1, workers)
    timeout = config.timeout if timeout is None else timeout
    retries = config.retries if retries is None else max(0, retries)
    resume = config.resume if resume is None else resume
    benchmark_objects = dict(benchmarks or {})

    # de-duplicate while preserving order; a cell is one unit of work
    ordered: dict[Cell, None] = dict.fromkeys(cells)
    total = len(ordered)
    started = time.time()
    outcomes: dict[Cell, CellOutcome] = {}
    histories: dict[Cell, TuningHistory] = {}
    errors: dict[Cell, BaseException] = {}

    manifest = load_manifest(config) if config.use_cache else {"version": 1, "cells": {}}
    if not resume:
        # forget only the cells being re-run; records from other sweeps stay
        for cell in ordered:
            manifest["cells"].pop(cell.key, None)

    def emit(kind: str, cell: Cell, index: int, **kwargs: Any) -> None:
        if on_event is not None:
            on_event(CellEvent(kind=kind, cell=cell, index=index, total=total, **kwargs))

    # -- partition into cached / pending -----------------------------------
    pending: list[tuple[int, Cell]] = []
    for index, cell in enumerate(ordered, start=1):
        path = cell_cache_path(config, cell)
        if config.use_cache and resume and path.exists():
            outcomes[cell] = CellOutcome(cell, "cached")
            emit("cached", cell, index)
        else:
            if config.use_cache and not resume:
                path.unlink(missing_ok=True)
            pending.append((index, cell))

    def finish(cell: Cell, outcome: CellOutcome) -> None:
        outcomes[cell] = outcome
        if config.use_cache:
            _record(manifest, config, outcome)
            _write_manifest(config, manifest)

    if timeout and not hasattr(signal, "SIGALRM"):
        warnings.warn(
            "per-cell timeout requested but SIGALRM is unavailable on this "
            "platform; cells will run unbounded",
            RuntimeWarning,
            stacklevel=2,
        )

    # cells backed by ad-hoc Benchmark objects that worker processes cannot
    # re-resolve by name must run in-process
    serial_pending = pending
    parallel_pending: list[tuple[int, Cell]] = []
    if workers > 1 and pending:
        serial_pending, parallel_pending = [], []
        for index, cell in pending:
            needs_object = (
                cell.benchmark in benchmark_objects
                and not _registry_resolvable(cell.benchmark)
            )
            (serial_pending if needs_object else parallel_pending).append((index, cell))

    # -- serial path (workers == 1, plus any registry-unresolvable cells) ----
    for index, cell in serial_pending:
        emit("start", cell, index)
        outcome = _run_serial_cell(
            cell, config, timeout, retries, benchmark_objects, histories, errors,
            emit_retry=lambda attempt, err, c=cell, i=index: emit(
                "retry", c, i, attempt=attempt, error=err
            ),
        )
        finish(cell, outcome)
        emit(outcome.status, cell, index, elapsed=outcome.elapsed,
             attempt=outcome.attempts, error=outcome.error)
    if parallel_pending:
        _run_parallel_cells(
            parallel_pending, config, workers, timeout, retries, histories, errors,
            emit, finish,
        )

    if config.use_cache:
        for cell, outcome in outcomes.items():
            if outcome.status == "cached" and cell.key not in manifest["cells"]:
                _record(manifest, config, outcome)
        _write_manifest(config, manifest)

    if raise_on_error and errors:
        raise next(iter(errors.values()))

    return SweepResult(
        config=config,
        outcomes=outcomes,
        manifest_file=manifest_path(config) if config.use_cache else None,
        elapsed=time.time() - started,
        _histories=histories,
        _benchmarks=benchmark_objects,
    )


def _run_serial_cell(
    cell: Cell,
    config: ExperimentConfig,
    timeout: float | None,
    retries: int,
    benchmark_objects: Mapping[str, Benchmark],
    histories: dict[Cell, TuningHistory],
    errors: dict[Cell, BaseException],
    emit_retry: Callable[[int, str], None],
) -> CellOutcome:
    cell_started = time.time()
    benchmark = benchmark_objects.get(cell.benchmark)
    for attempt in range(1, retries + 2):
        try:
            histories[cell] = _run_cell(cell, config, timeout, benchmark)
            return CellOutcome(cell, "done", attempt, time.time() - cell_started)
        except Exception as exc:  # noqa: BLE001 - cell isolation is the point
            if attempt <= retries:
                emit_retry(attempt, f"{type(exc).__name__}: {exc}")
                continue
            errors[cell] = exc
            return CellOutcome(
                cell, "failed", attempt, time.time() - cell_started,
                error=f"{type(exc).__name__}: {exc}",
            )
    raise AssertionError("unreachable")


def _run_parallel_cells(
    pending: Sequence[tuple[int, Cell]],
    config: ExperimentConfig,
    workers: int,
    timeout: float | None,
    retries: int,
    histories: dict[Cell, TuningHistory],
    errors: dict[Cell, BaseException],
    emit: Callable[..., None],
    finish: Callable[[Cell, CellOutcome], None],
) -> None:
    """Fan pending cells out over a process pool with retry.

    ``fork`` (where available) inherits ``sys.path`` and skips re-importing
    the parent's ``__main__``; on spawn-only platforms the initializer
    replays the parent's ``sys.path`` so ``repro`` stays importable.
    """
    context = get_context("fork" if "fork" in get_all_start_methods() else "spawn")
    starts: dict[Cell, float] = {}
    attempts: dict[Cell, int] = {}
    indices: dict[Cell, int] = {index_cell[1]: index_cell[0] for index_cell in pending}
    with ProcessPoolExecutor(
        max_workers=min(workers, len(pending)),
        mp_context=context,
        initializer=_pool_init,
        initargs=(list(sys.path),),
    ) as pool:

        def submit(cell: Cell) -> Future:
            attempts[cell] = attempts.get(cell, 0) + 1
            starts[cell] = time.time()
            emit("start" if attempts[cell] == 1 else "retry", cell, indices[cell],
                 attempt=attempts[cell])
            return pool.submit(_run_cell_timed, cell, config, timeout)

        def fail(cell: Cell, exc: BaseException) -> None:
            errors[cell] = exc
            outcome = CellOutcome(
                cell, "failed", attempts[cell], time.time() - starts[cell],
                error=f"{type(exc).__name__}: {exc}",
            )
            finish(cell, outcome)
            emit("failed", cell, indices[cell], elapsed=outcome.elapsed,
                 attempt=outcome.attempts, error=outcome.error)

        running: dict[Future, Cell] = {submit(cell): cell for _, cell in pending}
        while running:
            done, _ = wait(list(running), return_when=FIRST_COMPLETED)
            for future in done:
                cell = running.pop(future)
                try:
                    elapsed, histories[cell] = future.result()
                except Exception as exc:  # noqa: BLE001 - per-cell isolation
                    broken = "BrokenProcessPool" in type(exc).__name__
                    if attempts[cell] <= retries and not broken:
                        try:
                            running[submit(cell)] = cell
                        except Exception as submit_exc:  # noqa: BLE001 - pool may be broken
                            fail(cell, submit_exc)
                        continue
                    fail(cell, exc)
                    continue
                outcome = CellOutcome(cell, "done", attempts[cell], elapsed)
                finish(cell, outcome)
                emit("done", cell, indices[cell], elapsed=outcome.elapsed,
                     attempt=outcome.attempts, error=outcome.error)


def sweep(
    benchmarks: Iterable[Benchmark | str],
    tuners: Sequence[str],
    config: ExperimentConfig | None = None,
    budget: int | None = None,
    seeds: Sequence[int] | None = None,
    **run_kwargs: Any,
) -> SweepResult:
    """Enumerate the grid and execute it: ``run_cells(enumerate_cells(...))``."""
    config = config or default_config()
    cells = enumerate_cells(benchmarks, tuners, config, budget=budget, seeds=seeds)
    return run_cells(cells, config, **run_kwargs)

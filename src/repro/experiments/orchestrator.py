"""Parallel experiment orchestration over the (benchmark, tuner, budget, seed) grid.

Every data point in the paper's evaluation is one *cell*: a single tuner run
on a single benchmark with a fixed budget and seed.  Cells are completely
independent, so the whole cross product can be executed in parallel.  This
module provides the engine that does so:

* :func:`enumerate_cells` materializes the full grid up front,
* :func:`run_cells` skips each cell whose cache file
  :func:`repro.experiments.runner.load_history` accepts and settles every
  other one through one routine: in-process when ``workers == 1`` or when
  its benchmark is an ad-hoc object, on a
  :class:`~concurrent.futures.ProcessPoolExecutor` otherwise,
* a *manifest* (``sweep_manifest.json`` next to the cache files) records
  the status of every cell for ``python -m repro status``; it is for
  observability only, since an interrupted sweep resumes from the cache
  files themselves,
* per-cell :class:`CellEvent` notifications stream to an ``on_event`` hook
  (rendered by :func:`repro.experiments.reporting.format_cell_event`).

A cell runs once.  It is a deterministic function of (benchmark, tuner,
budget, seed, fidelity), so a failed cell would fail again and is reported,
not retried; its loops are bounded (rejection budget, local-search steps,
L-BFGS-B iterations), so it needs no timeout.

Determinism: a cell's seed is part of its identity, and parallel workers run
the exact same :func:`repro.experiments.runner.run_single` code path as the
serial engine, so a parallel sweep writes bit-identical history JSON to a
serial one.

Parallel workers re-resolve benchmarks by *name* through
:func:`repro.workloads.registry.get_benchmark`; ad-hoc :class:`Benchmark`
objects that are not registry-resolvable run in-process whatever
``workers`` is.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from functools import partial
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
    _write_atomically,
    load_history,
    run_single,
)

__all__ = [
    "Cell",
    "CellEvent",
    "CellOutcome",
    "SweepResult",
    "cached_history",
    "cell_cache_path",
    "enumerate_cells",
    "load_manifest",
    "manifest_path",
    "run_cells",
]

MANIFEST_NAME = "sweep_manifest.json"


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

    kind: str  #: "start" | "cached" | "done" | "failed"
    cell: Cell
    index: int  #: 1-based position in the sweep
    total: int
    elapsed: float = 0.0
    error: str = ""


@dataclass
class CellOutcome:
    """Terminal state of one cell after a sweep."""

    cell: Cell
    status: str  #: "done" | "cached" | "failed"
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


def cached_history(
    config: ExperimentConfig, cell: Cell, benchmark: Benchmark | None = None
) -> TuningHistory | None:
    """The cell's cached history if :func:`load_history` accepts its file.

    This is what a cache hit means everywhere: :func:`run_cells`,
    ``repro status`` and ``repro report`` count a cell as cached only then,
    and :func:`run_single` recomputes a file it rejects.  ``benchmark``
    defaults to the registry's instance of ``cell.benchmark``.
    """
    return load_history(
        cell_cache_path(config, cell),
        benchmark if benchmark is not None else get_benchmark(cell.benchmark),
        cell.tuner,
        cell.budget,
        cell.seed,
    )


# ---------------------------------------------------------------------------
# manifest
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
    _write_atomically(manifest_path(config), json.dumps(manifest, indent=1, sort_keys=True))


def _record(manifest: dict[str, Any], config: ExperimentConfig, outcome: CellOutcome) -> None:
    cell = outcome.cell
    manifest["cells"][cell.key] = {
        "benchmark": cell.benchmark,
        "tuner": cell.tuner,
        "budget": cell.budget,
        "seed": cell.seed,
        "fidelity": config.fidelity,
        "status": outcome.status,
        "elapsed": round(outcome.elapsed, 3),
        "error": outcome.error,
        "file": cell_cache_path(config, cell).name,
    }
    manifest["updated_at"] = time.time()


# ---------------------------------------------------------------------------
# the sweep engine
# ---------------------------------------------------------------------------

def _run_cell(
    cell: Cell, config: ExperimentConfig, benchmark: Benchmark | None = None
) -> tuple[float, TuningHistory]:
    """Run one cell, in-process or as the process-pool task; the elapsed time
    is measured where the cell runs, so a pooled cell's excludes queue wait."""
    started = time.time()
    history = run_single(
        benchmark if benchmark is not None else cell.benchmark,
        cell.tuner,
        cell.budget,
        cell.seed,
        config,
    )
    return time.time() - started, history


@dataclass
class SweepResult:
    """Outcome of :func:`run_cells`: per-cell statuses plus their histories."""

    config: ExperimentConfig
    outcomes: dict[Cell, CellOutcome]
    manifest_file: Path | None
    elapsed: float
    _histories: dict[Cell, TuningHistory] = field(default_factory=dict, repr=False)

    @property
    def counts(self) -> Counter:
        return Counter(outcome.status for outcome in self.outcomes.values())

    @property
    def failures(self) -> list[CellOutcome]:
        return [o for o in self.outcomes.values() if o.status == "failed"]

    def history(self, cell: Cell) -> TuningHistory:
        """The tuning history of a done or cached cell (``KeyError`` otherwise)."""
        return self._histories[cell]


def run_cells(
    cells: Sequence[Cell],
    config: ExperimentConfig | None = None,
    *,
    benchmarks: Mapping[str, Benchmark] | None = None,
    on_event: Callable[[CellEvent], None] | None = None,
    raise_on_error: bool = False,
) -> SweepResult:
    """Execute a list of cells, on ``config.workers`` processes when above 1.

    A cell :func:`cached_history` finds is not run (status ``"cached"``).
    Every other cell runs once through :func:`run_single`: in-process when
    ``config.workers == 1`` or when ``benchmarks`` maps its name to an
    ad-hoc object that workers cannot resolve, on a process pool otherwise.
    With ``raise_on_error`` the first cell failure is re-raised after the
    sweep finishes (the behavior :func:`repro.experiments.runner.run_benchmark`
    relies on); otherwise failures are reported in the returned
    :class:`SweepResult`.
    """
    config = config or default_config()
    benchmark_objects = dict(benchmarks or {})

    # de-duplicate while preserving order; a cell is one unit of work
    ordered: dict[Cell, None] = dict.fromkeys(cells)
    total = len(ordered)
    started = time.time()
    outcomes: dict[Cell, CellOutcome] = {}
    histories: dict[Cell, TuningHistory] = {}
    errors: dict[Cell, BaseException] = {}
    starts: dict[Cell, float] = {}
    manifest = load_manifest(config) if config.use_cache else {"version": 1, "cells": {}}

    def emit(kind: str, cell: Cell, index: int, **kwargs: Any) -> None:
        if on_event is not None:
            on_event(CellEvent(kind=kind, cell=cell, index=index, total=total, **kwargs))

    def start(index: int, cell: Cell) -> None:
        starts[cell] = time.time()
        emit("start", cell, index)

    def settle(
        index: int, cell: Cell, result: Callable[[], tuple[float, TuningHistory]]
    ) -> None:
        """Record a started cell's outcome; ``result()`` returns its
        (elapsed, history) or raises its failure."""
        try:
            elapsed, histories[cell] = result()
            outcome = CellOutcome(cell, "done", elapsed)
        except Exception as exc:  # noqa: BLE001 - cell isolation is the point
            errors[cell] = exc
            outcome = CellOutcome(
                cell, "failed", time.time() - starts[cell],
                error=f"{type(exc).__name__}: {exc}",
            )
        outcomes[cell] = outcome
        if config.use_cache:
            _record(manifest, config, outcome)
            _write_manifest(config, manifest)
        emit(outcome.status, cell, index, elapsed=outcome.elapsed, error=outcome.error)

    in_process: list[tuple[int, Cell]] = []
    pooled: list[tuple[int, Cell]] = []
    for index, cell in enumerate(ordered, start=1):
        benchmark = benchmark_objects.get(cell.benchmark)
        history = cached_history(config, cell, benchmark) if config.use_cache else None
        if history is not None:
            histories[cell] = history
            outcomes[cell] = CellOutcome(cell, "cached")
            emit("cached", cell, index)
        elif config.workers == 1 or (
            benchmark is not None and not _registry_resolvable(cell.benchmark)
        ):
            in_process.append((index, cell))
        else:
            pooled.append((index, cell))

    for index, cell in in_process:
        start(index, cell)
        settle(index, cell, partial(
            _run_cell, cell, config, benchmark_objects.get(cell.benchmark)
        ))
    if pooled:
        # ``fork`` (where available) inherits ``sys.path`` and skips
        # re-importing the parent's ``__main__``; on spawn-only platforms the
        # initializer replays the parent's ``sys.path`` so ``repro`` imports
        context = get_context("fork" if "fork" in get_all_start_methods() else "spawn")
        with ProcessPoolExecutor(
            max_workers=min(config.workers, len(pooled)),
            mp_context=context,
            initializer=_pool_init,
            initargs=(list(sys.path),),
        ) as pool:
            running = {}
            for index, cell in pooled:
                start(index, cell)
                running[pool.submit(_run_cell, cell, config)] = (index, cell)
            for future in as_completed(running):
                settle(*running[future], future.result)

    if config.use_cache:
        for cell, outcome in outcomes.items():
            # a cell recorded as failed whose history has since become valid
            # is cached now, as ``repro status`` counts it
            recorded = manifest["cells"].get(cell.key)
            if outcome.status == "cached" and (
                not isinstance(recorded, dict) or recorded.get("status") == "failed"
            ):
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
    )

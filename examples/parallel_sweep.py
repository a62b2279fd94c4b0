#!/usr/bin/env python
"""Parallel sweep: fan a small experiment grid out over worker processes.

Enumerates the (benchmark, tuner, seed) cell grid for two HPVM2FPGA kernels
and two sampling baselines and sweeps it twice through the experiment
orchestrator, into one temporary cache directory that is removed on exit.
The first pass executes every cell on a 2-worker process pool; the second
is (nearly) instant, because every cell is already satisfied by the on-disk
cache, so its summary reads ``0 done, 8 cached, 0 failed``.  The script
prints each pass's per-cell progress events and summary, then a best-value
report from the cached histories.

The same engine powers the command-line interface:

    PYTHONPATH=src python -m repro sweep --benchmarks hpvm_bfs hpvm_audio \\
        --tuners "Uniform Sampling" "CoT Sampling" --repetitions 2 --workers 2

Run:  python examples/parallel_sweep.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.experiments.config import ExperimentConfig
from repro.experiments.metrics import mean_best_value
from repro.experiments.orchestrator import enumerate_cells, run_cells
from repro.experiments.reporting import format_cell_event, format_sweep_summary, format_table

BENCHMARKS = ("hpvm_bfs", "hpvm_audio")
TUNERS = ("Uniform Sampling", "CoT Sampling")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-sweep-") as cache_dir:
        config = ExperimentConfig(repetitions=2, cache_dir=Path(cache_dir), workers=2)
        cells = enumerate_cells(BENCHMARKS, TUNERS, config)
        print(f"grid: {len(cells)} cells = {len(BENCHMARKS)} benchmarks "
              f"x {len(TUNERS)} tuners x {config.repetitions} seeds")

        for label in ("first pass: every cell runs", "second pass: every cell is cached"):
            print(f"\n{label}")
            result = run_cells(
                cells, config, on_event=lambda event: print(format_cell_event(event))
            )
            print(format_sweep_summary(result.counts, result.elapsed, config.workers))
            if result.failures:
                return 1

    headers = ["Benchmark", *TUNERS]
    rows = []
    for benchmark in BENCHMARKS:
        row = [benchmark]
        for tuner in TUNERS:
            histories = [
                result.history(cell)
                for cell in cells
                if cell.benchmark == benchmark and cell.tuner == tuner
            ]
            row.append(mean_best_value(histories))
        rows.append(row)
    print("\n" + format_table(headers, rows, title="mean best value over seeds"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python
"""Pre-compute every tuning run needed by the benchmark harness.

The benchmark files under ``benchmarks/`` read tuning histories from the
on-disk cache (``results/cache``); running this script first makes the whole
harness fast and lets the expensive optimization runs be executed once, e.g.
on a beefier machine or overnight at paper scale.

Stage 0 enumerates every cell the figures and tables need — the main-tuner
sweep (Fig. 5/6/7, Tables 5-10), the SpMM ablation studies (Fig. 8/9) and the
hidden-constraint study (Fig. 10) — and executes the missing ones through the
parallel orchestrator (:mod:`repro.experiments.orchestrator`).  Set
``REPRO_WORKERS`` to fan the sweep out over worker processes; the subsequent
figure/table stages then only read from the cache:

    python scripts/run_experiments.py                 # CI-scale defaults
    REPRO_WORKERS=8 python scripts/run_experiments.py # 8-way parallel sweep
    REPRO_REPETITIONS=30 REPRO_BUDGET_SCALE=1.0 \
    REPRO_FIDELITY=paper REPRO_FULL_SUITE=1 \
    REPRO_WORKERS=16 \
    python scripts/run_experiments.py                 # paper-scale sweep

An interrupted sweep is safe to re-run: a cell whose cache file holds a valid
history is not run again.  A malformed ``REPRO_*`` value stops the script
with an error naming the variable.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.experiments.config import default_config
from repro.experiments.figures import (
    FIGURE8_VARIANTS,
    FIGURE9_VARIANTS,
    FIGURE10_VARIANTS,
    SPMM_ABLATION_TENSORS,
    figure5_data,
    figure6_data,
    figure8_data,
    figure9_data,
    figure10_data,
    suite_benchmarks,
)
from repro.experiments.orchestrator import enumerate_cells, run_cells
from repro.experiments.reporting import (
    format_cell_event,
    format_checkpoint_study,
    format_figure5,
    format_sweep_summary,
)
from repro.experiments.runner import MAIN_TUNERS
from repro.experiments.tables import table10_rows

def paper_grid(config):
    """Every cell the figure/table stages will read from the cache."""
    suite = [name for names in suite_benchmarks(config).values() for name in names]
    cells = enumerate_cells(suite, MAIN_TUNERS, config)
    spmm = [f"taco_spmm_{tensor}" for tensor in SPMM_ABLATION_TENSORS]
    spmm_variants = tuple(dict.fromkeys(FIGURE8_VARIANTS + FIGURE9_VARIANTS))
    cells += enumerate_cells(spmm, spmm_variants, config)
    cells += enumerate_cells(["rise_mm_gpu", "rise_scal_gpu"], FIGURE10_VARIANTS, config)
    return cells


def main() -> int:
    config = default_config()
    print(f"experiment config: {config}")

    cells = paper_grid(config)
    print(f"== Stage 0: orchestrated sweep over {len(cells)} cells "
          f"({config.workers} worker(s)) ...", flush=True)
    result = run_cells(
        cells, config, on_event=lambda event: print(format_cell_event(event), flush=True)
    )
    print(format_sweep_summary(result.counts, result.elapsed, config.workers))
    for outcome in result.failures:
        print(f"  failed: {outcome.cell.key}: {outcome.error}", file=sys.stderr)

    stages = [
        ("Fig. 5 / Tables 5-9 main sweep", lambda: format_figure5(figure5_data(config))),
        ("Fig. 6 representative kernels", lambda: str(len(figure6_data(config))) + " entries"),
        ("Fig. 8 BO comparison", lambda: format_checkpoint_study(figure8_data(config), "[Fig. 8]")),
        ("Fig. 9 ablation", lambda: format_checkpoint_study(figure9_data(config), "[Fig. 9]")),
        ("Fig. 10 hidden constraints", lambda: format_checkpoint_study(figure10_data(config), "[Fig. 10]")),
        ("Table 10 wall-clock", lambda: str(table10_rows(config))),
    ]
    for name, stage in stages:
        start = time.time()
        print(f"== {name} ...", flush=True)
        output = stage()
        print(output)
        print(f"== {name} done in {time.time() - start:.1f}s", flush=True)
    return 1 if result.failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

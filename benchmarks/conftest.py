"""Shared fixtures for the benchmark harness.

Every file in this directory regenerates one table or figure of the paper
(see DESIGN.md's per-experiment index).  The underlying tuning runs are
cached on disk under ``results/cache`` so the full harness can be re-run
cheaply; delete that directory (or set ``REPRO_USE_CACHE=0``) to force fresh
runs.  Scale knobs are documented in :mod:`repro.experiments.config`.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.experiments.config import default_config  # noqa: E402


@pytest.fixture(scope="session")
def experiment_config():
    """The experiment configuration shared by all benchmark files."""
    return default_config()


@pytest.fixture(scope="session")
def emit():
    """Print a rendered table/figure and write it to ``results/paper_artifacts.txt``.

    pytest captures stdout by default, so the artifact file is the reliable
    place to inspect the regenerated tables and figure series after a
    benchmark run (or pass ``-s`` to see them live).  The session's first
    artifact truncates the file, so it holds the latest run only.
    """
    artifact_path = Path(__file__).resolve().parents[1] / "results" / "paper_artifacts.txt"
    artifact_path.parent.mkdir(parents=True, exist_ok=True)
    mode = "w"

    def _emit(text: str) -> None:
        nonlocal mode
        print()
        print(text)
        print()
        with artifact_path.open(mode) as handle:
            handle.write(text + "\n\n")
        mode = "a"

    return _emit


def run_once(benchmark, func):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1)

"""Experiment configuration: scaling knobs for paper-scale vs. CI-scale runs.

The paper runs every (tuner, benchmark) pair for 30 repetitions at the full
budgets of Table 3.  That is far more compute than a test / benchmark suite
should spend by default, so the harness is parameterized by environment
variables:

=======================  =======================================  =========
variable                 meaning                                  default
=======================  =======================================  =========
``REPRO_REPETITIONS``    repetitions per (tuner, benchmark) pair  3
``REPRO_BUDGET_SCALE``   fraction of the Table 3 budget to use    0.5
``REPRO_FIDELITY``       "fast" or "paper" optimizer settings     fast
``REPRO_SEED``           base random seed                         2023
``REPRO_CACHE_DIR``      on-disk cache for tuning histories       results/cache
``REPRO_USE_CACHE``      reuse cached histories ("1"/"0")         1
``REPRO_FULL_SUITE``     run all 25 instances in the big sweeps   0
``REPRO_WORKERS``        parallel worker processes per sweep      1
``REPRO_TIMEOUT``        per-cell timeout in seconds (0 = none)   0
``REPRO_RETRIES``        re-attempts per failed / timed-out cell  0
``REPRO_RESUME``         skip cells already in the cache ("1")    1
``REPRO_EVAL_WORKERS``   parallel black-box evaluations per cell  1
=======================  =======================================  =========

Setting ``REPRO_REPETITIONS=30 REPRO_BUDGET_SCALE=1.0 REPRO_FIDELITY=paper
REPRO_FULL_SUITE=1`` reproduces the paper-scale experiment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["ExperimentConfig", "default_config"]


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        return default


def _env_float(name: str, default: float) -> float:
    try:
        return float(os.environ.get(name, default))
    except ValueError:
        return default


def _repo_root() -> Path:
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "pyproject.toml").exists():
            return parent
    return Path.cwd()


#: the optimizer effort levels a tuner is built at
FIDELITIES = ("fast", "paper")


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs controlling how much compute the experiment harness spends."""

    repetitions: int = 3
    budget_scale: float = 0.5
    fidelity: str = "fast"
    base_seed: int = 2023
    cache_dir: Path = field(default_factory=lambda: _repo_root() / "results" / "cache")
    use_cache: bool = True
    full_suite: bool = False
    #: worker processes used by the experiment orchestrator (1 = serial, in-process)
    workers: int = 1
    #: per-cell wall-clock timeout in seconds (None = unlimited)
    timeout: float | None = None
    #: re-attempts granted to a failed or timed-out cell
    retries: int = 0
    #: skip cells whose cached history already exists; False forces recomputation
    resume: bool = True
    #: parallel black-box evaluations inside one tuner run: each ask/tell
    #: session asks batches of this size and fans them out over a process
    #: pool (1 = the serial trace; >1 trades per-iteration feedback for
    #: evaluation throughput and changes the trace, so it is part of the
    #: cache identity)
    eval_workers: int = 1

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not 0.0 < self.budget_scale <= 1.0:
            raise ValueError("budget_scale must be in (0, 1]")
        if self.fidelity not in FIDELITIES:
            raise ValueError(f"fidelity must be one of {FIDELITIES}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.eval_workers < 1:
            raise ValueError("eval_workers must be >= 1")

    def scaled_budget(self, full_budget: int) -> int:
        """Budget actually used for one benchmark after scaling."""
        return max(6, int(round(full_budget * self.budget_scale)))


def default_config() -> ExperimentConfig:
    """Build the configuration from environment variables."""
    timeout = _env_float("REPRO_TIMEOUT", 0.0)
    return ExperimentConfig(
        repetitions=_env_int("REPRO_REPETITIONS", 3),
        budget_scale=_env_float("REPRO_BUDGET_SCALE", 0.5),
        fidelity=os.environ.get("REPRO_FIDELITY", "fast"),
        base_seed=_env_int("REPRO_SEED", 2023),
        cache_dir=Path(os.environ.get("REPRO_CACHE_DIR", _repo_root() / "results" / "cache")),
        use_cache=os.environ.get("REPRO_USE_CACHE", "1") != "0",
        full_suite=os.environ.get("REPRO_FULL_SUITE", "0") == "1",
        workers=max(1, _env_int("REPRO_WORKERS", 1)),
        timeout=timeout if timeout > 0 else None,
        retries=max(0, _env_int("REPRO_RETRIES", 0)),
        resume=os.environ.get("REPRO_RESUME", "1") != "0",
        eval_workers=max(1, _env_int("REPRO_EVAL_WORKERS", 1)),
    )

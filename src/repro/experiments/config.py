"""Experiment configuration: scaling knobs for paper-scale vs. CI-scale runs.

The paper runs every (tuner, benchmark) pair for 30 repetitions at the full
budgets of Table 3.  That is far more compute than a test / benchmark suite
should spend by default, so the harness is parameterized by environment
variables:

=======================  =======================================  =============
variable                 meaning                                  default
=======================  =======================================  =============
``REPRO_REPETITIONS``    repetitions per (tuner, benchmark) pair  3
``REPRO_BUDGET_SCALE``   fraction of the Table 3 budget to use    0.5
``REPRO_FIDELITY``       "fast" or "paper" optimizer settings     fast
``REPRO_SEED``           base random seed                         2023
``REPRO_CACHE_DIR``      on-disk cache for tuning histories       results/cache
``REPRO_USE_CACHE``      reuse cached histories (1 or 0)          1
``REPRO_FULL_SUITE``     run all 25 instances in the big sweeps   0
``REPRO_WORKERS``        parallel worker processes per sweep      1
=======================  =======================================  =============

The default cache is the checkout's ``results/cache``, whatever the working
directory.  A value that does not parse, or that :class:`ExperimentConfig`
rejects, raises ``ValueError`` naming its variable; a flag is exactly ``0``
or ``1``.  Setting ``REPRO_REPETITIONS=30 REPRO_BUDGET_SCALE=1.0
REPRO_FIDELITY=paper REPRO_FULL_SUITE=1`` reproduces the paper-scale
experiment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path

__all__ = ["ExperimentConfig", "default_config"]

#: the optimizer effort levels a tuner is built at
FIDELITIES = ("fast", "paper")

#: the checkout's history cache; this file is ``src/repro/experiments/config.py``
_CACHE_DIR = Path(__file__).resolve().parents[3] / "results" / "cache"


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs controlling how much compute the experiment harness spends."""

    repetitions: int = 3
    budget_scale: float = 0.5
    fidelity: str = "fast"
    base_seed: int = 2023
    cache_dir: Path = _CACHE_DIR
    use_cache: bool = True
    full_suite: bool = False
    #: worker processes used by the experiment orchestrator (1 = serial, in-process)
    workers: int = 1

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not 0.0 < self.budget_scale <= 1.0:
            raise ValueError("budget_scale must be in (0, 1]")
        if self.fidelity not in FIDELITIES:
            raise ValueError(f"fidelity must be one of {FIDELITIES}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def scaled_budget(self, full_budget: int) -> int:
        """Budget actually used for one benchmark after scaling."""
        return max(6, int(round(full_budget * self.budget_scale)))


def _flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError("must be 0 or 1")
    return text == "1"


#: field -> (environment variable, parser of its text)
_ENVIRONMENT = {
    "repetitions": ("REPRO_REPETITIONS", int),
    "budget_scale": ("REPRO_BUDGET_SCALE", float),
    "fidelity": ("REPRO_FIDELITY", str),
    "base_seed": ("REPRO_SEED", int),
    "cache_dir": ("REPRO_CACHE_DIR", Path),
    "use_cache": ("REPRO_USE_CACHE", _flag),
    "full_suite": ("REPRO_FULL_SUITE", _flag),
    "workers": ("REPRO_WORKERS", int),
}


def default_config() -> ExperimentConfig:
    """Build the configuration from environment variables.

    Each variable that is set is parsed and applied on its own, so the
    ``ValueError`` of a value that does not parse, or that the configuration
    rejects, names that variable.
    """
    config = ExperimentConfig()
    for name, (variable, parse) in _ENVIRONMENT.items():
        text = os.environ.get(variable)
        if text is None:
            continue
        try:
            config = replace(config, **{name: parse(text)})
        except ValueError as exc:
            raise ValueError(f"{variable}={text!r}: {exc}") from None
    return config

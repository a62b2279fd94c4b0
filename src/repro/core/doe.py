"""Initial design of experiments (DoE).

The first few configurations of a BO run are sampled uniformly at random from
the feasible region (the "initial phase" of Fig. 2).  When the search space
has a Chain-of-Trees, sampling uniformly over leaves removes the structural
bias of sampling per-level (Sec. 4.2); the biased per-level draw stays
available through ``SearchSpace.sample_rows(biased_cot=True)`` for the
CoT-sampling baseline of the evaluation.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

import numpy as np

from ..space.space import Configuration, SearchSpace

__all__ = ["initial_design", "initial_design_queue", "default_doe_size"]


def default_doe_size(space: SearchSpace, budget: int) -> int:
    """Paper-style rule of thumb: ~max(D+1, 10% of the budget), capped at budget/3."""
    size = max(space.dimension + 1, budget // 10, 3)
    return max(1, min(size, max(1, budget // 3)))


def initial_design(
    space: SearchSpace,
    n_samples: int,
    rng: np.random.Generator,
    deduplicate: bool = True,
    max_attempts_factor: int = 20,
) -> list[Configuration]:
    """Sample the initial configurations uniformly from the feasible region.

    Draws whole row batches through :meth:`SearchSpace.sample_rows` — the
    first batch covers the requested size, follow-up batches cover whatever
    de-duplication rejected — instead of one rejection-sampled configuration
    per loop iteration.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    samples: list[Configuration] = []
    seen: set[tuple] = set()
    decode = space.encoder.decode
    attempts = 0
    max_attempts = max_attempts_factor * n_samples
    while len(samples) < n_samples and attempts < max_attempts:
        batch = min(n_samples - len(samples), max_attempts - attempts)
        attempts += batch
        for row in space.sample_rows(rng, batch):
            config = decode(row)
            key = space.freeze(config)
            if deduplicate and key in seen:
                continue
            seen.add(key)
            samples.append(config)
    # If the space is tiny (fewer feasible points than requested), allow
    # duplicates rather than failing: the tuner still needs a full DoE.
    if len(samples) < n_samples:
        rows = space.sample_rows(rng, n_samples - len(samples))
        samples.extend(decode(row) for row in rows)
    return samples


def initial_design_queue(
    space: SearchSpace,
    n_samples: int,
    budget: int,
    rng: np.random.Generator,
    **kwargs,
) -> deque[Configuration]:
    """The initial design as a consumable queue for ask/tell sessions.

    The whole design is drawn up front (capped at ``budget``), exactly as the
    historical push-driven loops did, so session-based runs consume the RNG in
    the same order and stay bit-identical.  The remaining queue is part of the
    tuner's snapshot state.
    """
    return deque(initial_design(space, min(n_samples, budget), rng, **kwargs))

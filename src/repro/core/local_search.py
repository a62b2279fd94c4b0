"""Multi-start local search for acquisition-function optimization.

BaCO optimizes its acquisition function (Sec. 3.3) by

1. sampling a large batch of feasible configurations uniformly at random
   (from the Chain-of-Trees where available),
2. keeping the best few as starting points,
3. hill-climbing each start over the *feasible* one-parameter-change
   neighbourhood until no neighbour improves the acquisition value,
4. returning the best configuration found that has not already been
   evaluated.

Because known constraints are enforced when generating both the random batch
and the neighbourhoods, the acquisition optimizer only ever proposes feasible
configurations.

The whole optimizer runs in **row space**: the random batch is one
``SearchSpace.sample_rows`` call, every climb step materializes the union of
all still-active starts' neighbourhoods as a single row matrix
(``SearchSpace.neighbour_rows_batch`` — each parameter's moves looked up in
the space's neighbourhood tables, the Chain-of-Trees' feasible values for
the parameters it covers, feasibility by compiled residual constraints), and
one batched ``acquisition.evaluate_rows`` call scores it.  A climb step
passes a few rows, so the tables are read row by row and filled into one
gather rather than built per parameter with numpy calls.  Configurations are
decoded to dicts only for the returned winners, i.e. at the tuner boundary.

There is one climb (:func:`_climb_and_rank`) behind two start-selection
front ends: :func:`multistart_local_search_batch` draws a fresh random batch
per call and is the one the tuner uses; :func:`pooled_local_search_batch`
starts from a caller's pre-scored rows.
"""
# repro: hot-path — row-space module: per-row Python loops, .tolist(), and in-loop decode are flagged (see repro.analysis)

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from ..space.space import Configuration, SearchSpace

__all__ = [
    "LocalSearchSettings",
    "multistart_local_search_batch",
    "pooled_local_search_batch",
    "random_candidate_rows",
]


class LocalSearchSettings:
    """Knobs of the acquisition optimizer."""

    def __init__(
        self,
        n_random_samples: int = 256,
        n_starts: int = 5,
        max_steps: int = 32,
    ) -> None:
        if n_random_samples < 1 or n_starts < 1 or max_steps < 0:
            raise ValueError("local-search settings must be positive")
        self.n_random_samples = n_random_samples
        self.n_starts = min(n_starts, n_random_samples)
        self.max_steps = max_steps


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """Distinct rows in first-seen order (row equality == config equality).

    One 1-D ``np.unique`` over one void element per row; adding 0.0 turns
    -0.0 into 0.0 first, so rows are equal exactly when their values are."""
    if len(rows) == 0:
        return rows
    row = np.dtype((np.void, rows.itemsize * rows.shape[1]))
    _, first = np.unique(np.ascontiguousarray(rows + 0.0).view(row).ravel(), return_index=True)
    return rows[np.sort(first)]


def random_candidate_rows(
    space: SearchSpace, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform feasible candidates as encoded rows; duplicates collapsed."""
    return _unique_rows(space.sample_rows(rng, n_samples))


def _phase(profiler: Any | None, name: str):
    return profiler.phase(name) if profiler is not None else nullcontext()


def _climb_and_rank(
    space: SearchSpace,
    score: Callable[[np.ndarray], np.ndarray],
    rows: np.ndarray,
    values: np.ndarray,
    order: np.ndarray,
    start_indices: Sequence[int] | np.ndarray,
    settings: LocalSearchSettings,
    exclude: Iterable[tuple],
    k: int,
    profiler: Any | None,
) -> list[tuple[Configuration, float]]:
    """Climb from ``rows[start_indices]`` and rank the top-``k`` results.

    ``rows`` are scored candidates with acquisition ``values`` and
    ``order = argsort(-values)``.  Per lockstep step, the neighbourhoods of
    every still-active start come from one ``neighbour_rows_batch`` call
    (owner-major), are scored in one ``score`` call, and each start
    moves to the argmax of its own slice when that strictly improves on it,
    exactly as if it climbed alone.  The per-start local optima are ranked
    by value (ties keep start order) and de-duplicated; when fewer than
    ``k`` remain, the ranked ``rows`` back-fill the rest.
    """
    excluded = set(exclude)
    decode = space.encoder.decode
    starts = rows[start_indices]
    start_values = values[start_indices].astype(float)
    current = starts.copy()
    current_values = start_values.copy()
    active = list(range(len(starts)))

    for _ in range(settings.max_steps):
        if not active:
            break
        with _phase(profiler, "climb"):
            fused, owners = space.neighbour_rows_batch(current[active])
            lengths = np.bincount(owners, minlength=len(active))
        if len(fused) == 0:
            break
        fused_values = score(fused)
        with _phase(profiler, "climb"):
            still_active: list[int] = []
            offset = 0
            for start_index, length in zip(active, lengths):
                if length:
                    best = offset + int(np.argmax(fused_values[offset : offset + length]))
                    if fused_values[best] > current_values[start_index]:
                        current[start_index] = fused[best]
                        current_values[start_index] = float(fused_values[best])
                        still_active.append(start_index)
                offset += length
            active = still_active

    # Per start: the first non-excluded of (climbed optimum, original start),
    # kept only when its value beats -inf (NaN and -inf never win).
    winners: list[tuple[Configuration, float]] = []
    for i in range(len(starts)):
        candidate_pool = [
            (current[i], float(current_values[i])),
            (starts[i], float(start_values[i])),
        ]
        # repro: allow[hot-path-purity] tuner boundary: decodes at most two rows (climbed optimum, original start) per start
        for row, row_value in candidate_pool:
            config = decode(row)
            if space.freeze(config) in excluded:
                continue
            if row_value > -np.inf:
                winners.append((config, row_value))
            break
    # Stable sort: ties keep start order, so the first entry equals the
    # single-result argmax.
    winners.sort(key=lambda pair: -pair[1])

    results: list[tuple[Configuration, float]] = []
    taken: set[tuple] = set()
    for config, config_value in winners:
        key = space.freeze(config)
        if key in taken:
            continue
        taken.add(key)
        results.append((config, config_value))
        if len(results) == k:
            return results

    # Not enough distinct local optima: back-fill from the ranked candidates
    # (also the fallback when every optimum was already evaluated).
    for i in order:
        if len(results) == k:
            break
        if not np.isfinite(values[i]):
            continue
        config = decode(rows[i])  # repro: allow[hot-path-purity] boundary back-fill: decodes at most k ranked winners
        key = space.freeze(config)
        if key in excluded or key in taken:
            continue
        taken.add(key)
        results.append((config, float(values[i])))
    return results


def multistart_local_search_batch(
    space: SearchSpace,
    acquisition: Any,
    rng: np.random.Generator,
    settings: LocalSearchSettings | None = None,
    exclude: Iterable[tuple] = (),
    k: int = 1,
    profiler: Any | None = None,
) -> list[tuple[Configuration, float]]:
    """The top-``k`` distinct configurations according to ``acquisition``.

    ``acquisition`` scores encoded rows through its
    ``evaluate_rows(rows, space.encoder)``.  One fresh random-row batch per
    call; its ``n_starts`` best rows seed the
    climb of :func:`_climb_and_rank`, and the batch back-fills the ranking.
    ``exclude`` holds frozen keys that must not be returned (typically the
    evaluated configurations); an empty list means every candidate was
    excluded or scored ``-inf``, and the caller falls back to random sampling.

    ``profiler`` — optional :class:`~repro.core.profiling.PhaseProfiler`;
    attributes the candidate draw to ``"sample"`` and the climb bookkeeping to
    ``"climb"`` (scoring attributes itself to ``"predict"``/``"ei"`` through
    the acquisition).  Pure observation: the search is byte-identical with and
    without it.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    settings = settings or LocalSearchSettings()
    with _phase(profiler, "sample"):
        candidates = random_candidate_rows(space, settings.n_random_samples, rng)
    if len(candidates) == 0:
        return []
    encoder = space.encoder

    def score(rows: np.ndarray) -> np.ndarray:
        return acquisition.evaluate_rows(rows, encoder)

    values = score(candidates)
    order = np.argsort(-values)
    return _climb_and_rank(
        space, score, candidates, values, order, order[: settings.n_starts],
        settings, exclude, k, profiler,
    )


# Unused by the tuner; kept because perfbench/tracing.py:PATCHES wraps it by name.
def pooled_local_search_batch(
    space: SearchSpace,
    scorer: Any,
    pool_rows: np.ndarray,
    pool_values: np.ndarray,
    settings: LocalSearchSettings | None = None,
    exclude: Iterable[tuple] = (),
    k: int = 1,
    profiler: Any | None = None,
) -> tuple[list[tuple[Configuration, float]], list[int]]:
    """The top-``k`` configurations from a pre-scored candidate pool.

    Instead of drawing a fresh random batch, the caller hands in the pool
    (``pool_rows``) with its acquisition values (``pool_values``, typically
    from :meth:`~repro.core.acquisition.FusedAcquisitionScorer.prime_pool`),
    and ``scorer`` is that
    :class:`~repro.core.acquisition.FusedAcquisitionScorer`, whose memo
    folds away re-visited rows during the climb.

    Dead starts are pruned: rows whose pooled value is ``-inf`` or NaN
    (ε_f-filtered or otherwise unscorable) and repeated rows never seed a
    climb; a pool without live rows returns ``([], [])``.

    Returns ``(ranked, start_indices)`` where ``start_indices`` are the pool
    row indices consumed as climb starts.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    settings = settings or LocalSearchSettings()
    pool_values = np.asarray(pool_values, dtype=float)
    order = np.argsort(-pool_values)
    start_indices: list[int] = []
    seen_start_keys: set[bytes] = set()
    for i in order:
        if len(start_indices) == settings.n_starts:
            break
        if not np.isfinite(pool_values[i]):
            continue
        key = pool_rows[i].tobytes()
        if key in seen_start_keys:
            continue
        seen_start_keys.add(key)
        start_indices.append(int(i))
    if not start_indices:
        return [], []
    ranked = _climb_and_rank(
        space, scorer.score_rows, pool_rows, pool_values, order, start_indices,
        settings, exclude, k, profiler,
    )
    return ranked, start_indices

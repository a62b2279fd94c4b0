"""Experiment runner: execute tuners on benchmarks, with an on-disk cache.

The paper's figures and tables all derive from the same raw data: tuning
histories of each autotuner on each benchmark, repeated over several seeds.
:func:`run_single` produces one such history (and caches it as JSON under the
configured cache directory); :func:`run_benchmark` and :func:`run_suite` fan
out over repetitions / tuners / benchmarks.

Tuner *variants* cover every algorithm configuration appearing in the
evaluation: the five main tuners of Fig. 5/7, the BaCO--, Ytopt (GP) and
RF-surrogate variants of Fig. 8, the permutation-metric / transformation /
prior ablations of Fig. 9, and the hidden-constraint ablations of Fig. 10.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..baselines.opentuner import OpenTunerLikeTuner
from ..baselines.random_search import CoTSamplingTuner, UniformSamplingTuner
from ..baselines.ytopt import YtoptLikeTuner
from ..core.baco import BacoSettings, BacoTuner
from ..core.result import ObjectiveResult, TuningHistory
from ..core.session import Suggestion, TuningSession, drive
from ..core.tuner import Tuner
from ..space.space import SearchSpace
from ..workloads.base import Benchmark
from ..workloads.registry import get_benchmark
from .config import ExperimentConfig, default_config

__all__ = [
    "MAIN_TUNERS",
    "TUNER_VARIANTS",
    "make_tuner",
    "make_session",
    "drive_parallel",
    "load_session",
    "restore_session",
    "save_session",
    "run_single",
    "run_benchmark",
    "run_suite",
]

#: the five tuners compared throughout the evaluation (Fig. 5, 7, Tables 5-9)
MAIN_TUNERS = (
    "BaCO",
    "ATF with OpenTuner",
    "Ytopt",
    "Uniform Sampling",
    "CoT Sampling",
)


def _fast_overrides() -> dict:
    """Cheaper BaCO internals for CI-scale runs (same algorithm, less effort)."""
    return {
        "gp_prior_samples": 8,
        "gp_refined_starts": 1,
        "gp_max_iterations": 15,
        "n_random_samples": 128,
        "n_local_search_starts": 3,
        "max_local_search_steps": 16,
        "feasibility_trees": 16,
        "rf_trees": 16,
    }


def _baco_settings(fidelity: str, **kwargs) -> BacoSettings:
    overrides = _fast_overrides() if fidelity == "fast" else {}
    overrides.update(kwargs)
    return BacoSettings(**overrides)


def _baco_minus_minus_settings(fidelity: str) -> BacoSettings:
    base = BacoSettings.baco_minus_minus()
    if fidelity == "fast":
        for key, value in _fast_overrides().items():
            setattr(base, key, value)
    return base


#: name -> factory(space, seed, fidelity) for every algorithm variant
TUNER_VARIANTS: dict[str, Callable[[SearchSpace, int, str], Tuner]] = {
    "BaCO": lambda space, seed, fid: BacoTuner(space, settings=_baco_settings(fid), seed=seed),
    "ATF with OpenTuner": lambda space, seed, fid: OpenTunerLikeTuner(space, seed=seed),
    "Ytopt": lambda space, seed, fid: YtoptLikeTuner(space, seed=seed, surrogate="rf"),
    "Ytopt (GP)": lambda space, seed, fid: YtoptLikeTuner(space, seed=seed, surrogate="gp"),
    "Uniform Sampling": lambda space, seed, fid: UniformSamplingTuner(space, seed=seed),
    "CoT Sampling": lambda space, seed, fid: CoTSamplingTuner(space, seed=seed),
    # Fig. 8: BO implementation comparison
    "BaCO--": lambda space, seed, fid: BacoTuner(
        space, settings=_baco_minus_minus_settings(fid), seed=seed
    ),
    "BaCO (RF surrogate)": lambda space, seed, fid: BacoTuner(
        space, settings=_baco_settings(fid, surrogate="rf"), seed=seed
    ),
    "BaCO (fast surrogate)": lambda space, seed, fid: BacoTuner(
        space, settings=_baco_settings(fid, surrogate_policy="fast"), seed=seed
    ),
    # Fig. 9: ablations
    "BaCO (kendall)": lambda space, seed, fid: BacoTuner(
        space, settings=_baco_settings(fid, permutation_metric="kendall"), seed=seed
    ),
    "BaCO (hamming)": lambda space, seed, fid: BacoTuner(
        space, settings=_baco_settings(fid, permutation_metric="hamming"), seed=seed
    ),
    "BaCO (naive permutations)": lambda space, seed, fid: BacoTuner(
        space, settings=_baco_settings(fid, permutation_metric="naive"), seed=seed
    ),
    "BaCO (no transformations)": lambda space, seed, fid: BacoTuner(
        space, settings=_baco_settings(fid, use_transformations=False), seed=seed
    ),
    "BaCO (no priors)": lambda space, seed, fid: BacoTuner(
        space, settings=_baco_settings(fid, use_lengthscale_priors=False), seed=seed
    ),
    # Fig. 10: hidden-constraint handling
    "BaCO (no hidden constraints)": lambda space, seed, fid: BacoTuner(
        space, settings=_baco_settings(fid, use_feasibility_model=False), seed=seed
    ),
    "BaCO (no feasibility limit)": lambda space, seed, fid: BacoTuner(
        space, settings=_baco_settings(fid, use_feasibility_threshold=False), seed=seed
    ),
}


def make_tuner(
    name: str,
    space: SearchSpace,
    seed: int,
    fidelity: str = "fast",
    surrogate_policy: str | None = None,
) -> Tuner:
    """Instantiate a tuner variant by display name.

    ``surrogate_policy`` (a :class:`~repro.core.baco.SurrogatePolicy` spec
    string, e.g. ``"fast,refit_every=8"``) overrides the variant's surrogate
    refit policy; only BaCO-family tuners accept one.
    """
    if name not in TUNER_VARIANTS:
        raise KeyError(f"unknown tuner {name!r}; available: {sorted(TUNER_VARIANTS)}")
    tuner = TUNER_VARIANTS[name](space, seed, fidelity)
    tuner.name = name
    if surrogate_policy is not None:
        if not hasattr(tuner, "set_surrogate_policy"):
            raise ValueError(
                f"tuner {name!r} does not support a surrogate policy"
            )
        tuner.set_surrogate_policy(surrogate_policy)
    return tuner


# ---------------------------------------------------------------------------
# caching
# ---------------------------------------------------------------------------

def _effective_eval_workers(config: ExperimentConfig, benchmark: str) -> int:
    """The ask() batch size a run of this benchmark will actually use.

    Ad-hoc benchmarks cannot be re-resolved inside evaluation workers, so
    they always run the serial trace regardless of ``config.eval_workers`` —
    and must cache under the serial identity.
    """
    if config.eval_workers > 1 and _registry_resolvable(benchmark):
        return config.eval_workers
    return 1


def _cache_path(
    config: ExperimentConfig, benchmark: str, tuner: str, budget: int, seed: int
) -> Path:
    key = f"{benchmark}|{tuner}|{budget}|{seed}|{config.fidelity}"
    suffix = ""
    eval_workers = _effective_eval_workers(config, benchmark)
    if eval_workers > 1:
        # batched ask/tell evaluation legitimately changes the trace, so it
        # gets its own cache identity; serial paths keep their historical keys
        key += f"|q{eval_workers}"
        suffix = f"__q{eval_workers}"
    digest = hashlib.sha256(key.encode()).hexdigest()[:20]
    safe_tuner = "".join(c if c.isalnum() else "_" for c in tuner)
    return config.cache_dir / (
        f"{benchmark}__{safe_tuner}__b{budget}__s{seed}{suffix}__{digest}.json"
    )


#: history fields that are wall-clock measurements, not part of the algorithmic
#: trace.  They are cached in a ``.timing`` sidecar so the history JSON itself
#: is a deterministic function of (benchmark, tuner, budget, seed, fidelity) —
#: serial and parallel sweeps write bit-identical history files.
_TIMING_FIELDS = ("tuner_seconds", "evaluation_seconds")


def _timing_path(path: Path) -> Path:
    return path.with_suffix(".timing")


def run_single(
    benchmark: Benchmark | str,
    tuner_name: str,
    budget: int,
    seed: int,
    config: ExperimentConfig | None = None,
) -> TuningHistory:
    """Run (or load from cache) one tuner on one benchmark for one seed."""
    config = config or default_config()
    if isinstance(benchmark, str):
        benchmark = get_benchmark(benchmark)
    path = _cache_path(config, benchmark.name, tuner_name, budget, seed)
    if config.use_cache and path.exists():
        try:
            history = TuningHistory.from_dict(json.loads(path.read_text()))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            # malformed payloads (truncated JSON, missing keys, wrong shapes /
            # types) all take the same unlink-and-recompute path
            path.unlink(missing_ok=True)
        else:
            timing_path = _timing_path(path)
            if timing_path.exists():
                try:
                    timings = json.loads(timing_path.read_text())
                    for fld in _TIMING_FIELDS:
                        setattr(history, fld, float(timings.get(fld, 0.0)))
                except (json.JSONDecodeError, TypeError, ValueError):
                    pass
            return history
    tuner = make_tuner(tuner_name, benchmark.space, seed, fidelity=config.fidelity)
    eval_workers = _effective_eval_workers(config, benchmark.name)
    if eval_workers > 1:
        session = tuner.start_session(budget, benchmark_name=benchmark.name)
        history = drive_parallel(session, eval_workers)
    else:
        history = tuner.tune(benchmark.evaluator, budget, benchmark_name=benchmark.name)
    if config.use_cache:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = history.to_dict()
        timings = {fld: payload.pop(fld) for fld in _TIMING_FIELDS if fld in payload}
        path.write_text(json.dumps(payload))
        _timing_path(path).write_text(json.dumps(timings))
    return history


# ---------------------------------------------------------------------------
# ask/tell sessions: parallel evaluation and checkpointing
# ---------------------------------------------------------------------------

def _registry_resolvable(name: str) -> bool:
    """Whether evaluation workers can re-resolve this benchmark by name."""
    try:
        get_benchmark(name)
    except KeyError:
        return False
    return True


def _pool_init(parent_sys_path: list[str]) -> None:
    """Make ``repro`` importable in spawned evaluation workers."""
    for entry in parent_sys_path:
        if entry not in sys.path:
            sys.path.append(entry)


def _evaluate_in_worker(
    benchmark_name: str, configuration: Mapping[str, Any]
) -> tuple[ObjectiveResult, float]:
    """Process-pool task: one black-box evaluation, timed inside the worker."""
    benchmark = get_benchmark(benchmark_name)
    started = time.perf_counter()
    result = benchmark.evaluator(configuration)
    return result, time.perf_counter() - started


def drive_parallel(
    session: TuningSession,
    eval_workers: int,
    after_tell: Callable[[TuningSession], None] | None = None,
) -> TuningHistory:
    """Drive a session to completion with ``ask(q)`` batches over a process pool.

    Suggestions of each batch are evaluated concurrently and told back in
    suggestion-id order, so the trace is a deterministic function of
    (tuner, seed, budget, q) regardless of worker scheduling.  The session's
    benchmark must be registry-resolvable by name (workers re-resolve it).
    ``after_tell`` runs after each told batch (checkpoint hooks).
    """
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_all_start_methods, get_context

    benchmark_name = session.benchmark_name
    context = get_context("fork" if "fork" in get_all_start_methods() else "spawn")
    start = time.perf_counter()
    with ProcessPoolExecutor(
        max_workers=eval_workers,
        mp_context=context,
        initializer=_pool_init,
        initargs=(list(sys.path),),
    ) as pool:

        def evaluate_batch(
            suggestions: Sequence[Suggestion],
        ) -> list[tuple[ObjectiveResult, float]]:
            futures = [
                pool.submit(_evaluate_in_worker, benchmark_name, s.configuration)
                for s in suggestions
            ]
            return [future.result() for future in futures]

        history = drive(
            session,
            batch_size=eval_workers,
            evaluate_batch=evaluate_batch,
            after_tell=after_tell,
        )
    total = time.perf_counter() - start
    history.tuner_seconds = max(0.0, total - history.evaluation_seconds)
    return history


def make_session(
    benchmark: Benchmark | str,
    tuner_name: str,
    budget: int,
    seed: int,
    fidelity: str = "fast",
    surrogate_policy: str | None = None,
) -> tuple[TuningSession, Benchmark]:
    """A fresh ask/tell session for one (benchmark, tuner, budget, seed) cell.

    ``surrogate_policy`` is recorded in the session metadata (like the
    fidelity) so checkpoints and service restores rebuild the tuner with the
    same policy.
    """
    if isinstance(benchmark, str):
        benchmark = get_benchmark(benchmark)
    tuner = make_tuner(
        tuner_name, benchmark.space, seed,
        fidelity=fidelity, surrogate_policy=surrogate_policy,
    )
    session = tuner.start_session(budget, benchmark_name=benchmark.name)
    session.meta["fidelity"] = fidelity
    if surrogate_policy is not None:
        session.meta["surrogate_policy"] = surrogate_policy
    return session, benchmark


def save_session(session: TuningSession, path: Path | str, fidelity: str | None = None) -> Path:
    """Write a crash-safe session checkpoint (atomic rename) and return it.

    The payload embeds everything :func:`load_session` needs to rebuild the
    tuner from the registry: the snapshot names the tuner variant, seed,
    budget, benchmark, and (via the session metadata) the fidelity the tuner
    was built with.  Pass ``fidelity`` only to override the recorded one.
    """
    path = Path(path)
    if fidelity is not None:
        session.meta["fidelity"] = fidelity
    payload = session.snapshot()
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w") as handle:
        handle.write(json.dumps(payload))
        handle.flush()
        os.fsync(handle.fileno())  # survive a hard kill right after the rename
    os.replace(tmp, path)
    return path


def restore_session(payload: Mapping[str, Any]) -> tuple[TuningSession, Benchmark]:
    """Rebuild a live session (and its benchmark) from a snapshot payload.

    The benchmark is re-resolved by name through the workload registry and a
    fresh tuner is constructed with the snapshotted variant name, seed, and
    fidelity before :meth:`TuningSession.restore` replays the state.  Shared
    by :func:`load_session` (checkpoint files) and the tuning service's
    inline-payload ``restore`` op.
    """
    meta = payload.get("session")
    if not isinstance(meta, Mapping):
        raise ValueError("snapshot payload has no 'session' section")
    benchmark_name = meta.get("benchmark_name", "")
    if not benchmark_name:
        raise ValueError(
            "snapshot does not name a registry benchmark; "
            "restore it manually via TuningSession.restore()"
        )
    benchmark = get_benchmark(benchmark_name)
    tuner_meta = payload.get("tuner")
    if not isinstance(tuner_meta, Mapping) or "name" not in tuner_meta:
        raise ValueError("snapshot payload has no 'tuner' section")
    if "seed" not in tuner_meta:
        # without the recorded seed the rebuilt tuner would be entropy-seeded
        # and the restored run would silently lose its determinism metadata
        raise ValueError("snapshot payload has no tuner seed")
    snap_meta = payload.get("meta", {})
    tuner = make_tuner(
        tuner_meta["name"],
        benchmark.space,
        tuner_meta["seed"],
        fidelity=snap_meta.get("fidelity", "fast"),
        surrogate_policy=snap_meta.get("surrogate_policy"),
    )
    return TuningSession.restore(payload, tuner), benchmark


def load_session(path: Path | str) -> tuple[TuningSession, Benchmark]:
    """Rebuild a live session (and its benchmark) from a checkpoint file."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, Mapping):
        raise ValueError(f"checkpoint {path} is not a JSON object")
    try:
        return restore_session(payload)
    except ValueError as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from None


def run_benchmark(
    benchmark: Benchmark | str,
    tuner_names: Sequence[str] = MAIN_TUNERS,
    budget: int | None = None,
    config: ExperimentConfig | None = None,
) -> dict[str, list[TuningHistory]]:
    """Run several tuners on one benchmark for ``config.repetitions`` seeds.

    Execution is delegated to :mod:`repro.experiments.orchestrator`: with
    ``config.workers == 1`` (the default) the cells run serially in-process
    exactly as before; with more workers they fan out over a process pool and
    produce bit-identical cached histories.
    """
    config = config or default_config()
    if isinstance(benchmark, str):
        benchmark = get_benchmark(benchmark)
    budget = budget if budget is not None else config.scaled_budget(benchmark.full_budget)

    from .orchestrator import Cell, run_cells  # runner is imported by orchestrator

    grid = {
        tuner_name: [
            Cell(benchmark.name, tuner_name, budget, config.base_seed + repetition)
            for repetition in range(config.repetitions)
        ]
        for tuner_name in tuner_names
    }
    result = run_cells(
        [cell for cells in grid.values() for cell in cells],
        config,
        benchmarks={benchmark.name: benchmark},
        raise_on_error=True,
    )
    return {tuner: [result.history(cell) for cell in cells] for tuner, cells in grid.items()}


def run_suite(
    benchmark_names: Iterable[str],
    tuner_names: Sequence[str] = MAIN_TUNERS,
    config: ExperimentConfig | None = None,
) -> dict[str, dict[str, list[TuningHistory]]]:
    """Run the full cross product benchmark x tuner x repetition.

    Parallelism and resume behavior follow ``config.workers`` / ``config.resume``
    (see :mod:`repro.experiments.orchestrator`).
    """
    config = config or default_config()
    return {
        name: run_benchmark(name, tuner_names, config=config) for name in benchmark_names
    }

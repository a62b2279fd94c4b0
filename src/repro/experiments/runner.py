"""Experiment runner: execute tuners on benchmarks, with an on-disk cache.

The paper's figures and tables all derive from the same raw data: tuning
histories of each autotuner on each benchmark, repeated over several seeds.
:func:`run_single` produces one such history (and caches it as JSON under the
configured cache directory); :func:`run_benchmark` fans out over repetitions
and tuners.

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
from typing import Any, Callable, Mapping, Sequence

from ..baselines.opentuner import OpenTunerLikeTuner
from ..baselines.random_search import CoTSamplingTuner, UniformSamplingTuner
from ..baselines.ytopt import YtoptLikeTuner
from ..core.baco import BacoSettings, BacoTuner
from ..core import schema
from ..core.result import ObjectiveResult, TuningHistory, check_evaluations, history_declaration
from ..core.session import Suggestion, TuningSession, configuration_declaration, drive
from ..core.tuner import Tuner
from ..space.space import SearchSpace
from ..workloads.base import Benchmark
from ..workloads.registry import get_benchmark
from .config import FIDELITIES, ExperimentConfig, default_config

__all__ = [
    "MAIN_TUNERS",
    "TUNER_VARIANTS",
    "make_tuner",
    "make_session",
    "drive_parallel",
    "load_history",
    "load_session",
    "restore_session",
    "save_session",
    "run_single",
    "run_benchmark",
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
    if fidelity not in FIDELITIES:
        raise ValueError(f"unknown fidelity {fidelity!r}; expected one of {FIDELITIES}")
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

def _cache_path(
    config: ExperimentConfig, benchmark: str, tuner: str, budget: int, seed: int
) -> Path:
    key = f"{benchmark}|{tuner}|{budget}|{seed}|{config.fidelity}"
    digest = hashlib.sha256(key.encode()).hexdigest()[:20]
    safe_tuner = "".join(c if c.isalnum() else "_" for c in tuner)
    return config.cache_dir / f"{benchmark}__{safe_tuner}__b{budget}__s{seed}__{digest}.json"


def _write_atomically(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` through a synced temp file, so a crash
    leaves the old file or the new one, never a torn one."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())  # survive a hard kill right after the rename
    os.replace(tmp, path)


#: history fields that are wall-clock measurements, not part of the algorithmic
#: trace.  They are cached in a ``.timing`` sidecar so the history JSON itself
#: is a deterministic function of (benchmark, tuner, budget, seed, fidelity) —
#: serial and parallel sweeps write bit-identical history files.
_TIMING_FIELDS = ("tuner_seconds", "evaluation_seconds")


_TIMINGS = {fld: schema.number(at_least=0) for fld in _TIMING_FIELDS}


def _timing_path(path: Path) -> Path:
    return path.with_suffix(".timing")


def load_history(
    path: Path, benchmark: Benchmark, tuner_name: str, budget: int, seed: int
) -> TuningHistory | None:
    """The history cached at ``path`` if it is this cell's, else ``None``.

    The file must match the history declaration without the wall-clock
    fields: this cell's tuner, benchmark and seed, configurations legal in
    the benchmark's space, and exactly ``budget`` evaluations indexed
    ``0 .. budget - 1``.  The ``.timing`` sidecar is read through its own
    declaration; a malformed or missing one leaves the timings at zero.
    """
    declaration = history_declaration(
        configuration_declaration(benchmark.space),
        tuner=schema.one_of(tuner_name),
        benchmark=schema.one_of(benchmark.name),
        seed=schema.one_of(seed),
        timings=False,
    )
    try:
        payload = json.loads(path.read_text())
        schema.check(payload, declaration)
        check_evaluations(payload, "")
        if len(payload["evaluations"]) != budget:
            schema.fail("evaluations", f"{budget} entries long", len(payload["evaluations"]))
    except (OSError, ValueError):
        return None
    history = TuningHistory.from_dict(payload)
    try:
        timings = json.loads(_timing_path(path).read_text())
        schema.check(timings, _TIMINGS)
    except (OSError, ValueError):
        return history
    for fld in _TIMING_FIELDS:
        setattr(history, fld, timings[fld])
    return history


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
        history = load_history(path, benchmark, tuner_name, budget, seed)
        if history is not None:
            return history
        # a malformed file, or one holding another cell's history, is
        # unlinked and recomputed
        path.unlink(missing_ok=True)
    tuner = make_tuner(tuner_name, benchmark.space, seed, fidelity=config.fidelity)
    history = tuner.tune(benchmark.evaluator, budget, benchmark_name=benchmark.name)
    if config.use_cache:
        payload = history.to_dict()
        timings = {fld: payload.pop(fld) for fld in _TIMING_FIELDS if fld in payload}
        # the history lands last: a file load_history accepts has its sidecar
        _write_atomically(_timing_path(path), json.dumps(timings))
        _write_atomically(path, json.dumps(payload))
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
    """Make ``repro`` importable in spawned workers (evaluation and sweep pools)."""
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
    _write_atomically(path, json.dumps(session.snapshot()))
    return path


#: the fields :func:`restore_session` reads to rebuild the tuner; the rest of
#: the snapshot is checked by :meth:`TuningSession.restore`.  ``meta`` holds
#: what :func:`make_session` records plus the ``ask()`` batch size ``repro
#: tune`` drives the session with, and stays open: old checkpoints carry
#: keys no longer read (``propagate``).
_CHECKPOINT = {
    "session": {"benchmark_name": schema.string, ...: ...},
    "tuner": {"name": schema.string, "seed": schema.nullable(schema.integer()), ...: ...},
    "meta": {
        "fidelity": schema.one_of(*FIDELITIES),
        "surrogate_policy?": schema.string,
        "batch_size?": schema.integer(1),
        ...: ...,
    },
    ...: ...,
}


def restore_session(payload: Mapping[str, Any]) -> tuple[TuningSession, Benchmark]:
    """Rebuild a live session (and its benchmark) from a snapshot payload.

    The benchmark is re-resolved by name through the workload registry and a
    fresh tuner is constructed with the snapshotted variant name, seed, and
    fidelity before :meth:`TuningSession.restore` replays the state.  Shared
    by :func:`load_session` (checkpoint files) and the tuning service's
    inline-payload ``restore`` op.
    """
    schema.check(payload, _CHECKPOINT)
    benchmark_name = payload["session"]["benchmark_name"]
    if not benchmark_name:
        raise ValueError(
            "snapshot does not name a registry benchmark; "
            "restore it manually via TuningSession.restore()"
        )
    benchmark = get_benchmark(benchmark_name)
    meta = payload["meta"]
    tuner = make_tuner(
        payload["tuner"]["name"],
        benchmark.space,
        payload["tuner"]["seed"],
        fidelity=meta["fidelity"],
        surrogate_policy=meta.get("surrogate_policy"),
    )
    return TuningSession.restore(payload, tuner), benchmark


def load_session(path: Path | str) -> tuple[TuningSession, Benchmark]:
    """Rebuild a live session (and its benchmark) from a checkpoint file."""
    payload = json.loads(Path(path).read_text())
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
    ``config.workers == 1`` (the default) the cells run serially in-process;
    with more workers they fan out over a process pool and produce
    bit-identical cached histories.
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

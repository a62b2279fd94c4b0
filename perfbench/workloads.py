"""The three benchmark workloads and the checks that every run must pass.

* ``tune_hidden`` — BaCO on ``rise_mm_gpu`` (hidden constraints) at paper
  settings: ``fidelity="paper"``, the default ``exact`` surrogate policy and
  the full budget of 120, driven in-process through ``ask``/``tell``.
* ``tune_known`` — BaCO on ``taco_spmm_scircuit`` (known constraints only)
  at paper settings with the ``fast`` surrogate policy, the full budget of 60,
  over a fixed list of tuner seeds run back to back.
* ``serve_mix`` — a closed loop of two client connections against
  ``python -m repro serve --tcp`` in its own process: hot Uniform Sampling
  sessions driven by ask → local evaluate → tell pairs, and every
  ``TOUCH_EVERY`` pairs a ``status`` to a pre-seeded cold BaCO session that
  is on disk, which forces an LRU reload and an eviction autosave.

The tuner seeds of the ``tune_*`` workloads are pinned, so their trajectories
(and ``best_rel_expert``) are a deterministic function of the commit; the
benchmark ``--seed`` orders ``tune_known``'s runs and generates every
``serve_mix`` input (hot and cold session seeds, cold-touch order).

Each run, and every process it starts, is pinned to one core.  Untraced runs
probe that core's speed between operations, and every timing is corrected to
the core's uncontended speed (``speed.py``).
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from queue import Empty, Queue
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.client import ServiceError, TuningClient
from repro.core.result import ObjectiveResult, configuration_from_json
from repro.experiments import runner
from repro.workloads.registry import get_benchmark

from speed import SpeedMeter
from tracing import (
    Span,
    SpanRecorder,
    installed,
    layer_totals,
    roots_in_window,
    wrapper_cost_s,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: ``tune_hidden``: one paper-settings run; seed 3 is the ROADMAP item-1 probe
HIDDEN_BENCHMARK, HIDDEN_BUDGET, HIDDEN_SEED = "rise_mm_gpu", 120, 3
#: ``tune_known``: a run takes about 1.3 s on a 2-core x86 host, so a run of
#: ``--seconds`` s covers ``seconds / KNOWN_RUN_S`` seeds from this list
KNOWN_BENCHMARK, KNOWN_BUDGET, KNOWN_POLICY = "taco_spmm_scircuit", 60, "fast"
KNOWN_SEEDS = tuple(range(100, 140))
KNOWN_RUN_S = 1.5
#: a checkpoint save + load of the live session after every this many tells:
#: every tell of the single tune_hidden run, every 4th of the tune_known runs
HIDDEN_COLD_EVERY, KNOWN_COLD_EVERY = 1, 4
#: set-up repetitions; setup_s is their median
SETUP_REPEATS = 5

#: ``serve_mix`` traffic
SERVE_BENCHMARK = "rise_mm_gpu"
HOT_TUNER, HOT_BUDGET = "Uniform Sampling", 40
COLD_SESSIONS, COLD_EVALS, COLD_BUDGET = 8, 10, 120
MAX_SESSIONS = 4
CLIENTS = 2
TOUCH_EVERY = 20
#: each client probes the core's speed after every this many pairs
PROBE_EVERY = 16
WARMUP_S = 2.0
SERVER_TIMEOUT_S = 60.0


@dataclass
class Outcome:
    """Operation counts, problems found, and the measured metrics."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, dict[str, Any]] = field(default_factory=dict)
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, ok: bool, problem: str = "") -> None:
        with self.lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.problems.append(problem)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------

def check_run(
    space: Any,
    budget: int,
    told: Sequence[tuple[Mapping[str, Any], ObjectiveResult]],
    history_len: int,
    reported_best: float | None,
) -> list[str]:
    """Problems with one finished tuning run (empty when it is correct).

    ``told`` is what the harness itself evaluated and told back, in order;
    ``history_len`` and ``reported_best`` are what the system reports.
    """
    problems = []
    if history_len != budget or len(told) != budget:
        problems.append(f"history holds {history_len} evaluations, {len(told)} told, budget {budget}")
    keys = [space.freeze(configuration) for configuration, _ in told]
    if len(set(keys)) != len(keys):
        problems.append(f"{len(keys) - len(set(keys))} duplicate evaluations")
    unknown = sum(1 for configuration, _ in told if not space.is_feasible(configuration))
    if unknown:
        problems.append(f"{unknown} told configurations violate known constraints")
    feasible = [result.value for _, result in told if result.feasible]
    expected = min(feasible) if feasible else math.inf
    reported = math.inf if reported_best is None else reported_best
    if reported != expected:
        problems.append(f"reported best {reported!r} != minimum feasible value {expected!r}")
    return problems


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def percentile(samples: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=float), q)) if len(samples) else math.nan


def geometric_mean(values: Sequence[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else math.nan


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _setup_subprocess(benchmark: str, budget: int, policy: str | None) -> tuple[float, float]:
    """When a fresh interpreter started and finished importing repro and making a session.

    ``perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, so the child's times are
    on the parent's clock.
    """
    script = (
        "import sys, time\n"
        "start = time.perf_counter()\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from repro.experiments.runner import make_session\n"
        "from repro.workloads.registry import get_benchmark\n"
        "benchmark = get_benchmark(sys.argv[2])\n"
        "benchmark.expert_value\n"
        "make_session(benchmark, 'BaCO', int(sys.argv[3]), 0, fidelity='paper',\n"
        "             surrogate_policy=sys.argv[4] or None)\n"
        "print(start, time.perf_counter())\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(SRC), benchmark, str(budget), policy or ""],
        capture_output=True, text=True, timeout=SERVER_TIMEOUT_S, check=True,
    )
    start, end = done.stdout.strip().splitlines()[-1].split()
    return float(start), float(end)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: per-layer metric name -> unit, in report order
LAYER_UNITS = {
    "gp.fit_s": "s", "gp.fit_calls": "count", "gp.extend_s": "s", "gp.extend_calls": "count",
    "gp.predict_s": "s", "gp.predict_rows": "count",
    "feas.fit_s": "s", "feas.fit_calls": "count", "feas.fit_trained_frac": "ratio",
    "feas.predict_s": "s", "feas.predict_rows": "count",
    "space.sample_s": "s", "space.sample_calls": "count",
    "space.neighbours_s": "s", "space.neighbour_rows": "count",
    "acq.s": "s", "acq.rows": "count", "search.s": "s", "search.calls": "count",
    "session.ask_s": "s", "session.ask_calls": "count", "session.tell_s": "s",
    "session.snapshot_s": "s", "session.restore_s": "s", "session.restore_calls": "count",
    "eval.s": "s", "eval.calls": "count", "eval.infeasible_frac": "ratio",
    "service.handle_s": "s", "service.ops": "count", "service.errors": "count",
    "store.save_s": "s", "store.save_calls": "count", "store.save_bytes": "bytes",
    "store.load_s": "s", "store.load_calls": "count",
    "wire.s": "s", "wire.requests": "count",
    "other.s": "s", "other.frac": "ratio",
    "trace.workload_s": "s", "trace.spans": "count", "trace.overhead_frac": "ratio",
}

#: layers whose self time is reported as ``<layer>_s`` (or ``<layer>.s``)
_SELF_TIME = {
    "gp.fit": "gp.fit_s", "gp.extend": "gp.extend_s", "gp.predict": "gp.predict_s",
    "feas.fit": "feas.fit_s", "feas.predict": "feas.predict_s",
    "space.sample": "space.sample_s", "space.neighbours": "space.neighbours_s",
    "acq": "acq.s", "search": "search.s", "session.ask": "session.ask_s",
    "session.tell": "session.tell_s", "session.snapshot": "session.snapshot_s",
    "session.restore": "session.restore_s", "eval": "eval.s",
    "service.handle": "service.handle_s", "store.save": "store.save_s",
    "store.load": "store.load_s",
}
_CALLS = {
    "gp.fit": "gp.fit_calls", "gp.extend": "gp.extend_calls", "feas.fit": "feas.fit_calls",
    "space.sample": "space.sample_calls", "search": "search.calls",
    "session.ask": "session.ask_calls", "session.restore": "session.restore_calls",
    "eval": "eval.calls", "service.handle": "service.ops", "store.save": "store.save_calls",
    "store.load": "store.load_calls", "wire": "wire.requests",
}
_COUNTERS = ("gp.predict_rows", "feas.predict_rows", "space.neighbour_rows", "acq.rows",
             "service.errors", "store.save_bytes")


def layer_metrics(
    client_spans: Sequence[Span], workload_s: float, server_spans: Sequence[Span] = ()
) -> dict[str, float]:
    """Every per-layer metric from the spans of the timed window.

    ``workload_s`` is the traced window summed over load-generating threads.
    Client roots plus ``other`` cover it; the client's ``wire`` time is split
    into ``wire.s`` (framing, sockets, queueing) and the server's own spans.
    """
    client = layer_totals(client_spans)
    server = layer_totals(server_spans)
    counters = dict(client.counts)
    for key, value in server.counts.items():
        counters[key] = counters.get(key, 0) + value
    metrics = {name: 0.0 for name in LAYER_UNITS}
    for totals in (client, server):
        for layer, seconds in totals.self_s.items():
            if layer in _SELF_TIME:
                metrics[_SELF_TIME[layer]] += seconds
        for layer, calls in totals.calls.items():
            if layer in _CALLS:
                metrics[_CALLS[layer]] += calls
    for key in _COUNTERS:
        metrics[key] = float(counters.get(key, 0))
    forest_fits = client.fn_calls.get("RandomForestClassifier.fit", 0) + server.fn_calls.get(
        "RandomForestClassifier.fit", 0)
    if metrics["feas.fit_calls"]:
        metrics["feas.fit_trained_frac"] = forest_fits / metrics["feas.fit_calls"]
    if metrics["eval.calls"]:
        metrics["eval.infeasible_frac"] = counters.get("eval.infeasible", 0) / metrics["eval.calls"]
    # client wire spans have no client-side children, so their self time is
    # their total; the server's handle_line time inside them is not wire time
    metrics["wire.s"] = client.self_s.get("wire", 0.0) - server.total_s.get("service.handle", 0.0)
    metrics["other.s"] = workload_s - client.root_s
    metrics["other.frac"] = metrics["other.s"] / workload_s if workload_s > 0 else 0.0
    n_spans = len(client_spans) + len(server_spans)
    overhead = n_spans * wrapper_cost_s()
    metrics["trace.workload_s"] = workload_s
    metrics["trace.spans"] = float(n_spans)
    metrics["trace.overhead_frac"] = overhead / max(workload_s - overhead, 1e-9)
    return metrics


# ---------------------------------------------------------------------------
# tune_hidden / tune_known
# ---------------------------------------------------------------------------

@dataclass
class _TuneLog:
    """``(start, end)`` intervals on the ``perf_counter`` clock."""

    sessions: list[tuple[float, float]] = field(default_factory=list)
    asks: list[tuple[float, float]] = field(default_factory=list)
    pairs: list[tuple[float, float]] = field(default_factory=list)
    cold: list[tuple[float, float]] = field(default_factory=list)


def _evaluator(benchmark: Any, recorder: SpanRecorder | None) -> Callable:
    """The benchmark's black box; traced as the ``eval`` layer when recording."""
    if recorder is None:
        return benchmark.evaluator
    return recorder.wrap(
        benchmark.evaluator, "eval",
        lambda args, result: {"eval.infeasible": 0 if result.feasible else 1}, label="evaluator",
    )


def _cold_cycle(session: Any, path: Path, outcome: Outcome, log: _TuneLog) -> None:
    """Checkpoint-write + load-and-replay round trip of a live session."""
    start = time.perf_counter()
    runner.save_session(session, path)
    restored, _ = runner.load_session(path)
    log.cold.append((start, time.perf_counter()))
    same = (len(restored.history) == len(session.history)
            and restored.history.best_value() == session.history.best_value())
    outcome.record(same, f"reloaded {path.name} differs from the live session")


def _tune_once(
    benchmark: Any,
    budget: int,
    seed: int,
    policy: str | None,
    evaluate: Callable[[Mapping[str, Any]], ObjectiveResult],
    cold_every: int,
    recorder: SpanRecorder | None,
    meter: SpeedMeter,
    scratch: Path,
    outcome: Outcome,
    log: _TuneLog,
) -> tuple[Any, list[tuple[Mapping[str, Any], ObjectiveResult]]]:
    start = time.perf_counter()
    session, _ = runner.make_session(
        benchmark, "BaCO", budget, seed, fidelity="paper", surrogate_policy=policy
    )
    log.sessions.append((start, time.perf_counter()))
    meter.probe()
    told = []
    while not session.done:
        if recorder is not None:
            recorder.set_request(seed * 10_000 + len(told))
        start = time.perf_counter()
        (suggestion,) = session.ask(1)
        asked = time.perf_counter()
        result = evaluate(suggestion.configuration)
        session.tell(suggestion, result)
        end = time.perf_counter()
        meter.probe()
        told.append((suggestion.configuration, result))
        outcome.record(True)
        if suggestion.phase == "learning":
            log.asks.append((start, asked))
        log.pairs.append((start, end))
        if len(told) % cold_every == 0:
            _cold_cycle(session, scratch / f"seed{seed}.ckpt.json", outcome, log)
            meter.probe()
    return session, told


def _timed_setups(
    meter: SpeedMeter, run_once: Callable[[], tuple[float, float]]
) -> list[tuple[float, float]]:
    """The intervals of SETUP_REPEATS set-ups, each run between two probes."""
    intervals = []
    for _ in range(SETUP_REPEATS):
        meter.probe()
        intervals.append(run_once())
        meter.probe()
    return intervals


def run_tune(name: str, seed: int, seconds: int, trace: bool, scratch: Path) -> Outcome:
    if name == "tune_hidden":
        benchmark_name, budget, policy = HIDDEN_BENCHMARK, HIDDEN_BUDGET, None
        seeds, cold_every = [HIDDEN_SEED], HIDDEN_COLD_EVERY
    else:
        benchmark_name, budget, policy = KNOWN_BENCHMARK, KNOWN_BUDGET, KNOWN_POLICY
        cold_every = KNOWN_COLD_EVERY
        count = min(len(KNOWN_SEEDS), max(1, int(seconds / KNOWN_RUN_S)))
        seeds = list(KNOWN_SEEDS[:count])
        np.random.default_rng(seed).shuffle(seeds)
    outcome = Outcome()
    meter = SpeedMeter(enabled=not trace)
    setups = _timed_setups(meter, lambda: _setup_subprocess(benchmark_name, budget, policy))
    benchmark = get_benchmark(benchmark_name)
    expert = benchmark.expert_value
    recorder = SpanRecorder() if trace else None
    evaluate = _evaluator(benchmark, recorder)
    log = _TuneLog()
    relative = []
    with installed(recorder) if recorder is not None else nullcontext():
        window_start = time.perf_counter()
        meter.probe()
        for tuner_seed in seeds:
            session, told = _tune_once(benchmark, budget, tuner_seed, policy, evaluate,
                                       cold_every, recorder, meter, scratch, outcome, log)
            best = session.history.best_value()
            for problem in check_run(benchmark.space, budget, told, len(session.history), best):
                outcome.record(False, f"seed {tuner_seed}: {problem}")
            if math.isfinite(best):
                relative.append(expert / best)
        window_s = time.perf_counter() - window_start
    ask_ms = meter.corrected(log.asks) * 1e3
    pair_ms = meter.corrected(log.pairs) * 1e3
    cold_ms = meter.corrected(log.cold) * 1e3
    tune_s = float(meter.corrected(log.sessions).sum() + pair_ms.sum() / 1e3)
    outcome.put("tune_s", tune_s, "s")
    outcome.put("ask_ms_p50", percentile(ask_ms, 50), "ms")
    outcome.put("ask_ms_p90", percentile(ask_ms, 90), "ms")
    outcome.put("best_rel_expert", geometric_mean(relative), "ratio")
    outcome.put("pairs_per_s", len(pair_ms) / tune_s, "1/s")
    outcome.put("pair_ms_p50", percentile(pair_ms, 50), "ms")
    outcome.put("pair_ms_p99", percentile(pair_ms, 99), "ms")
    outcome.put("cold_ms_p50", percentile(cold_ms, 50), "ms")
    outcome.put("cold_ms_p90", percentile(cold_ms, 90), "ms")
    outcome.put("setup_s", statistics.median(meter.corrected(setups)), "s")
    outcome.put("peak_rss_mb", peak_rss_mb(resource.RUSAGE_SELF), "MB")
    if recorder is not None:
        layers = layer_metrics(recorder.spans(), window_s)
        for key, value in layers.items():
            outcome.put(key, value, LAYER_UNITS[key])
    print(meter.describe(), file=sys.stderr)
    return outcome


# ---------------------------------------------------------------------------
# serve_mix
# ---------------------------------------------------------------------------

class _Server:
    """``repro serve --tcp 0`` in its own process, traced or not."""

    def __init__(self, sessions_dir: Path, spans_path: Path | None) -> None:
        args = ["serve", "--tcp", "0", "--sessions-dir", str(sessions_dir),
                "--max-sessions", str(MAX_SESSIONS)]
        if spans_path is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            command = [sys.executable, str(BENCH_DIR / "serve_traced.py"), str(spans_path), *args]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.port: int | None = None
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
        )
        lines: Queue[str] = Queue()
        self._reader = threading.Thread(
            target=lambda: [lines.put(line) for line in self.process.stdout], daemon=True
        )
        self._reader.start()
        try:
            line = lines.get(timeout=SERVER_TIMEOUT_S)
        except Empty:
            self.stop()
            raise RuntimeError("server did not report its port") from None
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"unexpected server banner {line!r}")
        self.port = int(line.split()[2].rsplit(":", 1)[1])

    def stop(self) -> int:
        """Ask the server to shut down (SIGTERM if that fails) and reap it."""
        if self.process.poll() is None:
            try:
                if self.port is None:
                    raise ConnectionError("the server never reported its port")
                with TuningClient(port=self.port, timeout=SERVER_TIMEOUT_S) as client:
                    client.shutdown()
            except (OSError, ServiceError):
                self.process.terminate()
        try:
            code = self.process.wait(timeout=SERVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait()
        self._reader.join(timeout=SERVER_TIMEOUT_S)
        return code


def _seed_cold_sessions(sessions_dir: Path, seed: int, evaluate: Callable) -> None:
    """Write COLD_SESSIONS autosave checkpoints holding COLD_EVALS evaluations each."""
    rng = np.random.default_rng([seed, 1])
    for index in range(COLD_SESSIONS):
        session, _ = runner.make_session(SERVE_BENCHMARK, "BaCO", COLD_BUDGET,
                                         int(rng.integers(1 << 30)), fidelity="paper")
        for _ in range(COLD_EVALS):
            (suggestion,) = session.ask(1)
            session.tell(suggestion, evaluate(suggestion.configuration))
        runner.save_session(session, sessions_dir / f"cold{index}.ckpt.json")


@dataclass
class _ClientLog:
    pairs: list[tuple[float, float]] = field(default_factory=list)
    asks: list[tuple[float, float]] = field(default_factory=list)
    cold: list[tuple[float, float]] = field(default_factory=list)
    #: (start, end, expert / best) of each completed hot session
    runs: list[tuple[float, float, float]] = field(default_factory=list)
    last_end: float = 0.0


def request(client: TuningClient, outcome: Outcome, op: str, **fields: Any) -> dict[str, Any] | None:
    """One server op; a refused op or a response that is not strict JSON is a failure."""
    try:
        response = client.request(op, **fields)
    except (ServiceError, ConnectionError, ValueError) as exc:
        outcome.record(False, f"{op}: {exc}")
        return None
    outcome.record(True)
    return response


def _client_loop(
    index: int, port: int, seed: int, deadline: float, evaluate: Callable,
    space: Any, expert: float, recorder: SpanRecorder | None, meter: SpeedMeter,
    outcome: Outcome, log: _ClientLog,
) -> None:
    rng = np.random.default_rng([seed, 2, index])
    # each client cycles over its own cold sessions, so the session it touches
    # next is never one of the (at most two) cold sessions still in memory
    cold_names = [f"cold{i}" for i in rng.permutation(range(index, COLD_SESSIONS, CLIENTS))]
    hot = f"hot{index}"

    def call(op: str, **fields: Any) -> dict[str, Any] | None:
        return request(client, outcome, op, **fields)

    with TuningClient(port=port, session=hot, timeout=SERVER_TIMEOUT_S) as client:
        pair_id = index * 1_000_000
        touches = 0
        while time.perf_counter() < deadline:
            run_start = time.perf_counter()
            started = call("start", benchmark=SERVE_BENCHMARK, tuner=HOT_TUNER,
                           budget=HOT_BUDGET, seed=int(rng.integers(1 << 30)), force=True)
            told: list[tuple[Mapping[str, Any], ObjectiveResult]] = []
            response: dict[str, Any] | None = None
            while started is not None and len(told) < HOT_BUDGET and time.perf_counter() < deadline:
                pair_id += 1
                if recorder is not None:
                    recorder.set_request(pair_id)
                start = time.perf_counter()
                asked = call("ask", n=1)
                asked_at = time.perf_counter()
                if asked is None:
                    break
                if len(asked["suggestions"]) != 1:
                    outcome.record(False, f"ask returned {asked!r}")
                    break
                entry = asked["suggestions"][0]
                configuration = configuration_from_json(entry["configuration"])
                result = evaluate(configuration)
                value = result.value if math.isfinite(result.value) else repr(result.value)
                response = call("tell", id=int(entry["id"]), value=value, feasible=result.feasible)
                end = time.perf_counter()
                if response is None:
                    break
                told.append((configuration, result))
                log.pairs.append((start, end))
                log.asks.append((start, asked_at))
                if len(log.pairs) % PROBE_EVERY == 0:
                    meter.probe()
                if len(log.pairs) % TOUCH_EVERY == 0:
                    name = cold_names[touches % len(cold_names)]
                    touches += 1
                    cold_start = time.perf_counter()
                    status = call("status", session=name)
                    log.cold.append((cold_start, time.perf_counter()))
                    if status is not None and (status["evaluations"] != COLD_EVALS
                                               or status["pending_ids"]):
                        outcome.record(False, f"{name} status reports {status['evaluations']} "
                                              f"evaluations, {status['pending_ids']} pending")
            if len(told) == HOT_BUDGET and response is not None:
                problems = check_run(space, HOT_BUDGET, told, response["index"] + 1,
                                     response["best_value"])
                for problem in problems:
                    outcome.record(False, f"{hot}: {problem}")
                if response["best_value"] is not None:
                    log.runs.append((run_start, time.perf_counter(), expert / response["best_value"]))
                call("close")
            elif started is None:
                break
        log.last_end = time.perf_counter()


def _load_server_spans(path: Path) -> list[Span]:
    return [Span(*entry) for entry in json.loads(path.read_text())]


def run_serve(seed: int, seconds: int, trace: bool, scratch: Path) -> Outcome:
    outcome = Outcome()
    benchmark = get_benchmark(SERVE_BENCHMARK)
    expert = benchmark.expert_value
    sessions_dir = scratch / "sessions"
    sessions_dir.mkdir(parents=True)
    _seed_cold_sessions(sessions_dir, seed, benchmark.evaluator)
    spans_path = scratch / "server_spans.json" if trace else None
    meter = SpeedMeter(enabled=not trace)
    recorder = SpanRecorder() if trace else None
    evaluate = _evaluator(benchmark, recorder)
    logs = [_ClientLog() for _ in range(CLIENTS)]
    server: _Server | None = None
    code = None

    def start_server() -> tuple[float, float]:
        nonlocal server
        if server is not None:
            server.stop()
        start = time.perf_counter()
        server = _Server(sessions_dir, spans_path)
        with TuningClient(port=server.port, timeout=SERVER_TIMEOUT_S) as first:
            first.sessions()
        return start, time.perf_counter()

    try:
        setups = _timed_setups(meter, start_server)
        with installed(recorder) if recorder is not None else nullcontext():
            window_start = time.perf_counter() + WARMUP_S
            deadline = window_start + seconds
            threads = [
                threading.Thread(
                    target=_client_loop,
                    args=(i, server.port, seed, deadline, evaluate, benchmark.space, expert,
                          recorder, meter, outcome, logs[i]),
                )
                for i in range(CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
    finally:
        if server is not None:
            code = server.stop()
    if code != 0:
        outcome.record(False, f"server exited with code {code}")

    def in_window(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
        return [(start, end) for start, end in intervals if window_start <= start < deadline]

    pairs = in_window([pair for log in logs for pair in log.pairs])
    asks = in_window([ask for log in logs for ask in log.asks])
    cold = in_window([touch for log in logs for touch in log.cold])
    runs = [(start, end, rel) for log in logs for start, end, rel in log.runs
            if window_start <= start and end <= deadline]
    completed = sum(1 for log in logs for _, end in log.pairs if window_start <= end < deadline)
    pair_ms = meter.corrected(pairs) * 1e3
    ask_ms = meter.corrected(asks) * 1e3
    cold_ms = meter.corrected(cold) * 1e3
    outcome.put("tune_s", percentile(meter.corrected([run[:2] for run in runs]), 50), "s")
    outcome.put("ask_ms_p50", percentile(ask_ms, 50), "ms")
    outcome.put("ask_ms_p90", percentile(ask_ms, 90), "ms")
    outcome.put("best_rel_expert", geometric_mean([rel for _, _, rel in runs]), "ratio")
    outcome.put("pairs_per_s", completed / meter.corrected([(window_start, deadline)])[0], "1/s")
    outcome.put("pair_ms_p50", percentile(pair_ms, 50), "ms")
    outcome.put("pair_ms_p99", percentile(pair_ms, 99), "ms")
    outcome.put("cold_ms_p50", percentile(cold_ms, 50), "ms")
    outcome.put("cold_ms_p90", percentile(cold_ms, 90), "ms")
    outcome.put("setup_s", statistics.median(meter.corrected(setups)), "s")
    outcome.put("peak_rss_mb", peak_rss_mb(resource.RUSAGE_CHILDREN), "MB")
    if recorder is not None:
        client_spans = roots_in_window(recorder.spans(), window_start, deadline)
        server_spans = roots_in_window(_load_server_spans(spans_path), window_start, deadline)
        workload_s = sum(log.last_end - window_start for log in logs)
        layers = layer_metrics(client_spans, workload_s, server_spans)
        for key, value in layers.items():
            outcome.put(key, value, LAYER_UNITS[key])
    print(meter.describe(), file=sys.stderr)
    return outcome


def run(name: str, seed: int, seconds: int, trace: bool) -> Outcome:
    """Run one workload; its scratch files live under the checkout and are removed."""
    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    # one core for the workload and every process it starts (children inherit
    # the affinity), so the speed probes measure the core that did the work
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        if name == "serve_mix":
            outcome = run_serve(seed, seconds, trace, scratch)
        else:
            outcome = run_tune(name, seed, seconds, trace, scratch)
        outcome.put("ok_rate", 1.0 - outcome.failed / max(outcome.attempted, 1), "ratio")
        return outcome
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

"""Command-line interface for the experiment orchestrator: ``python -m repro``.

Three subcommands operate on the (benchmark, tuner, budget, seed) cell grid:

* ``sweep``  — execute the grid (in parallel with ``--workers``), skipping
  cells whose cache file holds a valid history, so an interrupted sweep
  resumes where it left off, and recording each cell in the sweep manifest,
* ``status`` — summarize the grid against the cache and manifest without
  running anything,
* ``report`` — render a benchmark x tuner table of best-found values from
  cached histories only.

Two subcommands drive single ask/tell tuning sessions
(:mod:`repro.core.session`):

* ``tune``  — run one tuner on one benchmark with optional parallel
  evaluation (``--eval-workers``), periodic checkpointing
  (``--checkpoint``), and crash-safe resume (``--resume``, which reads the
  batch size from the checkpoint); ``--stop-after`` deliberately interrupts
  the run after N evaluations,
* ``serve`` — a long-running tuning service speaking JSON lines (see
  :mod:`repro.service`), for workloads where external systems evaluate the
  proposed configurations.  By default it serves one connection on
  stdin/stdout; with ``--tcp PORT`` it becomes a concurrent multi-session
  TCP server (:mod:`repro.server`) with named sessions, LRU eviction, and
  crash-safe autosave/resume via ``--sessions-dir``.

A further subcommand, ``check``, runs the static invariant checker
(:mod:`repro.analysis`).

Examples::

    PYTHONPATH=src python -m repro sweep --workers 4
    PYTHONPATH=src python -m repro sweep --benchmarks hpvm_bfs hpvm_audio \\
        --tuners "Uniform Sampling" "CoT Sampling" --repetitions 2 --workers 2
    PYTHONPATH=src python -m repro status
    PYTHONPATH=src python -m repro report --benchmarks rise_scal_gpu
    PYTHONPATH=src python -m repro tune --benchmark hpvm_bfs --tuner BaCO \\
        --budget 20 --seed 0 --checkpoint /tmp/bfs.ckpt.json --eval-workers 4
    PYTHONPATH=src python -m repro tune --resume --checkpoint /tmp/bfs.ckpt.json
    PYTHONPATH=src python -m repro serve
    PYTHONPATH=src python -m repro serve --tcp 7730 --sessions-dir runs/ \\
        --max-sessions 16

Environment variables (``REPRO_*``, see :mod:`repro.experiments.config`)
provide the defaults; command-line flags override them.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .analysis import cli as analysis_cli
from .experiments.config import FIDELITIES, ExperimentConfig, default_config
from .experiments.figures import suite_benchmarks
from .experiments.orchestrator import (
    cached_history,
    enumerate_cells,
    load_manifest,
    manifest_path,
    run_cells,
)
from .experiments.reporting import format_cell_event, format_sweep_summary, format_table
from .experiments.runner import MAIN_TUNERS, TUNER_VARIANTS
from .workloads.registry import benchmark_names, get_benchmark

__all__ = ["main"]


def _add_grid_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--benchmarks", nargs="+", default=["suite"], metavar="NAME",
        help="benchmark instance names, or 'suite' (configured subset) / 'all' "
             "(every registry instance); default: suite",
    )
    parser.add_argument(
        "--tuners", nargs="+", default=["main"], metavar="NAME",
        help="tuner variant names, or 'main' (the five Fig. 5/7 tuners) / 'all'; "
             "default: main",
    )
    parser.add_argument(
        "--budget", type=int, default=None,
        help="override the per-benchmark scaled Table 3 budget",
    )
    parser.add_argument(
        "--repetitions", type=int, default=None, help="seeds per (benchmark, tuner) pair"
    )
    parser.add_argument("--seed", type=int, default=None, help="base random seed")
    parser.add_argument(
        "--fidelity", choices=FIDELITIES, default=None, help="optimizer effort level"
    )
    parser.add_argument(
        "--budget-scale", type=float, default=None,
        help="fraction of the Table 3 budgets to use",
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=None, help="tuning-history cache directory"
    )


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.budget is not None and args.budget < 1:
        # before any cell is enumerated: a budget below 1 is no grid at all
        raise ValueError(f"--budget must be at least 1, got {args.budget}")
    config = default_config()
    overrides = {
        "repetitions": args.repetitions,
        "base_seed": args.seed,
        "fidelity": args.fidelity,
        "budget_scale": getattr(args, "budget_scale", None),
        "cache_dir": args.cache_dir,
        "workers": getattr(args, "workers", None),
    }
    if getattr(args, "no_cache", False):
        overrides["use_cache"] = False
    return replace(config, **{k: v for k, v in overrides.items() if v is not None})


def _resolve_benchmarks(tokens: list[str], config: ExperimentConfig) -> list[str]:
    names: list[str] = []
    for token in tokens:
        if token == "suite":
            names.extend(n for group in suite_benchmarks(config).values() for n in group)
        elif token == "all":
            names.extend(benchmark_names())
        else:
            names.append(token)
    return list(dict.fromkeys(names))


def _resolve_tuners(tokens: list[str]) -> list[str]:
    names: list[str] = []
    for token in tokens:
        if token == "main":
            names.extend(MAIN_TUNERS)
        elif token == "all":
            names.extend(TUNER_VARIANTS)
        elif token in TUNER_VARIANTS:
            names.append(token)
        else:
            raise SystemExit(
                f"unknown tuner {token!r}; available: {sorted(TUNER_VARIANTS)}"
            )
    return list(dict.fromkeys(names))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _build_config(args)
    cells = enumerate_cells(
        _resolve_benchmarks(args.benchmarks, config),
        _resolve_tuners(args.tuners),
        config,
        budget=args.budget,
    )
    on_event = None if args.quiet else lambda event: print(format_cell_event(event), flush=True)
    result = run_cells(cells, config, on_event=on_event)
    print(format_sweep_summary(result.counts, result.elapsed, config.workers))
    if result.manifest_file is not None:
        print(f"manifest: {result.manifest_file}")
    for outcome in result.failures:
        print(f"  failed: {outcome.cell.key}: {outcome.error}", file=sys.stderr)
    return 1 if result.failures else 0


def _cmd_status(args: argparse.Namespace) -> int:
    config = _build_config(args)
    cells = enumerate_cells(
        _resolve_benchmarks(args.benchmarks, config),
        _resolve_tuners(args.tuners),
        config,
        budget=args.budget,
    )
    cached = sum(1 for cell in cells if cached_history(config, cell) is not None)
    manifest = load_manifest(config)
    statuses: dict[str, int] = {}
    for entry in manifest["cells"].values():
        status = entry.get("status", "?") if isinstance(entry, dict) else "?"
        statuses[status] = statuses.get(status, 0) + 1
    print(f"grid: {len(cells)} cells ({cached} cached, {len(cells) - cached} missing)")
    print(f"cache dir: {config.cache_dir}")
    if not manifest_path(config).exists():
        print("no sweep manifest found — run `repro sweep` first")
    elif manifest["cells"]:
        rendered = ", ".join(f"{count} {status}" for status, count in sorted(statuses.items()))
        print(f"manifest: {manifest_path(config)} — {rendered}")
    else:
        print(f"manifest: {manifest_path(config)} — empty (no cells recorded yet)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    config = _build_config(args)
    benchmarks = _resolve_benchmarks(args.benchmarks, config)
    tuners = _resolve_tuners(args.tuners)
    headers = ["Benchmark", *tuners]
    rows = []
    for name in benchmarks:
        cells = enumerate_cells([name], tuners, config, budget=args.budget)
        per_tuner: dict[str, list[float]] = {tuner: [] for tuner in tuners}
        for cell in cells:
            history = cached_history(config, cell)
            if history is not None:
                per_tuner[cell.tuner].append(history.best_value())
        row = [name]
        seeds = config.repetitions
        for tuner in tuners:
            values = per_tuner[tuner]
            if values:
                row.append(f"{sum(values) / len(values):.4g} ({len(values)}/{seeds})")
            else:
                row.append(f"— (0/{seeds})")
        rows.append(row)
    print(format_table(headers, rows, title="mean best value over cached seeds"))
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from .core.session import drive
    from .experiments.runner import drive_parallel, load_session, make_session, save_session

    for flag, value in (
        ("--eval-workers", args.eval_workers),
        ("--checkpoint-every", args.checkpoint_every),
        ("--stop-after", args.stop_after),
    ):
        if value is not None and value < 1:
            print(f"error: {flag} must be at least 1, got {value}", file=sys.stderr)
            return 2
    checkpoint = args.checkpoint
    if checkpoint is None:
        for flag, value, loss in (
            ("--checkpoint-every", args.checkpoint_every, "saves nothing"),
            ("--stop-after", args.stop_after, "loses the run"),
        ):
            if value is not None:
                print(f"error: {flag} without --checkpoint {loss}", file=sys.stderr)
                return 2
    if args.resume:
        if checkpoint is None or not checkpoint.exists():
            print(
                f"error: --resume needs an existing checkpoint "
                f"(got {checkpoint})",
                file=sys.stderr,
            )
            return 2
        # the checkpoint records the run, its policy and its batch size;
        # overriding any of them mid-run would silently break the
        # deterministic replay contract
        for flag in ("--benchmark", "--tuner", "--budget", "--seed", "--fidelity",
                     "--surrogate-policy", "--eval-workers"):
            if getattr(args, flag[2:].replace("-", "_")) is not None:
                print(
                    f"error: {flag} cannot be combined with --resume "
                    f"(the checkpoint already records it)",
                    file=sys.stderr,
                )
                return 2
        session, benchmark = load_session(checkpoint)
        if not args.quiet:
            print(
                f"resumed {session.tuner.name} on {benchmark.name} at "
                f"{len(session.history)}/{session.budget} evaluations"
            )
    else:
        if args.benchmark is None:
            print("error: --benchmark is required (unless resuming)", file=sys.stderr)
            return 2
        budget = args.budget
        if budget is None:
            budget = get_benchmark(args.benchmark).full_budget
        session, benchmark = make_session(
            args.benchmark, args.tuner or "BaCO", budget, args.seed or 0,
            fidelity=args.fidelity or "fast",
            surrogate_policy=args.surrogate_policy,
        )
        session.meta["batch_size"] = args.eval_workers or 1
    batch_size = session.meta.get("batch_size", 1)

    stop_after = args.stop_after
    checkpoint_every = args.checkpoint_every or 1
    last_saved = len(session.history)

    class _Interrupted(Exception):
        pass

    def after_tell(live_session) -> None:
        nonlocal last_saved
        done = len(live_session.history)
        if not args.quiet:
            best = live_session.history.best_value()
            print(f"[{done}/{live_session.budget}] best={best:.6g}", flush=True)
        # counted in evaluations, not batches: with --eval-workers q each
        # after_tell advances the history by q tells
        if checkpoint is not None and done - last_saved >= checkpoint_every:
            save_session(live_session, checkpoint)
            last_saved = done
        if stop_after is not None and done >= stop_after:
            raise _Interrupted

    try:
        if batch_size > 1:
            drive_parallel(session, batch_size, after_tell=after_tell)
        else:
            drive(session, benchmark.evaluator, after_tell=after_tell)
    except _Interrupted:
        save_session(session, checkpoint)
        print(
            f"stopped after {len(session.history)} evaluations; "
            f"checkpoint: {checkpoint}"
        )
        return 0

    if checkpoint is not None:
        save_session(session, checkpoint)
    history = session.history
    best = history.best(session.budget)
    print(
        f"{history.tuner_name} on {benchmark.name}: {len(history)} evaluations, "
        f"best {'%.6g' % best.value if best is not None else 'infeasible'}"
    )
    if args.out is not None:
        # drop wall-clock fields so the output is a deterministic trace
        payload = history.to_dict()
        payload.pop("tuner_seconds", None)
        payload.pop("evaluation_seconds", None)
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(payload, indent=1, sort_keys=True))
        print(f"wrote {args.out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import SessionRegistry, serve

    if args.max_sessions < 1:
        print(f"error: --max-sessions must be at least 1, got {args.max_sessions}",
              file=sys.stderr)
        return 2
    if args.tcp is not None and not 0 <= args.tcp <= 65535:
        print(f"error: --tcp must be a port in 0-65535, got {args.tcp}", file=sys.stderr)
        return 2
    registry = SessionRegistry(
        sessions_dir=args.sessions_dir, max_sessions=args.max_sessions
    )
    if args.tcp is None:
        # degenerate single-connection case: same registry, stdin/stdout framing
        return serve(sys.stdin, sys.stdout, registry)

    import signal

    from .server import TuningServer

    try:
        server = TuningServer(registry, host=args.host, port=args.tcp)
    except OSError as exc:  # port in use, unknown host (socket.gaierror), ...
        print(f"error: cannot listen on {args.host}:{args.tcp}: {exc}", file=sys.stderr)
        return 1
    where = f"{server.server_address[0]}:{server.port}"
    extras = [f"max {args.max_sessions} sessions"]
    if args.sessions_dir is not None:
        extras.append(f"autosave to {args.sessions_dir}")
    print(f"serving on {where} ({', '.join(extras)})", flush=True)

    def _graceful(signum, frame):  # SIGTERM drains through the autosave path
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _graceful)
    try:
        server.serve_until_shutdown()
    except KeyboardInterrupt:
        pass  # serve_until_shutdown's finally already drained and autosaved
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Parallel experiment orchestration for the BaCO reproduction.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sweep_parser = subparsers.add_parser(
        "sweep", help="execute the (benchmark, tuner, seed) grid"
    )
    _add_grid_options(sweep_parser)
    sweep_parser.add_argument(
        "--workers", type=int, default=None, help="parallel worker processes (default: 1)"
    )
    sweep_parser.add_argument(
        "--no-cache", action="store_true", help="do not read or write the history cache"
    )
    sweep_parser.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress lines"
    )
    sweep_parser.set_defaults(handler=_cmd_sweep)

    status_parser = subparsers.add_parser(
        "status", help="summarize cache / manifest coverage of the grid"
    )
    _add_grid_options(status_parser)
    status_parser.set_defaults(handler=_cmd_status)

    report_parser = subparsers.add_parser(
        "report", help="tabulate best-found values from cached histories"
    )
    _add_grid_options(report_parser)
    report_parser.set_defaults(handler=_cmd_report)

    tune_parser = subparsers.add_parser(
        "tune", help="run one ask/tell tuning session (checkpointable, resumable)"
    )
    tune_parser.add_argument("--benchmark", default=None, help="benchmark instance name")
    tune_parser.add_argument(
        "--tuner", default=None, help="tuner variant name (default: BaCO)"
    )
    tune_parser.add_argument(
        "--budget", type=int, default=None,
        help="evaluation budget (default: the benchmark's full Table 3 budget)",
    )
    tune_parser.add_argument("--seed", type=int, default=None, help="random seed (default: 0)")
    tune_parser.add_argument(
        "--fidelity", choices=FIDELITIES, default=None, help="optimizer effort level"
    )
    tune_parser.add_argument(
        "--surrogate-policy", default=None, metavar="SPEC",
        help="surrogate refit policy for BaCO-family tuners: 'exact' (default, "
             "bit-compatible full refit per iteration) or 'fast[,refit_every=N]"
             "[,sweep_every=N]' (incremental Cholesky updates, warm-started "
             "hyperparameters); incompatible with --resume, which reads the "
             "policy from the checkpoint",
    )
    tune_parser.add_argument(
        "--eval-workers", type=int, default=None,
        help="parallel black-box evaluations per ask() batch (default: 1); "
             "recorded in the checkpoint, so incompatible with --resume",
    )
    tune_parser.add_argument(
        "--checkpoint", type=Path, default=None,
        help="session checkpoint file, written every --checkpoint-every tells",
    )
    tune_parser.add_argument(
        "--checkpoint-every", type=int, default=None,
        help="evaluations between checkpoint writes (default: 1); requires --checkpoint",
    )
    tune_parser.add_argument(
        "--resume", action="store_true",
        help="resume from --checkpoint instead of starting fresh",
    )
    tune_parser.add_argument(
        "--stop-after", type=int, default=None,
        help="checkpoint and exit once this many evaluations are recorded "
             "(simulates an interruption; requires --checkpoint)",
    )
    tune_parser.add_argument(
        "--out", type=Path, default=None,
        help="write the final history as deterministic JSON (no wall-clock fields)",
    )
    tune_parser.add_argument(
        "--quiet", action="store_true", help="suppress per-evaluation progress lines"
    )
    tune_parser.set_defaults(handler=_cmd_tune)

    serve_parser = subparsers.add_parser(
        "serve",
        help="serve ask/tell tuning sessions over JSON lines "
             "(stdin/stdout by default, TCP with --tcp)",
    )
    serve_parser.add_argument(
        "--tcp", type=int, default=None, metavar="PORT",
        help="listen on this TCP port instead of stdin/stdout (0 = ephemeral)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1",
        help="bind address for --tcp (default: 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--sessions-dir", type=Path, default=None,
        help="autosave directory: evicted sessions are checkpointed here and "
             "transparently reloaded; shutdown saves every dirty session",
    )
    serve_parser.add_argument(
        "--max-sessions", type=int, default=8,
        help="sessions kept in memory before LRU eviction (default: 8)",
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    check_parser = subparsers.add_parser(
        "check",
        help="run the static invariant checker (see repro.analysis)",
        description="AST-based linter enforcing the repo's determinism, "
        "snapshot, lock, strict-JSON, float-determinism and hot-path "
        "contracts.  Exits non-zero on any unsuppressed finding.",
    )
    analysis_cli.add_check_arguments(check_parser)
    check_parser.set_defaults(handler=analysis_cli.cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (KeyError, ValueError) as exc:
        # bad grid arguments (unknown benchmark, invalid config values, ...)
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

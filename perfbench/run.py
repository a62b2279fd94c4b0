"""Benchmark entry point: one workload, one run, one JSON line of metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tune_hidden --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
workload with span wrappers installed and reports the per-layer metrics
instead.  Progress and problems go to stderr; the last line on stdout is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The exit code is 0 when the run completed (even with failed checks, which
``correct`` and ``failed`` report) and non-zero when it could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORKLOADS = ("tune_hidden", "tune_known", "serve_mix")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    # single-threaded BLAS before numpy loads, here and in every child: the
    # GP matrices are small, so extra BLAS threads only compete with the
    # server and client threads for the host's cores and add run-to-run noise
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads  # needs the two paths above

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = {}
    for metric in wanted:
        value = outcome.metrics.get(metric["name"])
        if value is None or not math.isfinite(value["value"]):
            print(f"error: metric {metric['name']} was not measured", file=sys.stderr)
            return 1
        metrics[metric["name"]] = value
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

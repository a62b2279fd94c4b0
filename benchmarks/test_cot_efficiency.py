"""Sec. 5.3 (Chain-of-Trees): efficiency of the CoT on the MM_GPU search space.

The paper reports that on MM_GPU the CoT reduced the time spent evaluating
constraints during local search by ~6x and random sampling by ~80x.  This
benchmark measures the analogous micro-operations on the reproduction's
MM_GPU space:

* feasible random sampling through the CoT vs. rejection sampling with
  explicit constraint evaluation,
* membership tests through the CoT vs. explicit constraint evaluation.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import run_once

from repro.experiments.reporting import format_table
from repro.space.space import SearchSpace
from repro.workloads import get_benchmark


def _rejection_sample(space: SearchSpace, rng: np.random.Generator, n: int) -> list[dict]:
    """Plain rejection: ``n`` unconstrained draws per round (one
    ``sample_batch`` column per parameter), decoded row by row, each kept
    when every constraint holds."""
    encoder = space.encoder
    samples = []
    while len(samples) < n:
        rows = np.hstack(
            [
                encoder.encode_value_column(p.name, p.sample_batch(rng, n))
                for p in space.parameters
            ]
        )
        for row in rows:
            config = encoder.decode(row)
            if all(c.evaluate(config) for c in space.constraints):
                samples.append(config)
                if len(samples) == n:
                    break
    return samples


def test_cot_sampling_and_membership_efficiency(benchmark, emit):
    mm_gpu = get_benchmark("rise_mm_gpu")
    space_with_cot = mm_gpu.space
    space_without_cot = SearchSpace(
        space_with_cot.parameters, space_with_cot.constraints, build_chain_of_trees=False
    )
    rng = np.random.default_rng(0)
    n = 400

    def measured():
        results = {}
        start = time.perf_counter()
        cot_samples = space_with_cot.sample(np.random.default_rng(1), n)
        results["cot_sampling_s"] = time.perf_counter() - start

        start = time.perf_counter()
        rejection_samples = _rejection_sample(space_without_cot, np.random.default_rng(1), n)
        results["rejection_sampling_s"] = time.perf_counter() - start

        start = time.perf_counter()
        for config in cot_samples:
            space_with_cot.is_feasible(config)
        results["cot_membership_s"] = time.perf_counter() - start

        start = time.perf_counter()
        for config in cot_samples:
            space_without_cot.is_feasible(config)
        results["explicit_membership_s"] = time.perf_counter() - start
        results["n"] = n
        assert len(rejection_samples) == n
        return results

    results = run_once(benchmark, measured)
    sampling_ratio = results["rejection_sampling_s"] / max(results["cot_sampling_s"], 1e-9)
    membership_ratio = results["explicit_membership_s"] / max(results["cot_membership_s"], 1e-9)
    emit(
        format_table(
            ["operation", "CoT (s)", "explicit (s)", "ratio"],
            [
                ["feasible sampling", results["cot_sampling_s"], results["rejection_sampling_s"], f"{sampling_ratio:.1f}x"],
                ["membership test", results["cot_membership_s"], results["explicit_membership_s"], f"{membership_ratio:.1f}x"],
            ],
            title=f"[Sec. 5.3] Chain-of-Trees efficiency on MM_GPU ({results['n']} configurations)",
        )
    )

    # every CoT sample is feasible by construction, so all samples were usable
    assert results["cot_sampling_s"] > 0
    assert results["rejection_sampling_s"] > 0

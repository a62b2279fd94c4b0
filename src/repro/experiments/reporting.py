"""Plain-text rendering of tables and figure series.

The benchmark harness regenerates every table and figure of the paper as
text; these helpers keep the formatting consistent and readable inside
pytest-benchmark output and in ``EXPERIMENTS.md``.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Sequence

import numpy as np

__all__ = [
    "format_table",
    "format_figure5",
    "format_checkpoint_study",
    "format_evolution",
    "format_cell_event",
    "format_sweep_summary",
]


def _cell(value: Any) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf"
        return f"{value:.3g}" if abs(value) < 1000 else f"{value:.2e}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str = "") -> str:
    """Render an ASCII table with aligned columns."""
    str_rows = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = " | ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_cell_event(event: Any) -> str:
    """One progress line per orchestrator cell event.

    Accepts any object shaped like
    :class:`repro.experiments.orchestrator.CellEvent`; the orchestrator streams
    these through its ``on_event`` hook and the CLI prints them via this
    formatter.
    """
    cell = event.cell
    head = f"[{event.index:>4}/{event.total}]"
    where = f"{cell.benchmark} | {cell.tuner} | budget={cell.budget} seed={cell.seed}"
    if event.kind == "start":
        return f"{head} start   {where}"
    if event.kind == "cached":
        return f"{head} cached  {where}"
    if event.kind == "done":
        return f"{head} done    {where} ({event.elapsed:.1f}s)"
    if event.kind == "failed":
        return f"{head} FAILED  {where}: {event.error}"
    return f"{head} {event.kind:<7} {where}"


def format_sweep_summary(counts: Mapping[str, int], elapsed: float, workers: int = 1) -> str:
    """One-line sweep summary: ``12 done, 4 cached, 0 failed in 8.1s (2 workers)``."""
    total = sum(counts.values())
    parts = ", ".join(
        f"{counts.get(status, 0)} {status}" for status in ("done", "cached", "failed")
    )
    return f"sweep: {total} cells — {parts} in {elapsed:.1f}s ({workers} worker(s))"


def format_figure5(data: Mapping[str, Mapping[str, Mapping[str, float]]]) -> str:
    """Render Fig. 5 data: framework x budget level x tuner."""
    blocks = []
    for framework, levels in data.items():
        tuners = list(next(iter(levels.values())).keys())
        headers = ["Budget", *tuners]
        rows = [[level, *[levels[level][t] for t in tuners]] for level in levels]
        blocks.append(format_table(headers, rows, title=f"[Fig. 5] {framework} — performance relative to expert"))
    return "\n\n".join(blocks)


def format_checkpoint_study(data: Mapping[str, Mapping[str, float]], title: str) -> str:
    """Render Fig. 8 / 9 / 10 data: variant x checkpoint."""
    checkpoints = list(next(iter(data.values())).keys())
    headers = ["Variant", *checkpoints]
    rows = [[variant, *[values[c] for c in checkpoints]] for variant, values in data.items()]
    return format_table(headers, rows, title=title)


def format_evolution(entries: Sequence[Mapping[str, Any]], n_points: int = 8) -> str:
    """Render Fig. 6 / 7 / 11 evolution data as per-benchmark mini tables."""
    blocks = []
    for entry in entries:
        curves = entry["curves"]
        budget = entry["budget"]
        indices = np.unique(np.linspace(1, budget, min(n_points, budget), dtype=int))
        headers = ["Tuner", *[f"@{i}" for i in indices], "evals to expert"]
        rows = []
        for tuner, curve in curves.items():
            sampled = [curve[i - 1] if i - 1 < len(curve) else float("nan") for i in indices]
            rows.append([tuner, *sampled, entry["evaluations_to_expert"].get(tuner, float("nan"))])
        title = (
            f"[evolution] {entry['benchmark']} (expert={_cell(entry['expert_value'])}, "
            f"default={_cell(entry['default_value'])}, budget={budget})"
        )
        blocks.append(format_table(headers, rows, title=title))
    return "\n\n".join(blocks)

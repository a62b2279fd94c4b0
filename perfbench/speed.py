"""Host-speed correction for timings taken on a shared host.

On a shared VM, other tenants slow this host's cores by up to about half, in
episodes that last from a fraction of a second to minutes: a fixed CPU loop
then takes about 1.5 times as long.  Those episodes, not the program, set
most of the run-to-run spread of a plain wall-clock timing.

The harness therefore runs a small fixed CPU kernel, a *probe*, between the
operations it times, on the one core that runs the workload (and, in
``serve_mix``, the server), and times the probe in thread CPU time.  Every
measured interval ``[start, end)`` is then rescaled by how fast that core
was while it ran::

    corrected = integral over [start, end) of  ref / probe(t)  dt

``probe(t)`` is the mean of the two probes around ``t`` (the nearest probe
before the first and after the last), and ``ref`` is the fixed
:data:`REF_PROBE_S`.  A corrected second is the time an interval would take
on a core that runs the probe in ``ref``: on the host the first numbers come
from, that is its uncontended speed.  The reference is a constant, not the
run's own fastest probe, because a core can stay crowded for a whole run;
its fastest probe is then a slow one and the run would read slow.  A meter
that is not enabled, or has fewer than two probes, returns intervals
unchanged.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

__all__ = ["REF_PROBE_S", "SpeedMeter"]

#: the probe time that defines a corrected second: the kernel's time on an
#: uncontended core of the 2-core x86 VM (Python 3.11) the README's numbers
#: come from
REF_PROBE_S = 1.05e-3

_POINTS = np.random.default_rng(0).random((100, 6))


def _kernel() -> float:
    """The kind of work the tuner does, at the sizes it does it: about a millisecond.

    A pairwise-distance tensor, an RBF kernel matrix, its Cholesky factor and
    a solve for 100 points, then an interpreter loop over a dict.  When other
    tenants crowd the core, a kernel that is all interpreter or all NumPy, or
    one that stays in the first cache level, slows less than the tuner does
    and so under-corrects.
    """
    sq = ((_POINTS[:, None, :] - _POINTS[None, :, :]) ** 2).sum(axis=-1)
    gram = np.exp(-0.5 * sq)
    gram[np.diag_indices_from(gram)] += 1e-3
    solved = np.linalg.solve(np.linalg.cholesky(gram), _POINTS[:, 0])
    sums: dict[int, float] = {}
    for i in range(4000):
        sums[i % 97] = sums.get(i % 97, 0.0) + i * 0.5
    return float(solved.sum()) + sum(sums.values())


class SpeedMeter:
    """Probes of one core's speed over a run, and intervals rescaled by them."""

    def __init__(self, enabled: bool = True, ref_s: float = REF_PROBE_S) -> None:
        self.enabled = enabled
        self.ref_s = ref_s
        self._probes: list[tuple[float, float]] = []
        self._curve: tuple[np.ndarray, np.ndarray] | None = None

    def add(self, at: float, cpu_s: float) -> None:
        """Record a probe that ran around ``at`` and took ``cpu_s``."""
        self._probes.append((at, cpu_s))  # one append: safe across threads
        self._curve = None

    def probe(self) -> None:
        """Time the kernel on the calling thread (a no-op when disabled)."""
        if not self.enabled:
            return
        # the workload leaves the caches cold for the kernel; time a warm run
        _kernel()
        wall, cpu = time.perf_counter(), time.thread_time()
        _kernel()
        cpu = time.thread_time() - cpu
        self.add((wall + time.perf_counter()) / 2, cpu)

    def describe(self) -> str:
        """One line on the probes, for the run's log."""
        if not self.enabled or len(self._probes) < 2:
            return "speed: no correction"
        cpu = np.array([p[1] for p in self._probes]) / self.ref_s
        low, mid, high = np.percentile(cpu, [0, 50, 90])
        return (f"speed: {len(cpu)} probes in units of the {self.ref_s * 1e3:.3g} ms "
                f"reference: min {low:.3f}, median {mid:.3f}, p90 {high:.3f}")

    def _build(self) -> tuple[np.ndarray, np.ndarray]:
        """Knots of the cumulative corrected clock ``F``: corrected = F(end) - F(start)."""
        probes = sorted(self._probes)
        at = np.array([p[0] for p in probes])
        cpu = np.array([p[1] for p in probes])
        ref = self.ref_s
        rate = ref / ((cpu[:-1] + cpu[1:]) / 2)
        clock = np.concatenate(([0.0], np.cumsum(rate * np.diff(at))))
        # beyond the outermost probes the nearest probe's speed holds
        margin = 1e6
        knots = np.concatenate(([at[0] - margin], at, [at[-1] + margin]))
        values = np.concatenate(([-margin * ref / cpu[0]], clock,
                                 [clock[-1] + margin * ref / cpu[-1]]))
        return knots, values

    def corrected(self, intervals: Sequence[tuple[float, float]]) -> np.ndarray:
        """Corrected seconds of each ``(start, end)`` interval (``perf_counter`` times)."""
        spans = np.asarray(intervals, dtype=float).reshape(-1, 2)
        if not self.enabled or len(self._probes) < 2:
            return spans[:, 1] - spans[:, 0]
        if self._curve is None:
            self._curve = self._build()
        knots, values = self._curve
        return np.interp(spans[:, 1], knots, values) - np.interp(spans[:, 0], knots, values)

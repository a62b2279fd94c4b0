"""Self-tests of the benchmark harness (not part of the repo's test suite).

Run from the root of a checkout::

    python3 perfbench/selftest.py

Covers the self-time arithmetic, the host-speed correction, that tracing
only observes (a traced and an untraced run of the same seed propose
identical trajectories), and that the correctness checks catch a bad server
response and a duplicate evaluation.
"""

from __future__ import annotations

import socket
import sys
import threading
import unittest
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from repro.client import TuningClient  # noqa: E402
from repro.core.result import ObjectiveResult  # noqa: E402
from repro.experiments.runner import make_session  # noqa: E402
from repro.models.gp import GaussianProcess  # noqa: E402
from repro.workloads.registry import get_benchmark  # noqa: E402

import workloads  # noqa: E402
from speed import SpeedMeter  # noqa: E402
from tracing import Span, SpanRecorder, installed, layer_totals, roots_in_window  # noqa: E402


def _span(name: str, start: float, end: float, parent: int = -1) -> Span:
    return Span(name, name, start, end, parent, 0)


class SelfTimeTest(unittest.TestCase):
    # root a [0, 10] > b [1, 4] > c [2, 3];  a > a [5, 9] (same layer);  root e [12, 13]
    SPANS = [
        _span("a", 0, 10),
        _span("b", 1, 4, parent=0),
        _span("c", 2, 3, parent=1),
        _span("a", 5, 9, parent=0),
        _span("e", 12, 13),
    ]

    def test_self_time_is_duration_minus_direct_children(self) -> None:
        totals = layer_totals(self.SPANS)
        self.assertEqual(totals.self_s, {"a": 3 + 4, "b": 2, "c": 1, "e": 1})
        self.assertEqual(totals.root_s, 11)
        self.assertAlmostEqual(sum(totals.self_s.values()), totals.root_s)

    def test_calls_count_only_the_outermost_span_of_a_layer(self) -> None:
        totals = layer_totals(self.SPANS)
        self.assertEqual(totals.calls, {"a": 1, "b": 1, "c": 1, "e": 1})
        self.assertEqual(totals.total_s["a"], 10)

    def test_window_keeps_whole_trees_of_roots_that_start_inside(self) -> None:
        kept = roots_in_window(self.SPANS, 0, 11)
        self.assertEqual([s.name for s in kept], ["a", "b", "c", "a"])
        self.assertEqual([s.parent for s in kept], [-1, 0, 1, 0])
        self.assertEqual(layer_totals(kept).root_s, 10)

    def test_recorder_links_nested_calls_and_counts_outermost_only(self) -> None:
        recorder = SpanRecorder()
        inner = recorder.wrap(lambda self, rows: len(rows), "layer",
                              lambda args, result: {"rows": len(args[1])})
        outer = recorder.wrap(lambda self, rows: inner(self, rows), "layer",
                              lambda args, result: {"rows": len(args[1])})
        root = recorder.wrap(lambda: outer(None, [1, 2, 3]), "root")
        recorder.set_request(7)
        root()
        spans = recorder.spans()
        self.assertEqual([(s.name, s.parent, s.request) for s in spans],
                         [("root", -1, 7), ("layer", 0, 7), ("layer", 1, 7)])
        self.assertEqual(layer_totals(spans).counts, {"rows": 3})


class SpeedMeterTest(unittest.TestCase):
    def _meter(self) -> SpeedMeter:
        # probes at t = 0..3 taking 1, 1, 2, 2 s against a 1 s reference: the
        # core runs at full speed on [0, 1], at 2/3 on [1, 2] and at 1/2 on [2, 3]
        meter = SpeedMeter(ref_s=1.0)
        for at, cpu in ((2, 2.0), (0, 1.0), (3, 2.0), (1, 1.0)):
            meter.add(at, cpu)
        return meter

    def test_intervals_are_rescaled_by_the_probes_around_them(self) -> None:
        corrected = self._meter().corrected([(0, 1), (1, 2), (0.5, 2.5), (0, 3)])
        for got, want in zip(corrected, [1, 2 / 3, 0.5 + 2 / 3 + 0.25, 1 + 2 / 3 + 0.5]):
            self.assertAlmostEqual(got, want)

    def test_the_nearest_probe_holds_beyond_the_outermost_ones(self) -> None:
        corrected = self._meter().corrected([(-2, 0), (3, 5)])
        self.assertAlmostEqual(corrected[0], 2.0)
        self.assertAlmostEqual(corrected[1], 1.0)

    def test_a_disabled_meter_returns_raw_intervals(self) -> None:
        meter = SpeedMeter(enabled=False)
        meter.probe()
        self.assertEqual(list(meter.corrected([(1, 4)])), [3.0])


class ObservationOnlyTest(unittest.TestCase):
    def _trajectory(self, benchmark: str, policy: str | None, traced: bool) -> list:
        bench = get_benchmark(benchmark)
        session, _ = make_session(bench, "BaCO", 24, 5, fidelity="paper",
                                  surrogate_policy=policy)
        recorder = SpanRecorder()
        with installed(recorder) if traced else nullcontext():
            while not session.done:
                (suggestion,) = session.ask(1)
                session.tell(suggestion, bench.evaluator(suggestion.configuration))
        if traced:
            self.assertGreater(len(recorder.spans()), 0)
        return [(e.configuration, e.value, e.feasible) for e in session.history.evaluations]

    def test_traced_and_untraced_runs_propose_the_same_trajectory(self) -> None:
        original = GaussianProcess.__dict__["fit_rows"]
        for benchmark, policy in (("rise_mm_gpu", None), ("taco_spmm_scircuit", "fast")):
            with self.subTest(benchmark=benchmark):
                self.assertEqual(self._trajectory(benchmark, policy, traced=False),
                                 self._trajectory(benchmark, policy, traced=True))
        self.assertIs(GaussianProcess.__dict__["fit_rows"], original)


class ChecksTest(unittest.TestCase):
    def setUp(self) -> None:
        self.bench = get_benchmark("rise_mm_gpu")
        session, _ = make_session(self.bench, "Uniform Sampling", 6, 1)
        self.told = []
        while not session.done:
            (suggestion,) = session.ask(1)
            result = self.bench.evaluator(suggestion.configuration)
            session.tell(suggestion, result)
            self.told.append((suggestion.configuration, result))
        self.best = session.history.best_value()

    def test_a_clean_run_passes(self) -> None:
        self.assertEqual(workloads.check_run(self.bench.space, 6, self.told, 6, self.best), [])

    def test_duplicate_evaluation_is_caught(self) -> None:
        told = self.told[:5] + [self.told[0]]
        problems = workloads.check_run(self.bench.space, 6, told, 6, self.best)
        self.assertTrue(any("duplicate" in p for p in problems), problems)

    def test_wrong_best_and_length_are_caught(self) -> None:
        feasible = [r.value for _, r in self.told if r.feasible]
        problems = workloads.check_run(self.bench.space, 6, self.told, 5, max(feasible) + 1)
        self.assertEqual(len(problems), 2, problems)

    def test_known_constraint_violation_is_caught(self) -> None:
        space = self.bench.space
        violating = next(c for c in space.iter_dense() if not space.is_feasible(c))
        told = self.told[:5] + [(violating, ObjectiveResult(1.0))]
        problems = workloads.check_run(space, 6, told, 6, self.best)
        self.assertTrue(any("known constraints" in p for p in problems), problems)

    def test_bad_server_responses_are_failures(self) -> None:
        replies = [b'{"ok": true, "value": NaN}\n', b'{"ok": false, "error": "boom"}\n',
                   b'not json\n', b'{"ok": true, "op": "status"}\n']
        with socket.create_server(("127.0.0.1", 0)) as listener:
            port = listener.getsockname()[1]

            def serve() -> None:
                connection, _ = listener.accept()
                with connection, connection.makefile("rwb") as stream:
                    for reply in replies:
                        stream.readline()
                        stream.write(reply)
                        stream.flush()

            server = threading.Thread(target=serve, daemon=True)
            server.start()
            outcome = workloads.Outcome()
            with TuningClient(port=port, timeout=5) as client:
                results = [workloads.request(client, outcome, "status") for _ in replies]
            server.join(timeout=5)
        self.assertFalse(server.is_alive())
        self.assertEqual(results[:3], [None, None, None])
        self.assertEqual(results[3], {"ok": True, "op": "status"})
        self.assertEqual(outcome.failed, 3)


if __name__ == "__main__":
    unittest.main()

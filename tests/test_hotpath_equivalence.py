"""Equivalence guarantees for the vectorized hot path and the session API.

Four layers of protection for the encoding-layer and ask/tell refactors:

* the vectorized per-type distance blocks (including the Kendall semimetric,
  whose legacy implementation was a per-pair Python double loop) are pinned
  against the reference implementation,
* GP predictions through the encoded-rows path match the legacy dict path,
  and the incremental train-train tensor matches a full recompute,
* a seeded end-to-end ``BacoTuner`` run reproduces the recorded evaluation
  trace bit for bit on one RISE, one TACO, and one HPVM2FPGA workload, under
  the ``exact`` policy (``tests/data/bitcompat_trajectories.json``) and the
  ``fast`` one (``tests/data/bitcompat_trajectories_fast.json``), and with
  default settings on the three hard-constraint spaces, whose residual
  constraints run the unary-narrowed sampler
  (``tests/data/bitcompat_trajectories_hard_constraint.json``) — driven
  through the ask/tell ``TuningSession`` underneath ``tune()``,
* the other consumers of the Chain-of-Trees ordering reproduce theirs too
  (``tests/data/bitcompat_baselines.json``): the ``CoT Sampling``,
  ``ATF with OpenTuner`` and ``Uniform Sampling`` traces on one RISE and one
  TACO workload, and the expert configuration of every Table-3 benchmark;
  the same three tuners also pin the narrowed sampler on the three
  hard-constraint spaces
  (``tests/data/bitcompat_baselines_hard_constraint.json``),
* a tampered ``fast`` policy state is refused on restore, naming the field,
* every tuner checkpointed mid-run and restored **in a fresh process**
  completes with a trace bit-identical to an uninterrupted run,
* a session driven over the concurrent TCP tuning server — with another
  session running on the same server at the same time — produces the same
  trajectory as the same seed driven in-process.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.baco import BacoSettings, BacoTuner
from repro.models.distances import (
    DistanceComputer,
    IncrementalDistanceTensor,
    kendall_pairwise_rows,
)
from repro.models.gp import GaussianProcess
from repro.space.parameters import (
    CategoricalParameter,
    IntegerParameter,
    OrdinalParameter,
    PermutationParameter,
    RealParameter,
)

from oracles import kendall_distance, pairwise_reference, sample_value

_DATA = Path(__file__).parent / "data"
FIXTURES = {
    "exact": _DATA / "bitcompat_trajectories.json",
    "fast": _DATA / "bitcompat_trajectories_fast.json",
    "hard_constraint": _DATA / "bitcompat_trajectories_hard_constraint.json",
}
BASELINE_FIXTURE = _DATA / "bitcompat_baselines.json"
HARD_CONSTRAINT_BASELINE_FIXTURE = _DATA / "bitcompat_baselines_hard_constraint.json"
_BASELINE_TUNERS = ("CoT Sampling", "ATF with OpenTuner", "Uniform Sampling")
#: (tuner, benchmark) pairs of the two baseline fixtures
BASELINE_CASES = [
    (tuner, name)
    for tuner in _BASELINE_TUNERS
    for name in ("rise_mm_gpu", "taco_spmm_scircuit")
] + [
    (tuner, f"hard_constraint_{density}")
    for tuner in _BASELINE_TUNERS
    for density in ("1e-2", "1e-4", "1e-6")
]
#: (fixture, benchmark, surrogate policy)
TRAJECTORY_CASES = [
    (policy, name, policy)
    for policy in ("exact", "fast")
    for name in ("rise_mm_gpu", "taco_spmm_scircuit", "hpvm_audio")
] + [
    ("hard_constraint", f"hard_constraint_{density}", "exact")
    for density in ("1e-2", "1e-4", "1e-6")
]


def _params(metric: str = "kendall"):
    return [
        OrdinalParameter("tile", [2, 4, 8, 16, 32], transform="log"),
        IntegerParameter("threads", 1, 16),
        RealParameter("alpha", 0.1, 10.0, transform="log"),
        CategoricalParameter("sched", ["a", "b", "c"]),
        PermutationParameter("perm", 6, metric=metric),
    ]


def _plain(configuration):
    return {k: (list(v) if isinstance(v, tuple) else v) for k, v in configuration.items()}


def _trace(history):
    return [
        {
            "configuration": _plain(e.configuration),
            "value": e.value,
            "feasible": e.feasible,
            "phase": e.phase,
        }
        for e in history
    ]


def _configs(params, n, seed=0):
    rng = np.random.default_rng(seed)
    return [{p.name: sample_value(p, rng) for p in params} for _ in range(n)]


class TestKendallVectorization:
    """Regression: vectorized Kendall equals the per-pair double loop."""

    def test_matches_scalar_kendall_distance(self):
        rng = np.random.default_rng(3)
        perms_a = [tuple(int(i) for i in rng.permutation(6)) for _ in range(15)]
        perms_b = [tuple(int(i) for i in rng.permutation(6)) for _ in range(11)]
        got = kendall_pairwise_rows(np.array(perms_a, float), np.array(perms_b, float))
        for i, pa in enumerate(perms_a):
            for j, pb in enumerate(perms_b):
                assert got[i, j] == kendall_distance(pa, pb)

    def test_single_element_permutations(self):
        out = kendall_pairwise_rows(np.zeros((3, 1)), np.zeros((2, 1)))
        assert np.array_equal(out, np.zeros((3, 2)))

    @pytest.mark.parametrize("metric", ["kendall", "spearman", "hamming", "naive"])
    def test_pairwise_rows_matches_reference(self, metric):
        params = _params(metric)
        computer = DistanceComputer(params)
        a = _configs(params, 12, seed=1)
        b = _configs(params, 9, seed=2)
        reference = pairwise_reference(computer, a, b)
        rows_a = computer.encoder.encode_batch(a)
        rows_b = computer.encoder.encode_batch(b)
        assert np.array_equal(computer.pairwise_rows(rows_a, rows_b), reference)

    def test_self_tensor_matches_reference(self):
        params = _params("kendall")
        computer = DistanceComputer(params)
        configs = _configs(params, 10, seed=4)
        assert np.array_equal(
            computer.pairwise_rows(computer.encoder.encode_batch(configs)),
            pairwise_reference(computer, configs),
        )


class TestIncrementalTensor:
    def test_append_one_at_a_time_matches_full(self):
        params = _params("spearman")
        computer = DistanceComputer(params)
        configs = _configs(params, 14, seed=5)
        rows = computer.encoder.encode_batch(configs)
        cache = IncrementalDistanceTensor(computer)
        for i in range(len(rows)):
            cache.append(rows[i : i + 1])
        assert len(cache) == 14
        assert np.array_equal(cache.rows, rows)
        assert np.array_equal(cache.tensor, computer.pairwise_rows(rows))

    def test_batch_appends_and_reset(self):
        params = _params("hamming")
        computer = DistanceComputer(params)
        rows = computer.encoder.encode_batch(_configs(params, 9, seed=6))
        cache = IncrementalDistanceTensor(computer)
        cache.append(rows[:4])
        cache.append(rows[4:])
        assert np.array_equal(cache.tensor, computer.pairwise_rows(rows))
        cache.reset()
        assert len(cache) == 0
        assert cache.tensor.shape == (computer.n_dimensions, 0, 0)

    def test_views_stay_valid_across_growth(self):
        params = _params("naive")
        computer = DistanceComputer(params)
        rows = computer.encoder.encode_batch(_configs(params, 20, seed=7))
        cache = IncrementalDistanceTensor(computer)
        cache.append(rows[:3])
        snapshot = cache.tensor.copy()
        view = cache.tensor
        cache.append(rows[3:])  # forces at least one reallocation
        assert np.array_equal(view, snapshot)


class TestGPEquivalence:
    def test_fit_rows_rejects_mismatched_tensor(self):
        params = _params("spearman")
        gp = GaussianProcess(params, rng=np.random.default_rng(12))
        rows = gp.encoder.encode_batch(_configs(params, 6, seed=13))
        bad = gp._distance.pairwise_rows(rows[:5])
        with pytest.raises(ValueError):
            gp.fit_rows(rows, list(range(1, 7)), distance_tensor=bad)


class TestTrajectoryBitCompatibility:
    """The tuner reproduces recorded runs exactly, under both policies.

    The ``exact`` fixtures were recorded from the pre-refactor implementation
    (per-pair dict distances, per-start local search, full GP recompute each
    iteration) on one workload per compiler framework.  The ``fast`` ones
    use the same seed and budget; each run's 14 learning asks cover the
    first sweep, warm refits and frozen Cholesky extensions.  The
    ``hard_constraint`` ones (same seed and budget, default settings) pin the
    sampler that draws unary-narrowed values, DoE and local search alike.
    The baseline ones pin the other orders the Chain-of-Trees fixes:
    ``CoT Sampling`` draws through the biased cumulative weights, OpenTuner
    mutates through ``feasible_values`` and the expert search keeps the
    first strictly better value in ``feasible_values`` order.  On the
    hard-constraint spaces they pin the narrowed sampler's streams outside
    BaCO.
    """

    @pytest.fixture(scope="class")
    def fixtures(self):
        return {policy: json.loads(path.read_text()) for policy, path in FIXTURES.items()}

    @pytest.fixture(scope="class")
    def baselines(self):
        baselines = json.loads(BASELINE_FIXTURE.read_text())
        narrowed = json.loads(HARD_CONSTRAINT_BASELINE_FIXTURE.read_text())
        for tuner_name, traces in narrowed["trajectories"].items():
            baselines["trajectories"][tuner_name].update(traces)
        return baselines

    @pytest.mark.parametrize(
        "fixture,benchmark_name,policy",
        TRAJECTORY_CASES,
        # the exact cases keep the ids they had before fast was pinned too
        ids=[name if policy == "exact" else f"{policy}-{name}" for _, name, policy in TRAJECTORY_CASES],
    )
    def test_identical_trace(self, fixtures, fixture, benchmark_name, policy):
        from repro.workloads.registry import get_benchmark

        fx = fixtures[fixture][benchmark_name]
        bench = get_benchmark(benchmark_name)
        tuner = BacoTuner(
            bench.space, BacoSettings(surrogate_policy=policy), seed=fx["seed"]
        )
        history = tuner.tune(bench.evaluate, fx["budget"], benchmark_name=benchmark_name)
        assert _trace(history) == fx["evaluations"]
        assert list(history.best_so_far()) == fx["incumbent"]

    @pytest.mark.parametrize("tuner_name,benchmark_name", BASELINE_CASES)
    def test_identical_baseline_trace(self, baselines, tuner_name, benchmark_name):
        from repro.experiments.runner import make_tuner
        from repro.workloads.registry import get_benchmark

        fx = baselines["trajectories"][tuner_name][benchmark_name]
        bench = get_benchmark(benchmark_name)
        tuner = make_tuner(tuner_name, bench.space, seed=fx["seed"])
        history = tuner.tune(bench.evaluate, fx["budget"], benchmark_name=benchmark_name)
        assert _trace(history) == fx["evaluations"]
        assert list(history.best_so_far()) == fx["incumbent"]

    def test_identical_expert_configurations(self, baselines):
        from repro.workloads.registry import benchmark_names, get_benchmark

        got = {}
        for name in benchmark_names():
            expert = get_benchmark(name).expert_configuration
            got[name] = None if expert is None else _plain(expert)
        assert got == baselines["expert_configurations"]


# the script a "crashed and restarted" tuning process would run: load the
# checkpoint, rebuild the tuner from the registry, finish the run, dump the
# trace as JSON
_RESUME_SCRIPT = """
import json, sys
from repro.core.session import drive
from repro.experiments.runner import load_session

session, benchmark = load_session(sys.argv[1])
history = drive(session, benchmark.evaluator)
payload = history.to_dict()
payload.pop("tuner_seconds", None)
payload.pop("evaluation_seconds", None)
json.dump(payload, open(sys.argv[2], "w"))
"""


class TestCheckpointResumeBitCompatibility:
    """Satellite guarantee: snapshot at iteration k, restore in a *fresh
    process*, and the completed trace is bit-identical to an uninterrupted
    run — for BaCO and every baseline."""

    BENCHMARK = "hpvm_bfs"
    BUDGET = 12
    INTERRUPT_AT = 5

    @pytest.mark.parametrize(
        "tuner_name",
        ["BaCO", "ATF with OpenTuner", "Ytopt", "Uniform Sampling", "CoT Sampling"],
    )
    def test_fresh_process_resume_identical(self, tuner_name, tmp_path):
        from repro.experiments.runner import make_session, make_tuner, save_session
        from repro.workloads.registry import get_benchmark

        bench = get_benchmark(self.BENCHMARK)

        # the uninterrupted reference trace
        reference = make_tuner(tuner_name, bench.space, seed=17).tune(
            bench.evaluator, self.BUDGET, benchmark_name=bench.name
        )
        expected = reference.to_dict()
        expected.pop("tuner_seconds", None)
        expected.pop("evaluation_seconds", None)

        # run to the interruption point, checkpoint, and "crash"
        session, _ = make_session(self.BENCHMARK, tuner_name, self.BUDGET, 17)
        while len(session.history) < self.INTERRUPT_AT:
            [suggestion] = session.ask(1)
            session.tell(suggestion, bench.evaluator(suggestion.configuration))
        checkpoint = tmp_path / "session.ckpt.json"
        save_session(session, checkpoint)
        del session

        # restore and finish in a fresh interpreter
        out = tmp_path / "resumed_history.json"
        proc = subprocess.run(
            [sys.executable, "-c", _RESUME_SCRIPT, str(checkpoint), str(out)],
            capture_output=True,
            text=True,
            env={
                **os.environ,
                "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
            },
        )
        assert proc.returncode == 0, proc.stderr
        resumed = json.loads(out.read_text())
        assert resumed == expected


class TestTcpServiceBitCompatibility:
    """Tentpole guarantee of the TCP serving layer: a session driven over
    the network — concurrently with an unrelated session on the same server
    — produces a trajectory bit-identical to the same seed driven
    in-process.  The framing, the wire encoding, per-session locking, and
    cross-session interleaving must all be invisible to the trace."""

    BENCHMARK = "hpvm_bfs"
    BUDGET = 10

    @pytest.mark.parametrize("tuner_name", ["BaCO", "Ytopt", "CoT Sampling"])
    def test_tcp_trace_matches_in_process(self, tuner_name):
        import threading

        from repro.client import TuningClient
        from repro.core.session import drive
        from repro.experiments.runner import make_session
        from repro.server import running_server
        from repro.service import SessionRegistry
        from repro.workloads.registry import get_benchmark

        bench = get_benchmark(self.BENCHMARK)

        # the serial in-process reference trajectory
        session, _ = make_session(self.BENCHMARK, tuner_name, self.BUDGET, 17)
        drive(session, bench.evaluator)
        expected = session.snapshot()["history"]["evaluations"]

        registry = SessionRegistry(max_sessions=4)
        errors: list[BaseException] = []
        got: dict[str, list] = {}

        def main_client(port):
            try:
                with TuningClient(port=port, session="under-test") as client:
                    client.start(benchmark=self.BENCHMARK, tuner=tuner_name,
                                 budget=self.BUDGET, seed=17)
                    client.drive(bench.evaluator)
                    snapshot = client.snapshot()["snapshot"]
                    got["trace"] = snapshot["history"]["evaluations"]
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def noisy_neighbour(port):
            # unrelated traffic interleaving on the same server must not
            # perturb the session under test
            try:
                with TuningClient(port=port, session="neighbour") as client:
                    client.start(benchmark=self.BENCHMARK,
                                 tuner="Uniform Sampling", budget=8, seed=3)
                    client.drive(bench.evaluator)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        with running_server(registry) as server:
            threads = [
                threading.Thread(target=main_client, args=(server.port,)),
                threading.Thread(target=noisy_neighbour, args=(server.port,)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors, errors
        assert got["trace"] == expected


class TestFastPolicyCheckpointBitCompatibility:
    """Satellite guarantee for the fast surrogate policy: the incremental
    refit state (warm-started hyper-parameters, Cholesky coverage, refit
    cadence counters) snapshots and restores *exactly*.  A run interrupted at
    iteration k and resumed — in-process, in a fresh interpreter, or over
    TCP — finishes bit-identical to the uninterrupted run, for every policy
    shape."""

    BENCHMARK = "hpvm_bfs"
    BUDGET = 18
    INTERRUPT_AT = 7
    POLICIES = ("fast", "fast,refit_every=3,sweep_every=10")

    def _expected_trace(self, policy):
        from repro.experiments.runner import make_tuner
        from repro.workloads.registry import get_benchmark

        bench = get_benchmark(self.BENCHMARK)
        history = make_tuner(
            "BaCO", bench.space, seed=17, surrogate_policy=policy
        ).tune(bench.evaluator, self.BUDGET, benchmark_name=bench.name)
        expected = history.to_dict()
        expected.pop("tuner_seconds", None)
        expected.pop("evaluation_seconds", None)
        return bench, expected

    def _partial_session(self, bench, policy):
        from repro.experiments.runner import make_session

        session, _ = make_session(
            self.BENCHMARK, "BaCO", self.BUDGET, 17, surrogate_policy=policy
        )
        while len(session.history) < self.INTERRUPT_AT:
            [suggestion] = session.ask(1)
            session.tell(suggestion, bench.evaluator(suggestion.configuration))
        return session

    @pytest.mark.parametrize("policy", POLICIES)
    def test_in_process_resume_identical(self, policy):
        from repro.core.session import drive
        from repro.experiments.runner import restore_session

        bench, expected = self._expected_trace(policy)
        session = self._partial_session(bench, policy)
        # the JSON round-trip is part of the contract: every float in the
        # policy state must survive serialization bit-exactly
        payload = json.loads(json.dumps(session.snapshot()))
        del session

        resumed, _ = restore_session(payload)
        history = drive(resumed, bench.evaluator)
        got = history.to_dict()
        got.pop("tuner_seconds", None)
        got.pop("evaluation_seconds", None)
        assert got == expected

    @pytest.mark.parametrize("policy", POLICIES)
    def test_fresh_process_resume_identical(self, policy, tmp_path):
        from repro.experiments.runner import save_session

        bench, expected = self._expected_trace(policy)
        session = self._partial_session(bench, policy)
        checkpoint = tmp_path / "session.ckpt.json"
        save_session(session, checkpoint)
        del session

        out = tmp_path / "resumed_history.json"
        proc = subprocess.run(
            [sys.executable, "-c", _RESUME_SCRIPT, str(checkpoint), str(out)],
            capture_output=True,
            text=True,
            env={
                **os.environ,
                "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
            },
        )
        assert proc.returncode == 0, proc.stderr
        resumed = json.loads(out.read_text())
        assert resumed == expected

    def test_tcp_trace_matches_in_process(self):
        import threading

        from repro.client import TuningClient
        from repro.server import running_server
        from repro.service import SessionRegistry

        policy = "fast,refit_every=3,sweep_every=10"
        bench, expected = self._expected_trace(policy)

        registry = SessionRegistry(max_sessions=2)
        errors: list[BaseException] = []
        got: dict[str, list] = {}

        def client_thread(port):
            try:
                with TuningClient(port=port, session="fast-policy") as client:
                    client.start(
                        benchmark=self.BENCHMARK, tuner="BaCO",
                        budget=self.BUDGET, seed=17, surrogate_policy=policy,
                    )
                    client.drive(bench.evaluator)
                    snapshot = client.snapshot()["snapshot"]
                    got["trace"] = snapshot["history"]["evaluations"]
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        with running_server(registry) as server:
            thread = threading.Thread(target=client_thread, args=(server.port,))
            thread.start()
            thread.join()
        assert not errors, errors
        assert got["trace"] == expected["evaluations"]

    def test_snapshot_records_policy_state(self):
        from repro.workloads.registry import get_benchmark

        bench = get_benchmark(self.BENCHMARK)
        session = self._partial_session(bench, "fast,refit_every=3,sweep_every=10")
        state = session.snapshot()["tuner_state"]["surrogate_policy"]
        assert state["spec"] == "fast,refit_every=3,sweep_every=10"
        assert state["hypers"] is not None
        assert state["chol_base_n"] >= 2
        assert state["last_sweep_n"] >= 2

        # exact-mode snapshots must not grow the key (committed bit-compat
        # fixtures predate the policy and must keep matching byte-for-byte)
        exact = self._partial_session(bench, None)
        assert "surrogate_policy" not in exact.snapshot()["tuner_state"]

    def test_service_rejects_bad_policy_specs(self):
        from repro.service import SessionRegistry

        registry = SessionRegistry(max_sessions=2)
        base = {
            "op": "start", "session": "s", "benchmark": self.BENCHMARK,
            "tuner": "BaCO", "budget": 4, "seed": 0,
        }
        for bad in ("fast,warp=9", "turbo", 7, ["fast"]):
            response = registry.handle({**base, "surrogate_policy": bad})
            assert not response["ok"], bad
            assert "surrogate_policy" in response["error"] or "policy" in response["error"]
        # and the valid spec still starts
        response = registry.handle({**base, "surrogate_policy": "fast"})
        assert response["ok"], response

    def _assert_checkpoint_rejected(self, payload, option, tmp_path):
        """``restore_session``, ``repro tune --resume`` and the TCP ``start``
        and ``restore`` ops all refuse ``payload`` naming ``option``."""
        from repro.client import TuningClient
        from repro.experiments.runner import restore_session
        from repro.server import running_server
        from repro.service import SessionRegistry, wire_encode

        message = f"unknown policy option '{option}'"
        with pytest.raises(ValueError, match=message):
            restore_session(payload)

        checkpoint = tmp_path / "old.ckpt.json"
        checkpoint.write_text(json.dumps(payload))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "tune", "--resume",
             "--checkpoint", str(checkpoint), "--quiet"],
            capture_output=True,
            text=True,
            env={
                **os.environ,
                "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
            },
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ")
        assert message in proc.stderr

        with running_server(SessionRegistry(max_sessions=2)) as server:
            with TuningClient(port=server.port, session="old-spec") as client:
                started = client.call(
                    "start", benchmark=self.BENCHMARK, tuner="BaCO", budget=4,
                    seed=0, surrogate_policy=payload["meta"]["surrogate_policy"],
                )
                restored = client.call("restore", payload=wire_encode(payload))
        for response in (started, restored):
            assert not response["ok"]
            assert message in response["error"]

    def test_removed_policy_options_fail_loudly(self, tmp_path):
        """``rf_at``, ``cache`` and ``pool`` are gone: specs and old
        checkpoints that name them raise a ``ValueError`` naming the option
        instead of silently falling back to another policy."""
        from repro.core.baco import SurrogatePolicy
        from repro.workloads.registry import get_benchmark

        for spec, option in (
            ("fast,rf_at=8", "rf_at"),
            ("fast,rf_at=auto", "rf_at"),
            ("fast,cache=off", "cache"),
            ("fast,pool=8", "pool"),
        ):
            with pytest.raises(ValueError, match=f"unknown policy option '{option}'"):
                SurrogatePolicy.parse(spec)

        policy = "fast,refit_every=3,sweep_every=10"
        session = self._partial_session(get_benchmark(self.BENCHMARK), policy)
        snapshot = json.loads(json.dumps(session.snapshot()))

        # a checkpoint written before rf_at was removed
        payload = copy.deepcopy(snapshot)
        payload["meta"]["surrogate_policy"] = "fast,rf_at=auto"
        payload["tuner_state"]["surrogate_policy"]["spec"] = "fast,rf_at=auto"
        self._assert_checkpoint_rejected(payload, "rf_at", tmp_path)

        # one of a pool=N run, with the pool rows and refill slots it carried
        payload = copy.deepcopy(snapshot)
        payload["meta"]["surrogate_policy"] = f"{policy},pool=48"
        state = payload["tuner_state"]["surrogate_policy"]
        state["spec"] = f"{policy},pool=48"
        state["pool_rows"] = session.tuner.space.sample_rows(
            np.random.default_rng(0), 48
        ).tolist()
        state["pool_refill"] = [0, 3, 7]
        self._assert_checkpoint_rejected(payload, "pool", tmp_path)


def _policy_state(edit):
    """A snapshot edit applied to ``tuner_state.surrogate_policy``."""
    return lambda tuner_state: edit(tuner_state["surrogate_policy"])


def _negate_lengthscales(state):
    state["hypers"]["lengthscales"] = [-x for x in state["hypers"]["lengthscales"]]


#: (case id, edit of the snapshot's tuner_state, text the error must contain)
TAMPERED_POLICY_STATES = [
    ("chol_base_n-negative", _policy_state(lambda st: st.update(chol_base_n=-5)), "chol_base_n"),
    ("chol_base_n-float", _policy_state(lambda st: st.update(chol_base_n=8.9)), "chol_base_n"),
    ("chol_base_n-beyond-history", _policy_state(lambda st: st.update(chol_base_n=10)), "chol_base_n"),
    ("last_refit_n-bool", _policy_state(lambda st: st.update(last_refit_n=True)), "last_refit_n"),
    ("last_sweep_n-negative", _policy_state(lambda st: st.update(last_sweep_n=-3)), "last_sweep_n"),
    ("last_sweep_n-missing", _policy_state(lambda st: st.pop("last_sweep_n")), "last_sweep_n"),
    ("lengthscales-negated", _policy_state(_negate_lengthscales), "lengthscales"),
    ("lengthscales-short", _policy_state(lambda st: st["hypers"]["lengthscales"].pop()), "lengthscales"),
    ("noise_variance-zero", _policy_state(lambda st: st["hypers"].update(noise_variance=0.0)), "noise_variance"),
    ("hypers-null", _policy_state(lambda st: st.update(hypers=None)), "hypers"),
    ("pool_rows", _policy_state(lambda st: st.update(pool_rows=[[0.0] * 4])), "pool_rows"),
    ("pool_refill", _policy_state(lambda st: st.update(pool_refill=[0])), "pool_refill"),
    ("payload-missing", lambda tuner_state: tuner_state.pop("surrogate_policy"), "has no surrogate_policy"),
]


class TestTamperedPolicyStateRejected:
    """The ``fast`` policy state is checked on restore: every field must be
    what :meth:`BacoTuner._state_dict` could have written for the replayed
    history.  A client's tampered snapshot raises a ``ValueError`` naming the
    field — in-process and through the TCP ``restore`` op — instead of
    resuming a run that silently diverges from the original."""

    BENCHMARK = "hpvm_bfs"
    POLICY = "fast,refit_every=3,sweep_every=10"
    BUDGET = 18
    INTERRUPT_AT = 9

    @pytest.fixture(scope="class")
    def snapshot(self):
        from repro.experiments.runner import make_session
        from repro.workloads.registry import get_benchmark

        bench = get_benchmark(self.BENCHMARK)
        session, _ = make_session(
            self.BENCHMARK, "BaCO", self.BUDGET, 17, surrogate_policy=self.POLICY
        )
        while len(session.history) < self.INTERRUPT_AT:
            [suggestion] = session.ask(1)
            session.tell(suggestion, bench.evaluator(suggestion.configuration))
        payload = json.loads(json.dumps(session.snapshot()))
        # the honest state the cases edit: 9 feasible observations, the last
        # full factorization over 8 of them
        state = payload["tuner_state"]["surrogate_policy"]
        assert state["chol_base_n"] == 8 and state["hypers"] is not None
        assert sum(e["feasible"] for e in payload["history"]["evaluations"]) == 9
        return payload

    @pytest.mark.parametrize(
        "edit,field", [case[1:] for case in TAMPERED_POLICY_STATES],
        ids=[case[0] for case in TAMPERED_POLICY_STATES],
    )
    def test_rejected_naming_the_field(self, snapshot, edit, field):
        from repro.client import TuningClient
        from repro.experiments.runner import restore_session
        from repro.server import running_server
        from repro.service import SessionRegistry, wire_encode

        payload = copy.deepcopy(snapshot)
        edit(payload["tuner_state"])
        with pytest.raises(ValueError, match=field):
            restore_session(payload)

        with running_server(SessionRegistry(max_sessions=2)) as server:
            with TuningClient(port=server.port, session="tampered") as client:
                response = client.call("restore", payload=wire_encode(payload))
        assert not response["ok"]
        assert response["error"].startswith("ValueError: ")
        assert field in response["error"]

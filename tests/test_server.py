"""Tests for the concurrent multi-session tuning server.

Covers the registry (named sessions, per-session locking, LRU eviction with
autosave, transparent reload, and writing a checkpoint only when the disk
lacks it), the TCP framing layer, the blocking client, the bytes of every
response line (one ``json.dumps`` pass, the ``wire_encode`` walk only when
it raises) and the client's decode of them, and the acceptance guarantee:
concurrent clients driving distinct named sessions over TCP produce traces
bit-identical to serial in-process runs, and a server kill/restart with a
sessions directory resumes every session without losing or changing an
evaluation.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client import ServiceError, TuningClient, _decode_response
from repro.core.result import configuration_from_json
from repro.core.session import drive
from repro.experiments import runner
from repro.experiments.runner import make_session
from repro.server import running_server
from repro.service import REQUESTS, DEFAULT_SESSION, SessionRegistry, wire_decode, wire_encode
from repro.workloads.registry import get_benchmark

BENCH = "hpvm_bfs"


def start_request(**overrides):
    request = {
        "op": "start",
        "benchmark": BENCH,
        "tuner": "Uniform Sampling",
        "budget": 6,
        "seed": 2,
    }
    request.update(overrides)
    return request


def reference_history(tuner: str, seed: int, budget: int) -> dict:
    """The serial in-process trace for one (tuner, seed, budget) cell."""
    bench = get_benchmark(BENCH)
    session, _ = make_session(BENCH, tuner, budget, seed)
    drive(session, bench.evaluator)
    return session.snapshot()["history"]


class TestRegistryRouting:
    def test_sessions_are_isolated_by_name(self):
        registry = SessionRegistry(max_sessions=4)
        assert registry.handle(start_request(session="a", seed=1))["ok"]
        assert registry.handle(start_request(session="b", seed=2))["ok"]
        asked = registry.handle({"op": "ask", "session": "a", "n": 2})
        assert len(asked["suggestions"]) == 2
        # telling into "b" with "a"'s suggestion id fails; "a" still works
        assert not registry.handle({"op": "tell", "session": "b", "id": 0, "value": 1.0})["ok"]
        assert registry.handle({"op": "tell", "session": "a", "id": 0, "value": 1.0})["ok"]
        assert registry.handle({"op": "status", "session": "a"})["evaluations"] == 1
        assert registry.handle({"op": "status", "session": "b"})["evaluations"] == 0

    def test_default_session_name(self):
        registry = SessionRegistry(max_sessions=2)
        assert registry.handle(start_request())["ok"]
        listing = registry.handle({"op": "sessions"})
        assert [row["session"] for row in listing["active"]] == [DEFAULT_SESSION]

    def test_registry_full_without_sessions_dir(self):
        registry = SessionRegistry(max_sessions=1)
        assert registry.handle(start_request(session="a"))["ok"]
        response = registry.handle(start_request(session="b"))
        assert response["ok"] is False
        assert "full" in response["error"] and "sessions-dir" in response["error"]
        # replacing a *finished* same-name session is not an admission
        assert not registry.handle(start_request(session="a"))["ok"]  # active

    def test_close_then_reuse_name(self):
        registry = SessionRegistry(max_sessions=1)
        assert registry.handle(start_request(session="a"))["ok"]
        closed = registry.handle({"op": "close", "session": "a"})
        assert closed["ok"] and closed["saved"] is None
        assert registry.handle(start_request(session="b"))["ok"]


class TestLruEvictionAndReload:
    def test_eviction_autosaves_and_reload_is_transparent(self, tmp_path):
        registry = SessionRegistry(sessions_dir=tmp_path, max_sessions=2)
        for name, seed in [("a", 1), ("b", 2), ("c", 3)]:
            assert registry.handle(start_request(session=name, seed=seed))["ok"]
        # "a" (least recently used) was evicted to disk
        listing = registry.handle({"op": "sessions"})
        assert sorted(row["session"] for row in listing["active"]) == ["b", "c"]
        assert listing["autosaved"] == ["a"]
        assert (tmp_path / "a.ckpt.json").exists()

        # an op naming "a" reloads it (and evicts the new LRU, "b")
        asked = registry.handle({"op": "ask", "session": "a"})
        assert asked["ok"] and len(asked["suggestions"]) == 1
        listing = registry.handle({"op": "sessions"})
        assert sorted(row["session"] for row in listing["active"]) == ["a", "c"]
        assert listing["autosaved"] == ["b"]

    def test_evicted_session_trace_is_unchanged(self, tmp_path):
        """Eviction + reload round-trips through save_session/load_session
        without losing or changing an evaluation."""
        registry = SessionRegistry(sessions_dir=tmp_path, max_sessions=1)
        bench = get_benchmark(BENCH)
        assert registry.handle(start_request(session="a", seed=7, budget=8))["ok"]

        def step(name):
            asked = registry.handle({"op": "ask", "session": name})
            [entry] = asked["suggestions"]
            configuration = {
                k: (tuple(v) if isinstance(v, list) else v)
                for k, v in entry["configuration"].items()
            }
            result = bench.evaluator(configuration)
            fields = {"feasible": result.feasible}
            if result.feasible:
                fields["value"] = result.value
            told = registry.handle(
                {"op": "tell", "session": name, "id": entry["id"], **fields}
            )
            assert told["ok"], told

        for i in range(4):
            step("a")
            if i == 1:  # force an eviction/reload cycle mid-run
                assert registry.handle(start_request(session="bump", seed=0))["ok"]
                assert registry.handle({"op": "close", "session": "bump"})["ok"]
        for _ in range(4):
            step("a")

        from repro.service import wire_decode

        got = wire_decode(registry.handle({"op": "snapshot", "session": "a"})["snapshot"])
        expected = reference_history("Uniform Sampling", 7, 8)
        assert got["history"]["evaluations"] == expected["evaluations"]

    def test_custom_path_snapshot_does_not_disable_autosave(self, tmp_path):
        """Regression: a snapshot to a caller-supplied path must not mark
        the entry clean — shutdown still has to write the registry's own
        autosave file, or kill/resume silently loses evaluations."""
        sessions_dir = tmp_path / "sessions"
        registry = SessionRegistry(sessions_dir=sessions_dir, max_sessions=4)
        assert registry.handle(start_request(session="a"))["ok"]
        registry.handle({"op": "ask", "session": "a"})
        registry.handle({"op": "tell", "session": "a", "id": 0, "value": 2.0})
        custom = tmp_path / "elsewhere.ckpt.json"
        assert registry.handle(
            {"op": "snapshot", "session": "a", "path": str(custom)}
        )["ok"]
        assert custom.exists()
        registry.handle({"op": "shutdown"})
        autosave = sessions_dir / "a.ckpt.json"
        assert autosave.exists()
        assert json.loads(autosave.read_text())["history"]["evaluations"]

    def test_close_reports_only_existing_checkpoints(self):
        registry = SessionRegistry(max_sessions=2)
        assert registry.handle(start_request(session="a"))["ok"]
        closed = registry.handle({"op": "close", "session": "a"})
        assert closed["ok"] and closed["saved"] is None

    def test_shutdown_autosaves_every_dirty_session(self, tmp_path):
        registry = SessionRegistry(sessions_dir=tmp_path, max_sessions=4)
        registry.handle(start_request(session="a"))
        registry.handle(start_request(session="b"))
        response = registry.handle({"op": "shutdown"})
        assert response["ok"] and response["stopping"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "a.ckpt.json", "b.ckpt.json",
        ]
        assert not registry.running


class TestTcpServer:
    def test_roundtrip_and_client_errors(self):
        registry = SessionRegistry(max_sessions=4)
        with running_server(registry) as server:
            with TuningClient(port=server.port, session="s") as client:
                started = client.start(benchmark=BENCH, budget=4,
                                       tuner="Uniform Sampling", seed=0)
                assert started["benchmark"] == BENCH
                asked = client.ask(2)
                assert len(asked["suggestions"]) == 2
                client.tell(0, 2.0)
                client.tell(1, feasible=False)
                status = client.status()
                assert status["evaluations"] == 2 and status["best_value"] == 2.0
                with pytest.raises(ServiceError, match="unknown op"):
                    client.request("frobnicate")
                with pytest.raises(ServiceError, match="in-flight|active"):
                    client.start(benchmark=BENCH, budget=4)

    def test_malformed_lines_do_not_kill_the_connection(self):
        registry = SessionRegistry(max_sessions=4)
        with running_server(registry) as server:
            with TuningClient(port=server.port) as client:
                # raw garbage through the same socket, bypassing the client's
                # json encoding
                client._file.write(b"{not json\n")
                client._file.flush()
                raw = client._file.readline()
                response = json.loads(raw)
                assert response["ok"] is False
                # the connection (and registry) still serve afterwards
                assert client.sessions()["ok"]

    def test_shutdown_op_stops_the_server(self):
        registry = SessionRegistry(max_sessions=4)
        with running_server(registry) as server:
            with TuningClient(port=server.port) as client:
                assert client.shutdown()["stopping"]
            assert not registry.running

    def test_concurrent_named_sessions_bit_identical(self):
        """Acceptance: two clients, two named sessions, one server — each
        trace equals the serial in-process run with the same seed."""
        cells = {
            "uniform-5": ("Uniform Sampling", 5, 10),
            "cot-9": ("CoT Sampling", 9, 10),
        }
        bench = get_benchmark(BENCH)
        registry = SessionRegistry(max_sessions=4)
        traces: dict[str, dict] = {}
        errors: list[BaseException] = []

        def worker(name, tuner, seed, budget):
            try:
                with TuningClient(port=port, session=name) as client:
                    client.start(benchmark=BENCH, tuner=tuner, budget=budget,
                                 seed=seed)
                    client.drive(bench.evaluator)
                    traces[name] = client.snapshot()["snapshot"]["history"]
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        with running_server(registry) as server:
            port = server.port
            threads = [
                threading.Thread(target=worker, args=(name, *cell))
                for name, cell in cells.items()
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors, errors
        for name, (tuner, seed, budget) in cells.items():
            expected = reference_history(tuner, seed, budget)
            assert traces[name]["evaluations"] == expected["evaluations"], name

    def test_kill_and_restart_resumes_from_sessions_dir(self, tmp_path):
        """Acceptance: server killed mid-run, a fresh server on the same
        --sessions-dir resumes both sessions without losing or changing an
        evaluation."""
        cells = {
            "uniform-5": ("Uniform Sampling", 5, 10, 4),
            "cot-9": ("CoT Sampling", 9, 10, 5),
        }
        bench = get_benchmark(BENCH)
        errors: list[BaseException] = []

        def drive_partial(port, name, tuner, seed, budget, stop):
            try:
                with TuningClient(port=port, session=name) as client:
                    client.start(benchmark=BENCH, tuner=tuner, budget=budget,
                                 seed=seed)
                    for _ in range(stop):
                        [entry] = client.ask(1)["suggestions"]
                        configuration = {
                            k: (tuple(v) if isinstance(v, list) else v)
                            for k, v in entry["configuration"].items()
                        }
                        result = bench.evaluator(configuration)
                        client.tell(entry["id"], result.value,
                                    feasible=result.feasible)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        registry = SessionRegistry(sessions_dir=tmp_path, max_sessions=4)
        with running_server(registry) as server:
            threads = [
                threading.Thread(target=drive_partial,
                                 args=(server.port, name, *cell))
                for name, cell in cells.items()
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors, errors
        # the context manager shut the server down and autosaved both runs
        assert sorted(p.name for p in tmp_path.glob("*.ckpt.json")) == [
            "cot-9.ckpt.json", "uniform-5.ckpt.json",
        ]

        traces: dict[str, dict] = {}

        def finish(port, name):
            try:
                with TuningClient(port=port, session=name) as client:
                    assert client.status()["evaluations"] == cells[name][3]
                    client.drive(bench.evaluator)
                    traces[name] = client.snapshot()["snapshot"]["history"]
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        fresh = SessionRegistry(sessions_dir=tmp_path, max_sessions=4)
        with running_server(fresh) as server:
            threads = [
                threading.Thread(target=finish, args=(server.port, name))
                for name in cells
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors, errors
        for name, (tuner, seed, budget, _) in cells.items():
            expected = reference_history(tuner, seed, budget)
            assert traces[name]["evaluations"] == expected["evaluations"], name


class TestClientHelpers:
    def test_inline_snapshot_restore_roundtrip(self):
        registry = SessionRegistry(max_sessions=4)
        bench = get_benchmark(BENCH)
        with running_server(registry) as server:
            with TuningClient(port=server.port, session="a") as client:
                client.start(benchmark=BENCH, budget=6,
                             tuner="Uniform Sampling", seed=3)
                [entry] = client.ask(1)["suggestions"]
                client.tell(entry["id"], 1.5)
                payload = client.snapshot()["snapshot"]
            # restore the payload under a different name and finish there
            with TuningClient(port=server.port, session="b") as client:
                restored = client.restore(payload=payload)
                assert restored["evaluations"] == 1
                client.drive(bench.evaluator)
                assert client.status()["done"]

    def test_nonfinite_values_round_trip_the_wire(self):
        """Regression: the client must not silently drop non-finite values —
        an infeasible -inf is recorded verbatim, and a feasible inf draws
        the server's pointed error rather than a missing-'value' one."""
        registry = SessionRegistry(max_sessions=2)
        with running_server(registry) as server:
            with TuningClient(port=server.port, session="a") as client:
                client.start(benchmark=BENCH, budget=4,
                             tuner="Uniform Sampling", seed=0)
                client.ask(2)
                client.tell(0, float("-inf"), feasible=False)
                with pytest.raises(ServiceError, match="finite 'value'"):
                    client.tell(1, float("inf"))
                history = client.snapshot()["snapshot"]["history"]
        assert history["evaluations"][0]["value"] == float("-inf")

    def test_drive_reports_best_value(self):
        registry = SessionRegistry(max_sessions=4)
        bench = get_benchmark(BENCH)
        with running_server(registry) as server:
            with TuningClient(port=server.port, session="a") as client:
                client.start(benchmark=BENCH, budget=5,
                             tuner="CoT Sampling", seed=1)
                best = client.drive(bench.evaluator, batch_size=2)
                assert best == client.status()["best_value"]


# ---------------------------------------------------------------------------
# the bytes on the wire
# ---------------------------------------------------------------------------


def _outcome(compute, *args) -> str:
    """``repr`` of what ``compute`` returns (NaN-safe), or its error."""
    try:
        return repr(compute(*args))
    except (ValueError, TypeError) as error:
        return f"{type(error).__name__}: {error}"


_DUMP = SessionRegistry._dump


def _assert_wire_bytes(response) -> str:
    """The registry's line for ``response`` is the encoding walk's, and the
    client decodes it as ``wire_decode(json.loads(line))`` does."""
    line = _DUMP(None, response)
    assert line == json.dumps(wire_encode(response), allow_nan=False)
    assert _outcome(_decode_response, line.encode()) == _outcome(
        lambda: wire_decode(json.loads(line))
    )
    return line


_KEYS = st.one_of(st.text(max_size=6), st.just("$float"))
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=8),
    st.floats(), st.sampled_from([float("inf"), float("-inf"), float("nan")]),
)
_TREES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_KEYS, children, max_size=4),
    ),
    max_leaves=24,
)


@given(st.dictionaries(_KEYS, _TREES, max_size=5))
@settings(deadline=None)
def test_response_lines_have_the_bytes_of_the_encoding_walk(response):
    """String-keyed trees of every JSON type, finite and non-finite floats
    and ``$float`` keys included."""
    _assert_wire_bytes(response)


def test_every_op_response_has_the_bytes_of_the_encoding_walk(tmp_path, monkeypatch):
    lines: dict[str, list[str]] = {}

    def checked(self, response):
        line = _assert_wire_bytes(response)
        lines.setdefault(response.get("op", "bad request"), []).append(line)
        return line

    monkeypatch.setattr(SessionRegistry, "_dump", checked)
    registry = SessionRegistry(sessions_dir=tmp_path / "sessions", max_sessions=4)

    def send(request) -> dict:
        return json.loads(registry.handle_line(json.dumps(request)))

    send(start_request(session="a", budget=4))
    send({"op": "ask", "session": "a", "n": 2})
    send({"op": "tell", "session": "a", "id": 0, "value": 2.5})
    send({"op": "tell", "session": "a", "id": 1, "value": "inf", "feasible": False})
    send({"op": "status", "session": "a"})
    inline = send({"op": "snapshot", "session": "a"})["snapshot"]
    assert {"$float": "inf"} in [e["value"] for e in inline["history"]["evaluations"]]
    send({"op": "snapshot", "session": "a", "path": str(tmp_path / "a.json")})
    send({"op": "restore", "session": "b", "payload": inline})
    send({"op": "restore", "session": "c", "path": str(tmp_path / "a.json")})
    send({"op": "close", "session": "b"})
    send({"op": "sessions"})
    send({"op": "tell", "session": "a", "id": 7, "value": 1.0})  # an error
    registry.handle_line("{not json")
    send({"op": "shutdown"})
    assert set(REQUESTS) <= set(lines)
    assert any('"$float"' in line for line in lines["snapshot"])
    assert all('"$float"' not in line for line in lines["ask"] + lines["tell"])


# ---------------------------------------------------------------------------
# writing only the checkpoints the disk lacks
# ---------------------------------------------------------------------------


@pytest.fixture
def saves(monkeypatch) -> list[str]:
    """The file names ``save_session`` writes, in order."""
    written: list[str] = []
    save = runner.save_session

    def counting(session, path, *args, **kwargs):
        written.append(Path(path).name)
        return save(session, path, *args, **kwargs)

    monkeypatch.setattr(runner, "save_session", counting)
    return written


def _step(registry: SessionRegistry, name: str) -> None:
    """One ask/tell pair of session ``name`` against ``BENCH``."""
    [entry] = registry.handle({"op": "ask", "session": name})["suggestions"]
    result = get_benchmark(BENCH).evaluator(configuration_from_json(entry["configuration"]))
    told = registry.handle({"op": "tell", "session": name, "id": entry["id"],
                            "value": result.value, "feasible": result.feasible})
    assert told["ok"], told


def _checkpoint(path: Path) -> tuple[int, int]:
    payload = json.loads(path.read_text())
    return payload["tuner"]["seed"], len(payload["history"]["evaluations"])


def _clean_a(tmp_path: Path) -> SessionRegistry:
    """A registry of two holding ``a`` (seed 1, two evaluations) clean,
    reloaded from its autosave file, and ``c``."""
    registry = SessionRegistry(sessions_dir=tmp_path, max_sessions=2)
    assert registry.handle(start_request(session="a", seed=1))["ok"]
    _step(registry, "a")
    _step(registry, "a")
    assert registry.handle(start_request(session="b", seed=2))["ok"]
    assert registry.handle(start_request(session="c", seed=3))["ok"]  # evicts a
    assert registry.handle({"op": "status", "session": "a"})["evaluations"] == 2  # evicts b
    assert _checkpoint(tmp_path / "a.ckpt.json") == (1, 2)
    return registry


class TestWriteOnlyWhatTheDiskLacks:
    """Eviction, ``close`` and shutdown write a session's checkpoint unless
    the entry is clean and its file still has the ``os.stat`` identity
    recorded when it became clean."""

    def test_a_clean_victim_is_not_rewritten(self, tmp_path, saves):
        registry = _clean_a(tmp_path)
        path = tmp_path / "a.ckpt.json"
        before = path.stat().st_mtime_ns
        saves.clear()
        assert registry.handle(start_request(session="d", seed=4))["ok"]  # evicts c (dirty)
        assert registry.handle(start_request(session="e", seed=5))["ok"]  # evicts a (clean)
        assert [row["session"] for row in registry.handle({"op": "sessions"})["active"]] == ["d", "e"]
        assert saves == ["c.ckpt.json"]
        assert path.stat().st_mtime_ns == before
        assert registry.handle({"op": "status", "session": "a"})["evaluations"] == 2

    def test_a_dirty_victim_is_written(self, tmp_path, saves):
        registry = _clean_a(tmp_path)
        _step(registry, "a")
        registry.handle({"op": "status", "session": "c"})  # a becomes the LRU
        saves.clear()
        assert registry.handle(start_request(session="d", seed=4))["ok"]  # evicts a
        assert saves == ["a.ckpt.json"]
        assert _checkpoint(tmp_path / "a.ckpt.json") == (1, 3)

    @pytest.mark.parametrize("trigger", ["evict", "close", "shutdown"])
    @pytest.mark.parametrize("change", ["removed", "replaced"])
    def test_a_clean_session_is_written_when_its_file_changed(self, tmp_path, saves, change, trigger):
        """A removed checkpoint, or one a ``snapshot`` of another session
        replaced (a file exists, so a rule that only tests for one would
        leave ``c``'s run in ``a``'s file), is written again."""
        registry = _clean_a(tmp_path)
        path = tmp_path / "a.ckpt.json"
        if change == "removed":
            path.unlink()
        else:
            assert registry.handle({"op": "snapshot", "session": "c", "path": str(path)})["ok"]
            assert _checkpoint(path) == (3, 0)
        registry.handle({"op": "status", "session": "c"})  # a becomes the LRU
        saves.clear()
        if trigger == "evict":
            assert registry.handle(start_request(session="d", seed=4))["ok"]
        elif trigger == "close":
            assert registry.handle({"op": "close", "session": "a"})["saved"] == str(path)
        else:
            assert str(path) in registry.handle({"op": "shutdown"})["saved"]
        assert "a.ckpt.json" in saves
        assert _checkpoint(path) == (1, 2)

    def test_a_snapshot_to_the_own_autosave_path_makes_the_entry_clean(self, tmp_path, saves):
        registry = SessionRegistry(sessions_dir=tmp_path, max_sessions=1)
        assert registry.handle(start_request(session="a", seed=1))["ok"]
        _step(registry, "a")
        path = tmp_path / "a.ckpt.json"
        assert registry.handle({"op": "snapshot", "session": "a", "path": str(path)})["ok"]
        saves.clear()
        assert registry.handle({"op": "close", "session": "a"})["saved"] == str(path)
        assert registry.handle({"op": "shutdown"})["saved"] == []
        assert saves == []
        assert _checkpoint(path) == (1, 1)


#: ``serve_mix``'s traffic, scaled down: hot Uniform Sampling runs on two
#: clients, each touching one of its own pre-seeded cold BaCO sessions every
#: ``_TOUCH_EVERY`` pairs, under a registry that holds four sessions
_SERVE_BENCH, _HOT_BUDGET, _COLD_SESSIONS, _COLD_EVALS = "rise_mm_gpu", 40, 8, 4
_CLIENTS, _TOUCH_EVERY, _PAIRS = 2, 20, 400


def test_a_serve_mix_replay_writes_only_the_close_checkpoints(tmp_path, saves):
    bench = get_benchmark(_SERVE_BENCH)
    sessions_dir = tmp_path / "sessions"
    sessions_dir.mkdir()
    for index in range(_COLD_SESSIONS):
        session, _ = make_session(_SERVE_BENCH, "BaCO", 120, 100 + index, fidelity="paper")
        for _ in range(_COLD_EVALS):
            (suggestion,) = session.ask(1)
            session.tell(suggestion, bench.evaluator(suggestion.configuration))
        runner.save_session(session, sessions_dir / f"cold{index}.ckpt.json")
    saves.clear()
    registry = SessionRegistry(sessions_dir=sessions_dir, max_sessions=4)
    rng = np.random.default_rng(7)
    cold = [list(rng.permutation(range(i, _COLD_SESSIONS, _CLIENTS))) for i in range(_CLIENTS)]
    touches = [0] * _CLIENTS
    seeds = iter(range(1000, 2000))
    runs: list[tuple[int, list]] = []  # (seed, told evaluations) per finished hot run
    state = [None] * _CLIENTS
    for pair in range(_PAIRS):
        client = pair % _CLIENTS
        name = f"hot{client}"
        if state[client] is None:
            state[client] = (next(seeds), [])
            assert registry.handle(start_request(session=name, benchmark=_SERVE_BENCH,
                                                 budget=_HOT_BUDGET, seed=state[client][0],
                                                 force=True))["ok"]
        [entry] = registry.handle({"op": "ask", "session": name})["suggestions"]
        configuration = configuration_from_json(entry["configuration"])
        result = bench.evaluator(configuration)
        value = result.value if np.isfinite(result.value) else repr(result.value)
        told = registry.handle({"op": "tell", "session": name, "id": entry["id"],
                                "value": value, "feasible": result.feasible})
        assert told["ok"], told
        state[client][1].append((configuration, result.value, result.feasible))
        done = len(state[client][1])
        if done % _TOUCH_EVERY == 0:
            touched = cold[client][touches[client] % len(cold[client])]
            touches[client] += 1
            status = registry.handle({"op": "status", "session": f"cold{touched}"})
            assert status["evaluations"] == _COLD_EVALS and not status["pending_ids"]
        if done == _HOT_BUDGET:
            closed = registry.handle({"op": "close", "session": name})
            assert closed["saved"] == str(sessions_dir / f"{name}.ckpt.json")
            runs.append(state[client])
            state[client] = None
    assert registry.handle({"op": "shutdown"})["saved"] == []
    assert len(runs) == _PAIRS // _HOT_BUDGET
    assert saves == [f"hot{i % _CLIENTS}.ckpt.json" for i in range(len(runs))]
    for seed, told in runs:  # the hot traces are the in-process ones
        session, _ = make_session(_SERVE_BENCH, "Uniform Sampling", _HOT_BUDGET, seed)
        drive(session, bench.evaluator)
        assert [(e.configuration, e.value, e.feasible) for e in session.history.evaluations] == told

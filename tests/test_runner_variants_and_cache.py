"""Additional coverage for the experiment runner: variants, caching, fidelity."""

from __future__ import annotations

import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.core.baco import BacoTuner
from repro.experiments import runner
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    MAIN_TUNERS,
    TUNER_VARIANTS,
    _cache_path,
    load_history,
    make_session,
    make_tuner,
    run_single,
    save_session,
)
from repro.workloads import get_benchmark


class TestVariantConstruction:
    def test_baco_variants_set_expected_settings(self, small_space):
        ablations = {
            "BaCO (kendall)": ("permutation_metric", "kendall"),
            "BaCO (hamming)": ("permutation_metric", "hamming"),
            "BaCO (naive permutations)": ("permutation_metric", "naive"),
            "BaCO (no transformations)": ("use_transformations", False),
            "BaCO (no priors)": ("use_lengthscale_priors", False),
            "BaCO (no hidden constraints)": ("use_feasibility_model", False),
            "BaCO (no feasibility limit)": ("use_feasibility_threshold", False),
            "BaCO (RF surrogate)": ("surrogate", "rf"),
        }
        for name, (attribute, expected) in ablations.items():
            tuner = make_tuner(name, small_space, seed=0)
            assert isinstance(tuner, BacoTuner)
            assert getattr(tuner.settings, attribute) == expected

    def test_baco_minus_minus_variant(self, small_space):
        tuner = make_tuner("BaCO--", small_space, seed=0)
        assert isinstance(tuner, BacoTuner)
        assert not tuner.settings.use_local_search
        assert tuner.settings.permutation_metric == "naive"

    def test_fidelity_controls_effort(self, small_space):
        fast = make_tuner("BaCO", small_space, seed=0, fidelity="fast")
        paper = make_tuner("BaCO", small_space, seed=0, fidelity="paper")
        assert fast.settings.gp_prior_samples < paper.settings.gp_prior_samples
        assert fast.settings.n_random_samples < paper.settings.n_random_samples

    @pytest.mark.parametrize("fidelity", ["Fast", "quick"])
    def test_unknown_fidelity_raises(self, small_space, fidelity):
        # any fidelity but "fast" used to build BaCO at paper settings
        with pytest.raises(ValueError, match=f"unknown fidelity '{fidelity}'"):
            make_tuner("BaCO", small_space, seed=0, fidelity=fidelity)

    def test_variant_names_are_stable(self):
        # benchmarks and EXPERIMENTS.md refer to these names; keep them stable
        for name in MAIN_TUNERS:
            assert name in TUNER_VARIANTS
        for name in ("BaCO--", "Ytopt (GP)", "BaCO (RF surrogate)"):
            assert name in TUNER_VARIANTS


class TestCaching:
    def test_cache_path_depends_on_all_key_fields(self, tmp_path):
        config = ExperimentConfig(cache_dir=tmp_path)
        base = _cache_path(config, "bench", "BaCO", 30, 1)
        assert _cache_path(config, "bench", "BaCO", 30, 2) != base
        assert _cache_path(config, "bench", "BaCO", 40, 1) != base
        assert _cache_path(config, "bench", "Ytopt", 30, 1) != base
        assert _cache_path(config, "other", "BaCO", 30, 1) != base

    def test_corrupt_cache_entry_is_recomputed(self, tmp_path):
        config = ExperimentConfig(repetitions=1, cache_dir=tmp_path, use_cache=True)
        history = run_single("hpvm_bfs", "Uniform Sampling", budget=6, seed=3, config=config)
        path = next(tmp_path.glob("*.json"))
        path.write_text("{not valid json")
        recomputed = run_single("hpvm_bfs", "Uniform Sampling", budget=6, seed=3, config=config)
        assert [e.value for e in recomputed] == [e.value for e in history]
        assert json.loads(next(tmp_path.glob("*.json")).read_text())

    def test_malformed_cache_payload_is_recomputed(self, tmp_path):
        """Valid JSON with the wrong shape (TypeError / ValueError territory)
        takes the same unlink-and-recompute path as corrupt JSON."""
        config = ExperimentConfig(repetitions=1, cache_dir=tmp_path, use_cache=True)
        history = run_single("hpvm_bfs", "Uniform Sampling", budget=6, seed=3, config=config)
        path = next(tmp_path.glob("*.json"))
        malformed_payloads = [
            # evaluations is null -> TypeError when iterating
            json.dumps({"tuner": "Uniform Sampling", "evaluations": None}),
            # payload is a list, not a mapping -> TypeError on key lookup
            json.dumps([1, 2, 3]),
            # missing keys -> KeyError
            json.dumps({"benchmark": "hpvm_bfs"}),
        ]
        for payload in malformed_payloads:
            path.write_text(payload)
            recomputed = run_single(
                "hpvm_bfs", "Uniform Sampling", budget=6, seed=3, config=config
            )
            assert [e.value for e in recomputed] == [e.value for e in history]
            # the cache entry was rewritten with a well-formed payload
            assert json.loads(path.read_text())["evaluations"]

    def test_timing_sidecar_keeps_history_json_deterministic(self, tmp_path):
        """Wall-clock measurements live in a ``.timing`` sidecar so the history
        JSON is a pure function of (benchmark, tuner, budget, seed, fidelity)."""
        config = ExperimentConfig(repetitions=1, cache_dir=tmp_path, use_cache=True)
        first = run_single("hpvm_bfs", "Uniform Sampling", budget=6, seed=3, config=config)
        path = next(tmp_path.glob("*.json"))
        payload = json.loads(path.read_text())
        assert "tuner_seconds" not in payload
        assert "evaluation_seconds" not in payload
        # the sidecar restores the measured timings on cache reads
        reloaded = run_single("hpvm_bfs", "Uniform Sampling", budget=6, seed=3, config=config)
        assert reloaded.tuner_seconds == pytest.approx(first.tuner_seconds)
        assert reloaded.evaluation_seconds == pytest.approx(first.evaluation_seconds)

    def test_cache_disabled_writes_nothing(self, tmp_path):
        config = ExperimentConfig(repetitions=1, cache_dir=tmp_path, use_cache=False)
        run_single("hpvm_bfs", "CoT Sampling", budget=5, seed=0, config=config)
        assert not list(tmp_path.glob("*.json"))

    def test_cached_histories_are_seed_deterministic(self, tmp_path):
        """Two fresh runs with the same seed produce identical traces."""
        config = ExperimentConfig(repetitions=1, cache_dir=tmp_path, use_cache=False)
        first = run_single("hpvm_bfs", "CoT Sampling", budget=8, seed=11, config=config)
        second = run_single("hpvm_bfs", "CoT Sampling", budget=8, seed=11, config=config)
        assert [e.value for e in first] == [e.value for e in second]


class TestBenchmarkIntegrationSmoke:
    def test_make_tuner_runs_on_real_benchmark(self):
        benchmark = get_benchmark("hpvm_bfs")
        tuner = make_tuner("BaCO", benchmark.space, seed=0, fidelity="fast")
        history = tuner.tune(benchmark.evaluator, budget=8, benchmark_name=benchmark.name)
        assert len(history) == 8
        assert history.tuner_name == "BaCO"
        assert history.best_value() < float("inf")


#: the committed histories, rebuilt by ``repro sweep ... --fidelity fast``
COMMITTED_CACHE = Path(__file__).resolve().parents[1] / "results" / "cache"
_CACHE_NAME = re.compile(r"(?P<benchmark>.+?)__.+__b(?P<budget>\d+)__s(?P<seed>\d+)__[0-9a-f]{20}\.json")


def _uncached(*args, **kwargs):
    raise AssertionError("a cache hit was recomputed")


#: (case, edit of the cached history of hpvm_bfs, Uniform Sampling, budget
#: 6, seed 3); ``run_single`` used to return the first five as the cell's
#: history, and the sixth raised a ``TypeError`` in ``best_value``
TAMPERED_CACHE_FILES = [
    ("feasible=no", lambda p: p["evaluations"][0].update(feasible="no")),
    ("value=true", lambda p: p["evaluations"][0].update(value=True)),
    ("two-of-six", lambda p: p.update(evaluations=p["evaluations"][:2])),
    ("other-tuner", lambda p: p.update(tuner="CoT Sampling")),
    ("other-benchmark", lambda p: p.update(benchmark="hpvm_audio")),
    ("value=string", lambda p: p["evaluations"][0].update(value="3")),
    ("other-seed", lambda p: p.update(seed=4)),
    ("index-skipped", lambda p: p["evaluations"][1].update(index=2)),
    ("illegal-value", lambda p: p["evaluations"][0]["configuration"].update(unroll_visit=3)),
    ("timing-inline", lambda p: p.update(tuner_seconds=1.0)),
]


class TestCacheLoader:
    """``run_single`` and ``repro report`` read a cache file through one
    loader: it must match the history declaration and its cell (tuner,
    benchmark, seed, exactly ``budget`` evaluations), or it is recomputed by
    ``run_single`` and skipped by ``report``."""

    CELL = ("hpvm_bfs", "Uniform Sampling", 6, 3)

    def test_committed_histories_load_with_nothing_recomputed(self, tmp_path, monkeypatch):
        config = ExperimentConfig(repetitions=1, cache_dir=tmp_path, fidelity="fast")
        monkeypatch.setattr(runner, "make_tuner", _uncached)
        files = sorted(COMMITTED_CACHE.glob("*__*.json"))  # no sweep_manifest.json
        assert len(files) == 273
        for committed in files:
            cell = _CACHE_NAME.fullmatch(committed.name)
            payload = json.loads(committed.read_text())
            budget, seed = int(cell["budget"]), int(cell["seed"])
            copied = Path(shutil.copy(committed, tmp_path))
            assert _cache_path(config, cell["benchmark"], payload["tuner"], budget, seed) == copied
            history = run_single(cell["benchmark"], payload["tuner"], budget, seed, config=config)
            assert history.to_dict() == {
                **payload, "tuner_seconds": 0.0, "evaluation_seconds": 0.0
            }
            assert copied.read_bytes() == committed.read_bytes()

    @pytest.mark.parametrize(
        "edit", [case[1] for case in TAMPERED_CACHE_FILES],
        ids=[case[0] for case in TAMPERED_CACHE_FILES],
    )
    def test_tampered_file_is_recomputed(self, tmp_path, edit):
        config = ExperimentConfig(repetitions=1, cache_dir=tmp_path)
        history = run_single(*self.CELL, config=config)
        path = next(tmp_path.glob("*.json"))
        written = path.read_text()
        payload = json.loads(written)
        edit(payload)
        path.write_text(json.dumps(payload))
        benchmark = get_benchmark(self.CELL[0])
        assert load_history(path, benchmark, *self.CELL[1:]) is None
        recomputed = run_single(*self.CELL, config=config)
        assert [e.value for e in recomputed] == [e.value for e in history]
        assert path.read_text() == written

    def test_report_skips_a_tampered_file(self, tmp_path, capsys):
        from repro.__main__ import main

        config = ExperimentConfig(repetitions=1, cache_dir=tmp_path)
        benchmark, tuner, budget, _ = self.CELL
        for seed in (3, 4):
            run_single(benchmark, tuner, budget, seed, config=config)
        path = _cache_path(config, benchmark, tuner, budget, 4)
        payload = json.loads(path.read_text())
        payload["tuner"] = "CoT Sampling"
        path.write_text(json.dumps(payload))
        argv = ["report", "--benchmarks", benchmark, "--tuners", tuner, "--budget",
                str(budget), "--repetitions", "2", "--seed", "3", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        assert "(1/2)" in capsys.readouterr().out

    def test_timing_sidecar_is_checked(self, tmp_path):
        """``float(true)`` used to read a boolean sidecar field as 1.0 s."""
        config = ExperimentConfig(repetitions=1, cache_dir=tmp_path)
        run_single(*self.CELL, config=config)
        path = next(tmp_path.glob("*.timing"))
        path.write_text(json.dumps({"tuner_seconds": True, "evaluation_seconds": 0.5}))
        reloaded = run_single(*self.CELL, config=config)
        assert (reloaded.tuner_seconds, reloaded.evaluation_seconds) == (0.0, 0.0)
        path.write_text(json.dumps({"tuner_seconds": 2, "evaluation_seconds": 0.5}))
        reloaded = run_single(*self.CELL, config=config)
        assert (reloaded.tuner_seconds, reloaded.evaluation_seconds) == (2, 0.5)


class TestTamperedCheckpoint:
    """``repro tune --resume`` on an edited checkpoint exits 2 naming the
    field; ``meta.fidelity: "quick"`` used to resume at paper settings and
    ``tuner_state: [1]`` to exit 1 with an ``AttributeError`` traceback."""

    @pytest.mark.parametrize("field, value", [("meta", "quick"), ("tuner_state", [1])])
    def test_resume_exits_2(self, tmp_path, capsys, field, value):
        from repro.__main__ import main

        benchmark = get_benchmark("hpvm_bfs")
        session, _ = make_session("hpvm_bfs", "BaCO", 16, 7)
        while len(session.history) < 4:
            [suggestion] = session.ask(1)
            session.tell(suggestion, benchmark.evaluator(suggestion.configuration))
        checkpoint = save_session(session, tmp_path / "edited.ckpt.json")
        payload = json.loads(checkpoint.read_text())
        if field == "meta":
            payload["meta"]["fidelity"] = value
        else:
            payload[field] = value
        checkpoint.write_text(json.dumps(payload))
        assert main(["tune", "--resume", "--checkpoint", str(checkpoint), "--quiet"]) == 2
        named = "'meta.fidelity'" if field == "meta" else "'tuner_state'"
        assert named in capsys.readouterr().err


class TestResumeRefusesRunFlags:
    """A checkpoint defines its run, so ``repro tune --resume`` exits 2
    naming each run-defining flag, before it loads the checkpoint: a BaCO
    ``hpvm_bfs`` seed-7 checkpoint resumed with ``--seed 99`` (or another
    benchmark, tuner, budget or fidelity) used to exit 0 and finish the
    checkpoint's own run."""

    @pytest.mark.parametrize(
        "flag,value",
        [("--benchmark", "hpvm_audio"), ("--tuner", "Uniform Sampling"),
         ("--budget", "50"), ("--seed", "99"), ("--fidelity", "paper")],
    )
    def test_exits_2_naming_the_flag(self, tmp_path, monkeypatch, capsys, flag, value):
        from repro.__main__ import main

        session, _ = make_session("hpvm_bfs", "BaCO", 16, 7)
        checkpoint = save_session(session, tmp_path / "run.ckpt.json")
        saved = checkpoint.read_bytes()

        def load_session(path):
            raise AssertionError("the checkpoint was loaded")

        monkeypatch.setattr(runner, "load_session", load_session)
        argv = ["tune", "--resume", "--checkpoint", str(checkpoint), flag, value, "--quiet"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"error: {flag} cannot be combined with --resume" in captured.err
        assert captured.out == ""
        assert checkpoint.read_bytes() == saved


class TestBatchedTune:
    """``repro tune --eval-workers q`` drives ``ask(q)`` batches over a
    process pool, records ``q`` in the checkpoint, and ``--resume`` reads it
    back: a ``q = 2`` run used to finish serially when resumed without the
    flag, a trace no single ``q`` produces."""

    CELL = ["--benchmark", "hpvm_bfs", "--tuner", "BaCO", "--budget", "12", "--seed", "7"]

    def _tune(self, *argv: str) -> int:
        from repro.__main__ import main

        return main(["tune", *argv, "--quiet"])

    def test_matches_an_in_process_batched_drive(self, tmp_path):
        from repro.core.session import drive

        out = tmp_path / "pool.json"
        assert self._tune(*self.CELL, "--eval-workers", "2", "--out", str(out)) == 0
        session, benchmark = make_session("hpvm_bfs", "BaCO", 12, 7)
        expected = drive(session, benchmark.evaluator, batch_size=2).to_dict()
        for fld in ("tuner_seconds", "evaluation_seconds"):
            del expected[fld]
        assert json.loads(out.read_text()) == expected

    def test_resume_keeps_the_batch_size(self, tmp_path):
        checkpoint, resumed, straight = (
            tmp_path / "run.ckpt.json", tmp_path / "resumed.json", tmp_path / "straight.json"
        )
        assert self._tune(*self.CELL, "--eval-workers", "2", "--stop-after", "6",
                          "--checkpoint", str(checkpoint)) == 0
        assert json.loads(checkpoint.read_text())["meta"]["batch_size"] == 2
        assert self._tune("--resume", "--checkpoint", str(checkpoint),
                          "--out", str(resumed)) == 0
        assert self._tune(*self.CELL, "--eval-workers", "2", "--out", str(straight)) == 0
        assert resumed.read_bytes() == straight.read_bytes()

    def test_eval_workers_with_resume_exits_2(self, tmp_path, capsys):
        checkpoint = tmp_path / "run.ckpt.json"
        assert self._tune(*self.CELL, "--stop-after", "2", "--checkpoint", str(checkpoint)) == 0
        assert self._tune("--resume", "--checkpoint", str(checkpoint),
                          "--eval-workers", "2") == 2
        assert "--eval-workers cannot be combined with --resume" in capsys.readouterr().err
        payload = json.loads(checkpoint.read_text())
        payload["meta"]["batch_size"] = 0
        checkpoint.write_text(json.dumps(payload))
        assert self._tune("--resume", "--checkpoint", str(checkpoint)) == 2
        assert "'meta.batch_size'" in capsys.readouterr().err


class TestTuneCountsBelowOne:
    """``repro tune`` exits 2 naming the flag for a count below 1, as it does
    for ``--budget 0``: ``--eval-workers 0`` and ``-3`` used to run serially,
    ``--checkpoint-every 0`` to save after every tell, and ``--stop-after 0``
    to stop after one evaluation."""

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("flag", ["--eval-workers", "--checkpoint-every", "--stop-after"])
    def test_exits_2_naming_the_flag(self, tmp_path, capsys, flag, value):
        from repro.__main__ import main

        checkpoint = tmp_path / "run.ckpt.json"
        argv = [*TestBatchedTune.CELL, "--checkpoint", str(checkpoint), flag, value]
        assert main(["tune", *argv, "--quiet"]) == 2
        assert f"error: {flag} must be at least 1, got {value}" in capsys.readouterr().err
        assert not checkpoint.exists()


class TestServeFlagErrors:
    """``repro serve`` flag errors end in one ``error:`` line: a bad
    ``--tcp`` or ``--max-sessions`` exits 2 naming the flag before anything
    binds, and an address it cannot listen on exits 1 without a
    traceback."""

    @pytest.mark.parametrize("port", ["99999", "-1"])
    def test_a_port_out_of_range_exits_2(self, monkeypatch, capsys, port):
        from repro import __main__, server

        def refuse(*args, **kwargs):
            raise AssertionError("bound a socket")

        monkeypatch.setattr(server, "TuningServer", refuse)
        assert __main__.main(["serve", "--tcp", port]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --tcp must be a port in 0-65535, got {port}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("tcp", [[], ["--tcp", "0"]], ids=["stdin", "tcp"])
    def test_max_sessions_below_1_names_the_flag(self, capsys, tcp):
        from repro.__main__ import main

        assert main(["serve", *tcp, "--max-sessions", "0"]) == 2
        assert capsys.readouterr().err == "error: --max-sessions must be at least 1, got 0\n"

    def test_a_port_in_use_exits_1_in_one_line(self, capsys):
        import socket

        from repro.__main__ import main

        with socket.socket() as held:
            held.bind(("127.0.0.1", 0))
            held.listen()
            port = held.getsockname()[1]
            assert main(["serve", "--tcp", str(port)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot listen on 127.0.0.1:{port}: ")
        assert "Address already in use" in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_an_unknown_host_exits_1_in_one_line(self, monkeypatch, capsys):
        """Binding resolves ``--host``; a name that does not resolve raises
        ``socket.gaierror``, raised here without a lookup."""
        import socket

        from repro import __main__, server

        def unresolvable(registry, host, port):
            raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

        monkeypatch.setattr(server, "TuningServer", unresolvable)
        assert __main__.main(["serve", "--tcp", "7730", "--host", "no-such-host"]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot listen on no-such-host:7730: "
            f"[Errno {socket.EAI_NONAME}] Name or service not known\n"
        )


class TestTuneFlagsThatNeedACheckpoint:
    """``--checkpoint-every`` and ``--stop-after`` mean nothing without
    ``--checkpoint``, so either alone exits 2 naming the flag before any
    evaluation, instead of running to the end and saving nothing."""

    @pytest.mark.parametrize(
        "flag,loss",
        [("--checkpoint-every", "saves nothing"), ("--stop-after", "loses the run")],
    )
    def test_exits_2_naming_the_flag(self, tmp_path, monkeypatch, capsys, flag, loss):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        assert main(["tune", *TestBatchedTune.CELL, flag, "3"]) == 2
        captured = capsys.readouterr()
        assert f"error: {flag} without --checkpoint {loss}" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

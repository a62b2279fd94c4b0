"""Tests for the parallel experiment orchestrator and the ``python -m repro`` CLI."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.orchestrator import (
    Cell,
    cell_cache_path,
    enumerate_cells,
    load_manifest,
    manifest_path,
    run_cells,
)
from repro.experiments.reporting import format_cell_event, format_sweep_summary
from repro.experiments.runner import run_single

REPO_ROOT = Path(__file__).resolve().parents[1]

BENCHMARKS = ("hpvm_bfs", "hpvm_audio")
TUNERS = ("Uniform Sampling", "CoT Sampling")
BUDGET = 6


def _config(tmp_path: Path, **kwargs) -> ExperimentConfig:
    return ExperimentConfig(repetitions=2, cache_dir=tmp_path, **kwargs)


def _grid(config: ExperimentConfig) -> list[Cell]:
    return enumerate_cells(BENCHMARKS, TUNERS, config, budget=BUDGET)


def _history_files(cache_dir: Path) -> list[Path]:
    return sorted(
        p for p in cache_dir.glob("*.json") if p.name != "sweep_manifest.json"
    )


class TestEnumeration:
    def test_grid_cross_product_and_order(self, tmp_path):
        config = _config(tmp_path)
        cells = _grid(config)
        assert len(cells) == len(BENCHMARKS) * len(TUNERS) * config.repetitions
        assert len(set(cells)) == len(cells)
        # benchmark-major, then tuner, then seed — the historical serial order
        assert cells[0] == Cell("hpvm_bfs", "Uniform Sampling", BUDGET, config.base_seed)
        assert cells[1].seed == config.base_seed + 1
        assert cells[2].tuner == "CoT Sampling"
        assert cells[4].benchmark == "hpvm_audio"

    def test_budget_defaults_to_scaled_table3_budget(self, tmp_path):
        from repro.workloads import get_benchmark

        config = _config(tmp_path)
        cells = enumerate_cells(["hpvm_bfs"], ["Uniform Sampling"], config)
        expected = config.scaled_budget(get_benchmark("hpvm_bfs").full_budget)
        assert {cell.budget for cell in cells} == {expected}

    def test_explicit_seeds(self, tmp_path):
        cells = enumerate_cells(
            ["hpvm_bfs"], ["Uniform Sampling"], _config(tmp_path), budget=BUDGET,
            seeds=[7, 11],
        )
        assert [cell.seed for cell in cells] == [7, 11]

    def test_unknown_tuner_raises(self, tmp_path):
        with pytest.raises(KeyError):
            enumerate_cells(["hpvm_bfs"], ["No Such Tuner"], _config(tmp_path), budget=4)


class TestCacheSkipAndResume:
    def test_cached_cells_are_skipped(self, tmp_path):
        config = _config(tmp_path)
        cells = _grid(config)
        # warm one cell through the plain runner, then sweep the grid
        warm = run_single(cells[0].benchmark, cells[0].tuner, cells[0].budget, cells[0].seed, config)
        result = run_cells(cells, config)
        assert result.counts["cached"] == 1
        assert result.counts["done"] == len(cells) - 1
        assert not result.failures
        # the history loaded to decide the hit is the one handed back
        cell_cache_path(config, cells[0]).unlink()
        assert result.history(cells[0]).to_dict() == warm.to_dict()

    def test_resume_after_interrupt_runs_only_missing_cells(self, tmp_path):
        config = _config(tmp_path)
        cells = _grid(config)
        first = run_cells(cells, config)
        assert first.counts["done"] == len(cells)
        # simulate an interrupted sweep: half the cache vanishes
        files = _history_files(tmp_path)
        removed = files[: len(files) // 2]
        for path in removed:
            path.unlink()
        events = []
        second = run_cells(cells, config, on_event=events.append)
        assert second.counts["done"] == len(removed)
        assert second.counts["cached"] == len(cells) - len(removed)
        executed = {e.cell for e in events if e.kind == "done"}
        assert len(executed) == len(removed)
        # the manifest still records every cell as completed
        manifest = load_manifest(config)
        assert len(manifest["cells"]) == len(cells)
        assert {entry["status"] for entry in manifest["cells"].values()} <= {"done", "cached"}

    def test_torn_history_is_not_a_cache_hit(self, tmp_path, capsys):
        """A truncated history used to count as cached in ``sweep`` and
        ``status`` while ``report`` skipped it."""
        from repro.__main__ import main

        config = _config(tmp_path)
        cells = enumerate_cells(["hpvm_bfs"], ["CoT Sampling"], config, budget=BUDGET)
        run_cells(cells, config)
        path = cell_cache_path(config, cells[0])
        written = path.read_bytes()
        path.write_bytes(written[: len(written) // 2])
        grid = ["--benchmarks", "hpvm_bfs", "--tuners", "CoT Sampling", "--repetitions",
                "2", "--budget", str(BUDGET), "--cache-dir", str(tmp_path)]
        capsys.readouterr()
        assert main(["status", *grid]) == 0
        assert "1 cached, 1 missing" in capsys.readouterr().out
        assert main(["sweep", *grid, "--quiet"]) == 0
        assert "1 done, 1 cached" in capsys.readouterr().out
        assert path.read_bytes() == written

    def test_manifest_is_written_and_loadable(self, tmp_path):
        config = _config(tmp_path)
        run_cells(_grid(config), config)
        path = manifest_path(config)
        assert path.exists()
        manifest = json.loads(path.read_text())
        assert manifest["version"] == 1
        entry = next(iter(manifest["cells"].values()))
        assert {"benchmark", "tuner", "budget", "seed", "status", "file"} <= set(entry)

    def test_no_cache_executes_without_writing(self, tmp_path):
        config = _config(tmp_path, use_cache=False)
        cells = enumerate_cells(["hpvm_bfs"], ["Uniform Sampling"], config, budget=BUDGET)
        result = run_cells(cells, config)
        assert result.counts["done"] == len(cells)
        assert not list(tmp_path.iterdir())
        # histories still come back from the in-memory store
        assert len(result.history(cells[0])) == BUDGET


class TestParallelEquivalence:
    def test_two_workers_match_serial_bit_for_bit(self, tmp_path):
        serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
        serial_cfg = _config(serial_dir)
        parallel_cfg = _config(parallel_dir, workers=2)
        cells = _grid(serial_cfg)
        run_cells(cells, serial_cfg)
        result = run_cells(cells, parallel_cfg)
        assert not result.failures
        serial_files = _history_files(serial_dir)
        parallel_files = _history_files(parallel_dir)
        assert [p.name for p in serial_files] == [p.name for p in parallel_files]
        assert len(serial_files) == len(cells)
        for ours, theirs in zip(serial_files, parallel_files):
            assert ours.read_bytes() == theirs.read_bytes(), ours.name

    def test_adhoc_benchmark_falls_back_to_in_process(self, tmp_path, small_space,
                                                      quadratic_objective):
        """Benchmark objects that workers cannot re-resolve by name still run
        (in-process) when workers > 1."""
        from repro.workloads.base import Benchmark

        adhoc = Benchmark(
            name="adhoc_not_in_registry",
            framework="TEST",
            space=small_space,
            evaluator=quadratic_objective,
            full_budget=BUDGET,
        )
        config = _config(tmp_path, workers=2)
        cells = enumerate_cells([adhoc], ["Uniform Sampling"], config, budget=BUDGET)
        result = run_cells(cells, config, benchmarks={adhoc.name: adhoc})
        assert result.counts["done"] == len(cells)
        assert not result.failures
        assert len(result.history(cells[0])) == BUDGET

    def test_parallel_histories_match_serial_values(self, tmp_path):
        serial_cfg = _config(tmp_path / "a")
        parallel_cfg = _config(tmp_path / "b", workers=2)
        cells = _grid(serial_cfg)
        serial = run_cells(cells, serial_cfg)
        parallel = run_cells(cells, parallel_cfg)
        for cell in cells:
            ours = [e.value for e in serial.history(cell)]
            theirs = [e.value for e in parallel.history(cell)]
            assert ours == theirs, cell.key


class TestCellFailures:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_failure_without_retries_is_reported(self, tmp_path, monkeypatch, workers):
        """A failed cell is reported once, in-process and from a pool worker
        (which the fork start method gives the patched ``run_single``)."""
        config = _config(tmp_path, workers=workers)
        cells = enumerate_cells(["hpvm_bfs"], ["Uniform Sampling"], config, budget=BUDGET)

        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("repro.experiments.orchestrator.run_single", broken)
        events = []
        result = run_cells(cells[:1], config, on_event=events.append)
        assert result.outcomes[cells[0]].status == "failed"
        assert "boom" in result.outcomes[cells[0]].error
        assert [e.kind for e in events] == ["start", "failed"]
        manifest = load_manifest(config)
        assert manifest["cells"][cells[0].key]["status"] == "failed"

    def test_raise_on_error_propagates(self, tmp_path, monkeypatch):
        config = _config(tmp_path)
        cells = enumerate_cells(["hpvm_bfs"], ["Uniform Sampling"], config, budget=BUDGET)
        monkeypatch.setattr(
            "repro.experiments.orchestrator.run_single",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        with pytest.raises(RuntimeError, match="boom"):
            run_cells(cells[:1], config, raise_on_error=True)

    def test_a_failed_cell_that_gets_a_history_is_recorded_cached(
        self, tmp_path, monkeypatch, capsys
    ):
        """A cell that failed and then got a valid history used to stay
        ``failed`` in the manifest while ``repro status`` counted it cached."""
        from repro.__main__ import main

        config = _config(tmp_path)
        [cell] = enumerate_cells(["hpvm_bfs"], ["Uniform Sampling"], config, budget=BUDGET)[:1]
        calls = []

        def fails_once(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise RuntimeError("boom")
            return run_single(*args, **kwargs)

        monkeypatch.setattr("repro.experiments.orchestrator.run_single", fails_once)
        assert run_cells([cell], config).outcomes[cell].status == "failed"
        assert load_manifest(config)["cells"][cell.key]["status"] == "failed"
        fails_once(cell.benchmark, cell.tuner, cell.budget, cell.seed, config)
        assert run_cells([cell], config).outcomes[cell].status == "cached"
        assert len(calls) == 2
        entry = load_manifest(config)["cells"][cell.key]
        assert (entry["status"], entry["error"]) == ("cached", "")
        capsys.readouterr()
        assert main(["status", "--benchmarks", "hpvm_bfs", "--tuners", "Uniform Sampling",
                     "--repetitions", "1", "--budget", str(BUDGET),
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "(1 cached, 0 missing)" in out
        assert out.rstrip().endswith("— 1 cached")


class TestRunnerDelegation:
    def test_run_benchmark_parallel_matches_serial(self, tmp_path):
        from repro.experiments.runner import run_benchmark

        serial_cfg = _config(tmp_path / "serial")
        parallel_cfg = _config(tmp_path / "parallel", workers=2)
        serial = run_benchmark("hpvm_bfs", TUNERS, budget=BUDGET, config=serial_cfg)
        parallel = run_benchmark("hpvm_bfs", TUNERS, budget=BUDGET, config=parallel_cfg)
        assert set(serial) == set(parallel) == set(TUNERS)
        for tuner in TUNERS:
            assert len(serial[tuner]) == serial_cfg.repetitions
            for ours, theirs in zip(serial[tuner], parallel[tuner]):
                assert [e.value for e in ours] == [e.value for e in theirs]


class TestReportingFormatters:
    def test_format_cell_event_lines(self, tmp_path):
        config = _config(tmp_path)
        events = []
        run_cells(_grid(config)[:2], config, on_event=events.append)
        lines = [format_cell_event(e) for e in events]
        assert any("start" in line for line in lines)
        assert any("done" in line for line in lines)
        assert all("hpvm_bfs" in line for line in lines)

    def test_format_sweep_summary(self):
        text = format_sweep_summary({"done": 3, "cached": 2, "failed": 1}, 1.5, workers=2)
        assert "6 cells" in text and "3 done" in text and "1 failed" in text


class TestCommandLine:
    def _run(self, *argv: str, cache_dir: Path) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv, "--cache-dir", str(cache_dir)],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
            timeout=600,
        )

    GRID_ARGS = (
        "--benchmarks", "hpvm_bfs", "hpvm_audio",
        "--tuners", "Uniform Sampling", "CoT Sampling",
        "--repetitions", "2", "--budget", str(BUDGET),
    )

    def test_sweep_status_report_roundtrip(self, tmp_path):
        sweep_proc = self._run(
            "sweep", *self.GRID_ARGS, "--workers", "2", cache_dir=tmp_path
        )
        assert sweep_proc.returncode == 0, sweep_proc.stderr
        assert "8 done" in sweep_proc.stdout
        assert len(_history_files(tmp_path)) == 8

        status_proc = self._run("status", *self.GRID_ARGS, cache_dir=tmp_path)
        assert status_proc.returncode == 0, status_proc.stderr
        assert "8 cached, 0 missing" in status_proc.stdout

        report_proc = self._run("report", *self.GRID_ARGS, cache_dir=tmp_path)
        assert report_proc.returncode == 0, report_proc.stderr
        assert "hpvm_bfs" in report_proc.stdout
        assert "(2/2)" in report_proc.stdout

    def test_second_sweep_is_fully_cached(self, tmp_path):
        first = self._run("sweep", *self.GRID_ARGS, "--quiet", cache_dir=tmp_path)
        assert first.returncode == 0, first.stderr
        second = self._run("sweep", *self.GRID_ARGS, "--quiet", cache_dir=tmp_path)
        assert second.returncode == 0, second.stderr
        assert "8 cached" in second.stdout
        assert "0 done" in second.stdout

"""Tests for the benchmark harness: tables, registry, CLI."""

import json
import os

import pytest

from repro.bench.registry import (
    ExperimentConfig,
    all_experiments,
    get_experiment,
    run_experiment,
)
from repro.bench.table import ResultTable
from repro.core import artifactcache
from repro.core.artifactcache import configure_artifact_cache, tiered_cache
from repro.core.plancache import default_cache
from repro.errors import ExperimentError
from repro.gpusim.executor import (
    GpuExecutor,
    get_default_engine,
    set_default_engine,
)


class TestResultTable:
    def test_add_row_and_column(self):
        t = ResultTable("t", ["a", "b"])
        t.add_row(1, 2.5)
        t.add_row(3, 4.5)
        assert t.column("a") == [1, 3]
        assert t.column("b") == [2.5, 4.5]

    def test_row_length_checked(self):
        t = ResultTable("t", ["a"])
        with pytest.raises(ExperimentError):
            t.add_row(1, 2)

    def test_unknown_column(self):
        t = ResultTable("t", ["a"])
        with pytest.raises(ExperimentError):
            t.column("zzz")

    def test_format_contains_everything(self):
        t = ResultTable("my title", ["x", "speedup"])
        t.add_row(32, 2.345)
        t.add_note("shape holds")
        text = t.format()
        assert "my title" in text
        assert "speedup" in text
        assert "2.345" in text
        assert "shape holds" in text

    def test_json_roundtrip(self):
        t = ResultTable("t", ["a"], rows=[[1], [2]], notes=["n"])
        t2 = ResultTable.from_json(t.to_json())
        assert t2.title == t.title
        assert t2.rows == t.rows
        assert t2.notes == t.notes

    def test_csv_export(self, tmp_path):
        t = ResultTable("t", ["a", "b"])
        t.add_row(1, 2)
        t.add_note("hello")
        path = tmp_path / "t.csv"
        t.to_csv(path)
        content = path.read_text()
        assert "# hello" in content
        assert "a,b" in content
        assert "1,2" in content


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {"fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
                    "table1", "table2", "baselines"}
        assert expected <= set(all_experiments())

    def test_get_unknown_raises(self):
        with pytest.raises(ExperimentError, match="unknown experiment"):
            get_experiment("fig99")

    def test_config_validation(self):
        with pytest.raises(ExperimentError):
            ExperimentConfig(scale=0.0)
        with pytest.raises(ExperimentError):
            ExperimentConfig(scale=2.0)
        for seed in (-1, 1.5, "0", None):
            with pytest.raises(ExperimentError, match="seed"):
                ExperimentConfig(seed=seed)

    def test_experiments_have_metadata(self):
        for exp in all_experiments().values():
            assert exp.title
            assert exp.paper_ref
            assert exp.description


class TestSmallExperimentRuns:
    """Tiny-scale smoke runs of the cheapest experiments."""

    def test_baselines_runs(self):
        tables = run_experiment("baselines", ExperimentConfig(scale=0.005))
        (table,) = tables
        assert set(table.column("app")) == {"SSSP", "BC", "PageRank", "SpMV"}
        assert all(v > 0 for v in table.column("measured"))

    def test_fig2_runs(self):
        tables = run_experiment("fig2", ExperimentConfig(scale=0.005))
        (table,) = tables
        assert len(table.rows) == 4


class TestFig4Sweep:
    """fig4 runs as one fused ``run_many`` pass; its table cells must not
    depend on the engine or on which cache level served the runs."""

    CONFIG = ExperimentConfig(scale=0.01)

    @pytest.fixture
    def no_disk_cache(self):
        """No disk level until the test configures one; the global and
        ``REPRO_CACHE_DIR`` are restored afterwards."""
        saved = artifactcache._cache
        saved_env = os.environ.get(artifactcache.ENV_VAR)
        configure_artifact_cache(None)
        yield
        artifactcache._cache = saved
        if saved_env is not None:
            os.environ[artifactcache.ENV_VAR] = saved_env
        default_cache().clear()

    def cells(self):
        return [table.rows for table in run_experiment("fig4", self.CONFIG)]

    def test_cells_equal_across_engines_and_cache_levels(
            self, tmp_path, no_disk_cache, monkeypatch):
        default = self.cells()

        default_cache().clear(reset_stats=True)
        engine = get_default_engine()
        set_default_engine("exact")
        try:
            exact = self.cells()
        finally:
            set_default_engine(engine)

        disk = configure_artifact_cache(tmp_path)
        self.cells()                        # cold: fills the disk level
        default_cache().clear()             # cold restart: drops runs too
        memory_hits = tiered_cache().stats["run", "memory"].hits
        executed = []
        execute = GpuExecutor._execute

        def spy(executor, graphs):
            executed.extend(graphs)
            return execute(executor, graphs)

        monkeypatch.setattr(GpuExecutor, "_execute", spy)
        warm = self.cells()
        assert executed == []
        # baseline + 48 cells: dbuf-shared's 12 cells share 3 plans, so
        # 40 distinct runs come from disk and the 9 repeats from memory
        assert disk.stats["run"]["hits"] == 40
        assert tiered_cache().stats["run", "memory"].hits - memory_hits == 9
        assert default == exact == warm


class TestCLI:
    def test_list(self, capsys):
        from repro.bench.runner import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out
        assert "table2" in out

    def test_run_writes_output(self, tmp_path, capsys):
        from repro.bench.runner import main

        code = main(["baselines", "--scale", "0.005",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "baselines.csv").exists()
        data = json.loads((tmp_path / "baselines.json").read_text())
        assert data["title"].startswith("baselines")

    def test_unknown_device(self):
        from repro.bench.runner import main
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            main(["baselines", "--device", "h100"])

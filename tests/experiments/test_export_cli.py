"""Tests for CSV export and the CLI driver."""

import csv

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.export import (export_figure, write_records_csv,
                                      write_series_csv)
from repro.sim.results import RunRecord, SweepResult


@pytest.fixture()
def sweep():
    result = SweepResult("num_requests")
    for x in (10, 20):
        for seed in (0, 1):
            result.add(RunRecord("Appro", x, seed,
                                 {"total_reward": float(x * (seed + 1)),
                                  "avg_latency_ms": 50.0}))
            result.add(RunRecord("Greedy", x, seed,
                                 {"total_reward": float(x),
                                  "avg_latency_ms": 40.0}))
    return result


class TestRecordsCsv:
    def test_round_trip(self, sweep, tmp_path):
        path = write_records_csv(sweep, tmp_path / "records.csv")
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["algorithm", "num_requests", "seed",
                           "total_reward", "avg_latency_ms"]
        assert len(rows) == 1 + len(sweep.records)

    def test_empty_sweep_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            write_records_csv(SweepResult("x"), tmp_path / "x.csv")


class TestSeriesCsv:
    def test_wide_table(self, sweep, tmp_path):
        path = write_series_csv(sweep, "total_reward",
                                tmp_path / "series.csv")
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["algorithm", "10", "20"]
        appro_row = next(r for r in rows if r[0] == "Appro")
        # Mean over seeds 0 and 1: x * 1.5.
        assert float(appro_row[1]) == pytest.approx(15.0)
        assert float(appro_row[2]) == pytest.approx(30.0)


class TestExportFigure:
    def test_writes_all_files(self, sweep, tmp_path):
        paths = export_figure(sweep, tmp_path / "out", "fig3",
                              metrics=("total_reward",
                                       "avg_latency_ms", "missing"))
        names = sorted(p.name for p in paths)
        assert names == ["fig3_avg_latency_ms.csv", "fig3_records.csv",
                         "fig3_total_reward.csv"]
        for path in paths:
            assert path.exists()


class TestCli:
    def test_parser_defaults(self):
        from repro.experiments.__main__ import build_parser

        args = build_parser().parse_args([])
        assert args.figures == ["all"]
        assert args.scale == "bench"
        assert args.out is None

    def test_parser_rejects_unknown_figure(self):
        from repro.experiments.__main__ import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["--figures", "9"])

    def test_main_runs_one_small_figure(self, tmp_path, capsys,
                                        monkeypatch):
        """Smoke-run the CLI on figure 3 with a stubbed tiny driver."""
        import repro.experiments.__main__ as cli
        from repro.experiments import figures

        def tiny_driver(scale, workers=1, trace=False):
            sweep = SweepResult("num_requests")
            sweep.add(RunRecord("Appro", 10, 0,
                                {"total_reward": 1.0,
                                 "avg_latency_ms": 2.0,
                                 "runtime_s": 0.1}))
            return sweep

        monkeypatch.setitem(figures.FIGURES, "3",
                            (tiny_driver, ("total_reward",)))
        code = cli.main(["--figures", "3", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert (tmp_path / "fig3_records.csv").exists()

    def test_workers_flag_reaches_driver(self, monkeypatch, capsys):
        import repro.experiments.__main__ as cli
        from repro.experiments import figures

        seen = {}

        def tiny_driver(scale, workers=1, trace=False):
            seen["workers"] = workers
            sweep = SweepResult("num_requests")
            sweep.add(RunRecord("Appro", 10, 0, {"total_reward": 1.0}))
            return sweep

        monkeypatch.setitem(figures.FIGURES, "3",
                            (tiny_driver, ("total_reward",)))
        assert cli.main(["--figures", "3", "--workers", "2"]) == 0
        assert seen["workers"] == 2
        assert cli.main(["--figures", "3"]) == 0
        assert seen["workers"] == 1


class TestCliPlot:
    def test_plot_flag_renders_ascii(self, monkeypatch, capsys):
        import repro.experiments.__main__ as cli
        from repro.experiments import figures
        from repro.sim.results import RunRecord, SweepResult

        def tiny_driver(scale, workers=1, trace=False):
            sweep = SweepResult("num_requests")
            for x in (10, 20):
                sweep.add(RunRecord("Appro", x, 0,
                                    {"total_reward": float(x)}))
            return sweep

        monkeypatch.setitem(figures.FIGURES, "3",
                            (tiny_driver, ("total_reward",)))
        code = cli.main(["--figures", "3", "--plot"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 3: total_reward" in out
        assert "A=Appro" in out

"""Tests for the Markdown report generator."""


import pytest

from repro.experiments import figures
from repro.experiments.figures import run_figures
from repro.experiments.report import (build_report,
                                      invariant_audit_markdown, main,
                                      render_figure_markdown,
                                      _markdown_table)
from repro.sim.results import RunRecord, SweepResult
from repro.telemetry import Tracer


def make_sweep(journal=None):
    sweep = SweepResult("num_requests")
    for x in (10, 20):
        sweep.add(RunRecord("Appro", x, 0, {"total_reward": 2.0 * x,
                                            "avg_latency_ms": 60.0},
                            journal=journal))
        sweep.add(RunRecord("Greedy", x, 0, {"total_reward": 1.0 * x,
                                             "avg_latency_ms": 40.0},
                            journal=journal))
    return sweep


def journal_for(x):
    """A clean single-request journal matching make_sweep's metrics."""
    return (
        {"kind": "station_up", "slot": 0, "station": 0, "value": 500.0},
        {"kind": "arrival", "slot": 0, "request": 1},
        {"kind": "start", "slot": 0, "request": 1, "station": 0,
         "reward": float(x)},
        {"kind": "complete", "slot": 1, "request": 1, "station": 0,
         "reward": float(x)},
    )


def make_journaled_sweep(tamper=False):
    sweep = SweepResult("num_requests")
    for x in (10, 20):
        journal = journal_for(2.0 * x)
        if tamper:  # double COMPLETE: the double_terminal mutation
            journal = journal + (journal[-1],)
        sweep.add(RunRecord(
            "Appro", x, 0,
            {"total_reward": 2.0 * x, "num_admitted": 1},
            journal=journal))
    return sweep


@pytest.fixture()
def stub_figure(monkeypatch):
    """Make the figure table one stubbed figure 3 and return its calls."""
    calls = []

    def use(driver):
        def recorded(scale, **kwargs):
            calls.append(kwargs)
            return driver(scale, **kwargs)

        monkeypatch.setattr(figures, "FIGURES",
                            {"3": (recorded, ("total_reward",))})
        return calls

    return use


def tiny_driver(scale, workers=1, trace=False):
    return make_sweep()


def journaled_driver(scale, workers=1, trace=False, journal=False):
    return make_journaled_sweep() if journal else make_sweep()


def traced_driver(scale, workers=1, trace=False):
    """One record whose trace nests lp_solve under two parents and
    counts one counter under two label sets."""
    tracer = Tracer()
    with tracer.span("offline_run"):
        with tracer.span("lp_solve"):
            pass
    with tracer.span("slot_admission"):
        with tracer.span("lp_solve"):
            pass
    counters = [{"kind": "counter", "name": "station_transitions_total",
                 "labels": {"direction": direction}, "value": value}
                for direction, value in (("down", 3.0), ("up", 15.0))]
    sweep = SweepResult("num_requests")
    sweep.add(RunRecord("Appro", 10, 0, {"total_reward": 1.0},
                        trace=(tuple(tracer.events() + counters)
                               if trace else None)))
    return sweep


class TestMarkdownRendering:
    def test_table_shape(self):
        text = _markdown_table(make_sweep(), "total_reward")
        lines = text.split("\n")
        assert lines[0] == "| algorithm | 10 | 20 |"
        assert lines[1].startswith("|---")
        assert "| Appro | 20.0 | 40.0 |" in lines

    def test_figure_section(self):
        text = render_figure_markdown(make_sweep(), "9",
                                      ("total_reward",
                                       "avg_latency_ms"))
        assert text.startswith("## Figure 9")
        assert "### (a) total_reward" in text
        assert "### (b) avg_latency_ms" in text


class TestBuildReport:
    def test_stubbed_full_report(self, stub_figure):
        stub_figure(tiny_driver)
        text = build_report(run_figures(), include_theorems=False,
                            title="Stub report")
        assert text.startswith("# Stub report")
        assert "## Figure 3" in text
        assert "| Appro |" in text
        assert "## Wall-clock" in text
        assert "workers=1" in text

    def test_workers_threaded_and_speedup_measured(self, stub_figure):
        calls = stub_figure(tiny_driver)
        text = build_report(run_figures(workers=2),
                            include_theorems=False,
                            measure_speedup=True)
        # One parallel pass plus one serial baseline pass.
        assert [call["workers"] for call in calls] == [2, 1]
        assert "workers=2" in text
        assert "x |" in text  # a speedup column entry

    def test_no_speedup_pass_by_default(self, stub_figure):
        calls = stub_figure(tiny_driver)
        build_report(run_figures(workers=3), include_theorems=False)
        assert [call["workers"] for call in calls] == [3]

    def test_cli_writes_file(self, tmp_path, stub_figure, capsys):
        calls = stub_figure(tiny_driver)
        out = tmp_path / "report.md"
        code = main(["--out", str(out), "--no-theorems"])
        assert code == 0
        assert calls == [{"workers": 1}]
        assert out.exists()
        assert "## Figure 3" in out.read_text()

    def test_cli_stdout(self, stub_figure, capsys):
        calls = stub_figure(tiny_driver)
        code = main(["--no-theorems"])
        assert code == 0
        assert calls == [{"workers": 1}]
        assert "## Figure 3" in capsys.readouterr().out

    def test_cli_audit_violation_exits_1(self, stub_figure, capsys):
        stub_figure(lambda scale, **kwargs: make_journaled_sweep(
            tamper=True))
        code = main(["--no-theorems", "--audit"])
        out = capsys.readouterr().out
        assert "2 VIOLATION(S)" in out
        assert code == 1

    def test_cli_clean_audit_exits_0(self, stub_figure, capsys):
        stub_figure(journaled_driver)
        assert main(["--no-theorems", "--audit"]) == 0
        assert "all invariants held" in capsys.readouterr().out


class TestTraceBreakdown:
    """The --trace-summary table and the report's Telemetry section
    keep span paths and counter label sets apart."""

    SERIES = ('station_transitions_total{direction="down"} = 3',
              'station_transitions_total{direction="up"} = 15')
    PATHS = ("offline_run/lp_solve", "slot_admission/lp_solve")

    def test_trace_summary_lists_paths_and_series(self, stub_figure,
                                                  capsys):
        import repro.experiments.__main__ as cli

        stub_figure(traced_driver)
        assert cli.main(["--figures", "3", "--trace-summary"]) == 0
        out = capsys.readouterr().out
        summary = out[out.index("Telemetry summary"):]
        for text in self.SERIES + self.PATHS:
            assert text in summary
        assert "station_transitions_total = 18" not in summary

    def test_report_telemetry_lists_paths_and_series(self, stub_figure):
        stub_figure(traced_driver)
        text = build_report(run_figures(trace=True),
                            include_theorems=False)
        section = text[text.index("## Telemetry"):]
        for item in self.SERIES + self.PATHS:
            assert item in section
        assert "station_transitions_total = 18" not in section


class TestInvariantAuditSection:
    def test_no_journals_no_section(self):
        assert invariant_audit_markdown({"fig3": make_sweep()}) is None

    def test_clean_audit_renders_ok(self):
        text = invariant_audit_markdown(
            {"fig3": make_journaled_sweep()})
        assert text.startswith("## Invariant audit")
        assert "all invariants held" in text
        assert "| lifecycle |" in text
        assert "not exercised" in text  # e.g. arm invariants

    def test_violations_listed(self):
        text = invariant_audit_markdown(
            {"fig3": make_journaled_sweep(tamper=True)})
        assert "VIOLATION" in text
        assert "double_terminal" in text
        assert "Appro x=10 seed=0" in text

    def test_build_report_appends_audit_section(self, stub_figure):
        stub_figure(journaled_driver)
        text = build_report(run_figures(journal=True),
                            include_theorems=False)
        assert "## Invariant audit" in text

    def test_run_carries_merged_journal_events(self, stub_figure):
        stub_figure(journaled_driver)
        run = run_figures(journal=True)
        assert run.journal
        assert all(e["figure"] == "3" and "run" in e
                   for e in run.journal)

"""Exit-code matrix and report formats for ``python -m repro.analysis``."""

import json
import subprocess
import sys
from pathlib import Path

from repro.analysis.cli import (EXIT_ERROR, EXIT_FINDINGS, EXIT_OK,
                                main)
from repro.analysis.framework import run_analysis

REPO_ROOT = Path(__file__).resolve().parents[2]

CLEAN = (
    "def advance(clock):\n"
    "    return clock.now_ms() + 50\n")

VIOLATING = (
    "import time\n"
    "def stamp():\n"
    "    return time.time()\n")

CLEAN_HELPER = ("def helper(slot):\n"
                "    return slot\n")

TAINTED_HELPER = ("import time\n"
                  "def helper(slot):\n"
                  "    return time.time()\n")

CALLER = ("from repro.helper import helper\n"
          "class Event:\n"
          "    pass\n"
          "def emit(slot):\n"
          "    return Event(at=helper(slot))\n")


def write_module(tmp_path, source, relpath="repro/x/mod.py"):
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    return target


class TestExitCodes:
    def test_clean_tree_exits_0(self, tmp_path):
        write_module(tmp_path, CLEAN)
        assert main([str(tmp_path), "--no-baseline"]) == EXIT_OK

    def test_seeded_violation_exits_1(self, tmp_path):
        write_module(tmp_path, VIOLATING)
        assert main([str(tmp_path),
                     "--no-baseline"]) == EXIT_FINDINGS

    def test_missing_path_exits_2(self, tmp_path):
        assert main([str(tmp_path / "nowhere")]) == EXIT_ERROR

    def test_unparsable_file_exits_2(self, tmp_path):
        write_module(tmp_path, "def broken(:\n")
        assert main([str(tmp_path)]) == EXIT_ERROR

    def test_unknown_rule_exits_2(self, tmp_path):
        write_module(tmp_path, CLEAN)
        assert main([str(tmp_path), "--select",
                     "ZZZ999"]) == EXIT_ERROR

    def test_malformed_baseline_exits_2(self, tmp_path):
        write_module(tmp_path, VIOLATING)
        bad = tmp_path / "base.json"
        bad.write_text("{}", encoding="utf-8")
        assert main([str(tmp_path), "--baseline",
                     str(bad)]) == EXIT_ERROR


class TestBaselineWorkflow:
    def test_write_baseline_then_rerun_exits_0(self, tmp_path,
                                               capsys):
        write_module(tmp_path, VIOLATING)
        baseline = tmp_path / "base.json"
        assert main([str(tmp_path), "--baseline", str(baseline),
                     "--write-baseline"]) == EXIT_OK
        assert baseline.exists()
        assert main([str(tmp_path), "--baseline",
                     str(baseline)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "1 baselined" in out

    def test_no_baseline_flag_overrides(self, tmp_path):
        write_module(tmp_path, VIOLATING)
        baseline = tmp_path / "base.json"
        main([str(tmp_path), "--baseline", str(baseline),
              "--write-baseline"])
        assert main([str(tmp_path), "--baseline", str(baseline),
                     "--no-baseline"]) == EXIT_FINDINGS

    def test_new_violation_escapes_baseline(self, tmp_path):
        write_module(tmp_path, VIOLATING)
        baseline = tmp_path / "base.json"
        main([str(tmp_path), "--baseline", str(baseline),
              "--write-baseline"])
        write_module(
            tmp_path,
            VIOLATING + "def extra():\n    return time.time_ns()\n")
        assert main([str(tmp_path), "--baseline",
                     str(baseline)]) == EXIT_FINDINGS


class TestReportFormats:
    def test_text_report_names_rule_and_hint(self, tmp_path, capsys):
        write_module(tmp_path, VIOLATING)
        main([str(tmp_path), "--no-baseline"])
        out = capsys.readouterr().out
        assert "DET001" in out
        assert "hint:" in out
        assert "new finding(s)" in out

    def test_json_format_parses(self, tmp_path, capsys):
        write_module(tmp_path, VIOLATING)
        main([str(tmp_path), "--no-baseline", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.analysis-report/1"
        assert payload["findings"][0]["rule"] == "DET001"

    def test_output_artifact_written(self, tmp_path, capsys):
        write_module(tmp_path, VIOLATING)
        artifact = tmp_path / "report.json"
        main([str(tmp_path), "--no-baseline", "--output",
              str(artifact)])
        capsys.readouterr()
        payload = json.loads(artifact.read_text(encoding="utf-8"))
        assert payload["findings"][0]["rule"] == "DET001"

    def test_list_rules_catalogues_all_rules(self, capsys):
        assert main(["--list-rules"]) == EXIT_OK
        out = capsys.readouterr().out
        for rule_id in ("DET001", "DET002", "DET003", "NUM001",
                        "UNIT001", "PKL001", "DET010", "CONC001",
                        "CONC002", "PKL010", "UNIT010"):
            assert rule_id in out


class TestWholeProgramFlags:
    def test_stats_line_on_stderr(self, tmp_path, capsys):
        write_module(tmp_path, CLEAN)
        main([str(tmp_path), "--no-baseline", "--stats"])
        err = capsys.readouterr().err
        assert "stats:" in err
        assert "file(s) scanned" in err
        assert "call graph" in err
        assert "wall" in err

    def test_dot_artifact_written(self, tmp_path, capsys):
        write_module(tmp_path, CLEAN)
        dot = tmp_path / "callgraph.dot"
        main([str(tmp_path), "--no-baseline", "--dot", str(dot)])
        capsys.readouterr()
        assert dot.read_text(
            encoding="utf-8").startswith("digraph callgraph {")

    def test_dot_without_dataflow_rules_exits_2(self, tmp_path,
                                                capsys):
        write_module(tmp_path, CLEAN)
        code = main([str(tmp_path), "--no-baseline",
                     "--select", "DET001", "--dot",
                     str(tmp_path / "g.dot")])
        capsys.readouterr()
        assert code == EXIT_ERROR

    def test_write_baseline_reports_pruned_count(self, tmp_path,
                                                 capsys):
        write_module(tmp_path, VIOLATING)
        baseline = tmp_path / "base.json"
        main([str(tmp_path), "--baseline", str(baseline),
              "--write-baseline"])
        assert "(0 stale entries pruned)" in \
            capsys.readouterr().out
        write_module(tmp_path, CLEAN)
        main([str(tmp_path), "--baseline", str(baseline),
              "--write-baseline"])
        assert "(1 stale entry pruned)" in capsys.readouterr().out


def write_tree(tmp_path, helper_source):
    write_module(tmp_path, helper_source, "repro/helper.py")
    write_module(tmp_path, CALLER, "repro/caller.py")


class TestRescan:
    def test_edited_callee_refreshes_caller_findings(self, tmp_path):
        # caller.py never changes, but editing helper.py to return
        # wall-clock must surface a DET010 finding *in caller.py*.
        write_tree(tmp_path, CLEAN_HELPER)
        assert run_analysis([tmp_path], select=["DET010"]).findings == []
        write_tree(tmp_path, TAINTED_HELPER)
        report = run_analysis([tmp_path], select=["DET010"])
        assert len(report.findings) == 1
        assert report.findings[0].path == "repro/caller.py"
        # ...and fixing it clears the finding again.
        write_tree(tmp_path, CLEAN_HELPER)
        assert run_analysis([tmp_path], select=["DET010"]).findings == []


class TestJsonStability:
    def test_json_report_is_byte_stable_across_runs(self, tmp_path,
                                                    capsys):
        # two findings on one line exercise the extended sort key
        write_tree(tmp_path, TAINTED_HELPER)
        args = [str(tmp_path), "--no-baseline", "--format", "json"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["findings"]


class TestShippedTree:
    def test_module_invocation_on_src_exits_0(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "src"],
            cwd=REPO_ROOT, capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
        assert result.returncode == EXIT_OK, result.stdout + \
            result.stderr

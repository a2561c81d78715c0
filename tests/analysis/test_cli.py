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
        assert main([str(tmp_path)]) == EXIT_OK

    def test_seeded_violation_exits_1(self, tmp_path):
        write_module(tmp_path, VIOLATING)
        assert main([str(tmp_path)]) == EXIT_FINDINGS

    def test_missing_path_exits_2(self, tmp_path):
        assert main([str(tmp_path / "nowhere")]) == EXIT_ERROR

    def test_unparsable_file_exits_2(self, tmp_path):
        write_module(tmp_path, "def broken(:\n")
        assert main([str(tmp_path)]) == EXIT_ERROR

    def test_unknown_rule_exits_2(self, tmp_path):
        write_module(tmp_path, CLEAN)
        assert main([str(tmp_path), "--select",
                     "ZZZ999"]) == EXIT_ERROR

    def test_unknown_noqa_id_exits_2(self, tmp_path, capsys):
        # a pragma left on a retired id must not pass quietly
        write_module(tmp_path, VIOLATING.replace(
            "time.time()", "time.time()  # repro: noqa DET001"))
        assert main([str(tmp_path)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "repro/x/mod.py:3" in err
        assert "DET001" in err


class TestReportFormats:
    def test_text_report_names_rule_and_hint(self, tmp_path, capsys):
        write_module(tmp_path, VIOLATING)
        main([str(tmp_path)])
        out = capsys.readouterr().out
        assert "DET010" in out
        assert "hint:" in out
        assert "1 finding(s)" in out

    def test_json_format_parses(self, tmp_path, capsys):
        write_module(tmp_path, VIOLATING)
        main([str(tmp_path), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.analysis-report/2"
        assert payload["findings"][0]["rule"] == "DET010"

    def test_output_artifact_written(self, tmp_path, capsys):
        write_module(tmp_path, VIOLATING)
        artifact = tmp_path / "report.json"
        main([str(tmp_path), "--output",
              str(artifact)])
        capsys.readouterr()
        payload = json.loads(artifact.read_text(encoding="utf-8"))
        assert payload["findings"][0]["rule"] == "DET010"

    def test_list_rules_catalogues_all_rules(self, capsys):
        assert main(["--list-rules"]) == EXIT_OK
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()
                  if line and not line.startswith(" ")]
        assert listed == ["DET002", "DET003", "NUM001", "DET010",
                          "CONC001", "CONC002", "PKL010", "UNIT010"]


class TestWholeProgramFlags:
    def test_stats_line_on_stderr(self, tmp_path, capsys):
        write_module(tmp_path, CLEAN)
        main([str(tmp_path), "--stats"])
        err = capsys.readouterr().err
        assert "stats:" in err
        assert "file(s) scanned" in err
        assert "call graph" in err
        assert "wall" in err

    def test_dot_artifact_written(self, tmp_path, capsys):
        write_module(tmp_path, CLEAN)
        dot = tmp_path / "callgraph.dot"
        main([str(tmp_path), "--dot", str(dot)])
        capsys.readouterr()
        assert dot.read_text(
            encoding="utf-8").startswith("digraph callgraph {")

    def test_dot_without_dataflow_rules_exits_2(self, tmp_path,
                                                capsys):
        write_module(tmp_path, CLEAN)
        code = main([str(tmp_path), "--select", "DET002", "--dot",
                     str(tmp_path / "g.dot")])
        capsys.readouterr()
        assert code == EXIT_ERROR


def write_tree(tmp_path, helper_source):
    write_module(tmp_path, helper_source, "repro/helper.py")
    write_module(tmp_path, CALLER, "repro/caller.py")


class TestRescan:
    def test_edited_callee_refreshes_caller_findings(self, tmp_path):
        # caller.py never changes, but editing helper.py to return
        # wall-clock must surface a DET010 flow finding *in caller.py*
        # next to the site finding at the clock call in helper.py.
        write_tree(tmp_path, CLEAN_HELPER)
        assert run_analysis([tmp_path], select=["DET010"]).findings == []
        write_tree(tmp_path, TAINTED_HELPER)
        report = run_analysis([tmp_path], select=["DET010"])
        assert [(f.path, f.line) for f in report.findings] == [
            ("repro/caller.py", 5), ("repro/helper.py", 3)]
        # ...and fixing it clears the finding again.
        write_tree(tmp_path, CLEAN_HELPER)
        assert run_analysis([tmp_path], select=["DET010"]).findings == []


class TestJsonStability:
    def test_json_report_is_byte_stable_across_runs(self, tmp_path,
                                                    capsys):
        # two findings on one line exercise the extended sort key
        write_tree(tmp_path, TAINTED_HELPER)
        args = [str(tmp_path), "--format", "json"]
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

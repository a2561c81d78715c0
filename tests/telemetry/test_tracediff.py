"""The trace-diff divergence localizer and its CLI."""

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.telemetry.diffcore import EXIT_ERROR, EXIT_OK
from repro.telemetry.diffcore import EXIT_REGRESSED as EXIT_DIVERGED
from repro.telemetry.export import read_jsonl
from repro.telemetry.tracediff import (diff_journals, first_divergence,
                                       main, render_divergence)


def stream(n, start=0):
    return [{"kind": "arrival", "slot": i, "request": i}
            for i in range(start, start + n)]


def write_jsonl(path, events):
    path.write_text("".join(json.dumps(e) + "\n" for e in events),
                    encoding="utf-8")
    return str(path)


class TestFirstDivergence:
    def test_identical(self):
        assert first_divergence(stream(5), stream(5)) is None

    def test_both_empty(self):
        assert first_divergence([], []) is None

    def test_differing_event(self):
        a, b = stream(5), stream(5)
        b[3]["slot"] = 99
        assert first_divergence(a, b) == 3

    def test_prefix_diverges_at_shorter_length(self):
        assert first_divergence(stream(3), stream(5)) == 3
        assert first_divergence(stream(5), stream(3)) == 3

    def test_key_order_is_irrelevant(self):
        a = [{"kind": "drop", "slot": 1}]
        b = [{"slot": 1, "kind": "drop"}]
        assert first_divergence(a, b) is None


class TestDiffJournals:
    def test_identical_exit_ok(self):
        code, report = diff_journals(stream(4), stream(4))
        assert code == EXIT_OK
        assert "identical" in report
        assert "4 events" in report

    def test_divergent_exit_and_localization(self):
        a, b = stream(10), stream(10)
        b[6]["request"] = 42
        code, report = diff_journals(a, b, names=("serial", "par"))
        assert code == EXIT_DIVERGED
        assert "diverge at event 6" in report
        assert "serial" in report and "par" in report
        # The divergent pair, marked per side.
        assert "< [6]" in report and "> [6]" in report
        # The per-field diff names the disagreeing key and values.
        assert "request: 6 != 42" in report

    def test_context_window(self):
        a, b = stream(10), stream(10)
        b[6]["request"] = 42
        report = render_divergence(a, b, 6, context=2)
        assert "= [4]" in report and "= [5]" in report
        assert "= [3]" not in report
        assert "omitted" in report
        assert "= [7]" in report and "= [8]" in report
        assert "[9]" not in report

    def test_prefix_renders_end_of_journal(self):
        code, report = diff_journals(stream(5), stream(3))
        assert code == EXIT_DIVERGED
        assert "<end of journal>" in report

    def test_later_mismatches_marked(self):
        a, b = stream(6), stream(6)
        b[2]["request"] = 42
        b[4]["request"] = 43
        report = render_divergence(a, b, 2, context=3)
        assert "~ [4]" in report


class TestLoadJournal:
    """Journals load through the shared JSONL reader."""

    def test_round_trip(self, tmp_path):
        events = stream(3)
        path = write_jsonl(tmp_path / "a.jsonl", events)
        assert read_jsonl(path) == events

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text('{"kind": "drop", "slot": 0}\n\n',
                        encoding="utf-8")
        assert len(read_jsonl(str(path))) == 1

    def test_malformed_json_names_the_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "drop"}\nnot json\n',
                        encoding="utf-8")
        with pytest.raises(ConfigurationError, match="bad.jsonl:2"):
            read_jsonl(str(path))

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2, 3]\n", encoding="utf-8")
        with pytest.raises(ConfigurationError,
                           match="expected a JSON object"):
            read_jsonl(str(path))


class TestCli:
    def test_identical_exits_zero(self, tmp_path, capsys):
        a = write_jsonl(tmp_path / "a.jsonl", stream(4))
        b = write_jsonl(tmp_path / "b.jsonl", stream(4))
        assert main([a, b]) == EXIT_OK
        assert "identical" in capsys.readouterr().out

    def test_divergence_exits_one_and_prints_event(self, tmp_path,
                                                   capsys):
        events = stream(8)
        a = write_jsonl(tmp_path / "a.jsonl", events)
        events[5]["slot"] = 99
        b = write_jsonl(tmp_path / "b.jsonl", events)
        assert main([a, b]) == EXIT_DIVERGED
        out = capsys.readouterr().out
        assert "diverge at event 5" in out
        assert '"slot": 99' in out

    def test_missing_file_exits_two(self, tmp_path, capsys):
        a = write_jsonl(tmp_path / "a.jsonl", stream(2))
        assert main([a, str(tmp_path / "nope.jsonl")]) == EXIT_ERROR
        assert "error" in capsys.readouterr().err

    def test_malformed_file_exits_two(self, tmp_path, capsys):
        a = write_jsonl(tmp_path / "a.jsonl", stream(2))
        bad = tmp_path / "b.jsonl"
        bad.write_text("nope\n", encoding="utf-8")
        assert main([a, str(bad)]) == EXIT_ERROR

    def test_two_empty_journals_exit_two(self, tmp_path, capsys):
        # Nothing compared is not "identical": a CI identity gate must
        # not pass when neither run wrote a journal.
        a = write_jsonl(tmp_path / "a.jsonl", [])
        b = write_jsonl(tmp_path / "b.jsonl", [])
        assert main([a, b]) == EXIT_ERROR
        assert "identical" not in capsys.readouterr().out

    def test_one_empty_journal_diverges(self, tmp_path):
        a = write_jsonl(tmp_path / "a.jsonl", [])
        b = write_jsonl(tmp_path / "b.jsonl", stream(2))
        assert main([a, b]) == EXIT_DIVERGED

    def test_negative_context_exits_two(self, tmp_path):
        a = write_jsonl(tmp_path / "a.jsonl", stream(2))
        assert main([a, a, "--context", "-1"]) == EXIT_ERROR

    def test_dispatch_through_experiments_main(self, tmp_path,
                                               capsys):
        from repro.experiments.__main__ import main as exp_main

        a = write_jsonl(tmp_path / "a.jsonl", stream(3))
        b = write_jsonl(tmp_path / "b.jsonl", stream(3))
        assert exp_main(["trace-diff", a, b]) == EXIT_OK

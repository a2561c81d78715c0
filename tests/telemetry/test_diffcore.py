"""The diff core shared by bench-diff, perf-diff and trace-diff."""

import pytest

from repro.exceptions import ConfigurationError
from repro.telemetry.diffcore import (EXIT_ERROR, EXIT_OK,
                                      EXIT_REGRESSED, INF_REL, Row,
                                      compare, mark_regressions,
                                      rel_delta, run_cli, verdict)


class TestRelDelta:
    def test_one_rule_for_present_and_absent_keys(self):
        assert rel_delta(100.0, 110.0) == pytest.approx(0.1)
        assert rel_delta(0.0, 1.0) == pytest.approx(1e12)
        assert rel_delta(None, 3.0) == INF_REL
        assert rel_delta(None, 0.0) == 0.0
        assert rel_delta(4.0, None) == pytest.approx(-1.0)

    def test_compare_marks_absent_sides_none(self):
        rows = compare("g", "counter", {"a": 1.0, "b": 2.0},
                       {"b": 2.0, "c": 3.0})
        assert [(r.key, r.old, r.new) for r in rows] \
            == [("a", 1.0, None), ("b", 2.0, 2.0), ("c", None, 3.0)]
        assert rows[0].delta == pytest.approx(-1.0)


class TestMarkRegressions:
    def rows(self):
        return [Row("g", "metric", "reward", 100.0, 90.0),
                Row("g", "wall", "a.runtime_s", 1.0, 3.0, advisory=True),
                Row("g", "wall", "tiny_s", 0.001, 0.004, advisory=True)]

    def test_every_flag_is_recomputed(self):
        rows = self.rows()
        mark_regressions(rows, tol=0.05, slow_tol=0.5)
        assert [r.regressed for r in rows] == [True, True, True]
        mark_regressions(rows, tol=0.2, slow_tol=0.5, floor=0.005,
                         patterns=["a.*"])
        assert [r.regressed for r in rows] == [False, True, False]
        mark_regressions(rows, tol=0.2)
        assert not any(r.regressed for r in rows)

    @pytest.mark.parametrize("pattern", ["a.runtme_s", "reward"])
    def test_pattern_matching_no_advisory_key_raises(self, pattern):
        with pytest.raises(ConfigurationError, match=repr(pattern)):
            mark_regressions(self.rows(), tol=1.0, slow_tol=0.5,
                             patterns=["a.*", pattern])


class TestShell:
    def test_nothing_compared_exits_two(self):
        assert verdict(0, False) == EXIT_ERROR
        assert verdict(3, False) == EXIT_OK
        assert verdict(3, True) == EXIT_REGRESSED

    @pytest.mark.parametrize("error", [
        OSError("no such file"), ValueError("bad"),
        ConfigurationError("tol must be >= 0")])
    def test_unusable_input_exits_two_on_stderr(self, capsys, error):
        def diff():
            raise error

        assert run_cli("x-diff", diff) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"x-diff: error: {error}\n"

"""Tests for perf-diff: regression localization and CLI exit codes."""

import copy
import json

import pytest

from repro.exceptions import ConfigurationError
from repro.telemetry.diffcore import EXIT_ERROR, EXIT_OK, EXIT_REGRESSED
from repro.telemetry.diffcore import Row as PerfDelta
from repro.telemetry.perfdiff import (diff_digests, diff_profile_sets,
                                      main, worst_regression)
from repro.telemetry.profiling import (ProfileDigest, SpanProfile,
                                       write_profile_set)


def make_digest(extra_spans=None, counters=None, calls=None):
    spans = {
        "offline_run": SpanProfile("offline_run", calls=1,
                                   total_s=1.0, self_s=0.2,
                                   min_s=1.0, max_s=1.0),
        "offline_run/lp_solve": SpanProfile(
            "offline_run/lp_solve", calls=3, total_s=0.6, self_s=0.6,
            min_s=0.1, max_s=0.3),
        "offline_run/rounding": SpanProfile(
            "offline_run/rounding", calls=1, total_s=0.2, self_s=0.2,
            min_s=0.2, max_s=0.2),
    }
    for path, span in (extra_spans or {}).items():
        spans[path] = span
    if calls:
        for path, n in calls.items():
            spans[path].calls = n
    base_counters = {'lp_solves_total{mode="cold"}': 3.0,
                     'simplex_iterations_total{phase="primal"}': 40.0,
                     "rounding_admits_total": 8.0}
    base_counters.update(counters or {})
    return ProfileDigest(spans=spans, counters=base_counters,
                         top_level_s=1.0, runs=1)


class TestDiffDigests:
    def test_identical_digests_nothing_regresses(self):
        rows = diff_digests("Appro", make_digest(), make_digest())
        assert not any(row.regressed for row in rows)

    def test_call_count_drift_gates_both_directions(self):
        fewer = make_digest(calls={"offline_run/lp_solve": 2})
        rows = diff_digests("Appro", make_digest(), fewer)
        bad = [r for r in rows if r.regressed]
        assert len(bad) == 1
        assert bad[0].key == "offline_run/lp_solve"
        assert bad[0].kind == "calls"

    def test_counter_drift_gates(self):
        noisier = make_digest(
            counters={'simplex_iterations_total{phase="primal"}': 160.0})
        rows = diff_digests("Appro", make_digest(), noisier)
        bad = [r for r in rows if r.regressed]
        assert [r.key for r in bad] \
            == ['simplex_iterations_total{phase="primal"}']

    def test_tol_absorbs_small_drift(self):
        noisier = make_digest(
            counters={'simplex_iterations_total{phase="primal"}': 41.0})
        rows = diff_digests("Appro", make_digest(), noisier, tol=0.05)
        assert not any(row.regressed for row in rows)

    def test_new_span_always_regresses(self):
        hot = make_digest(extra_spans={
            "offline_run/synthetic_hotspot": SpanProfile(
                "offline_run/synthetic_hotspot", calls=2,
                total_s=0.9, self_s=0.9, min_s=0.4, max_s=0.5)})
        rows = diff_digests("Appro", make_digest(), hot, tol=0.5)
        bad = [r for r in rows if r.regressed]
        assert [r.key for r in bad] == ["offline_run/synthetic_hotspot"]
        assert bad[0].rel == float("inf")

    def test_timing_advisory_without_gate(self):
        slow = copy.deepcopy(make_digest())
        slow.spans["offline_run/lp_solve"].self_s = 6.0
        rows = diff_digests("Appro", make_digest(), slow)
        assert not any(row.regressed for row in rows)

    def test_gate_catches_slowdown_above_floor(self):
        slow = copy.deepcopy(make_digest())
        slow.spans["offline_run/lp_solve"].self_s = 6.0
        rows = diff_digests("Appro", make_digest(), slow, gate=0.5)
        bad = [r for r in rows if r.regressed]
        assert [(r.kind, r.key) for r in bad] \
            == [("self_s", "offline_run/lp_solve")]

    def test_min_ms_floor_silences_tiny_spans(self):
        slow = copy.deepcopy(make_digest())
        slow.spans["offline_run/rounding"].self_s = 0.004  # 4 ms
        base = copy.deepcopy(make_digest())
        base.spans["offline_run/rounding"].self_s = 0.001
        rows = diff_digests("Appro", base, slow, gate=0.5, min_ms=5.0)
        assert not any(row.regressed for row in rows)

    def test_gate_ignores_speedups(self):
        fast = copy.deepcopy(make_digest())
        fast.spans["offline_run/lp_solve"].self_s = 0.01
        rows = diff_digests("Appro", make_digest(), fast, gate=0.1)
        assert not any(row.regressed for row in rows)


class TestWorstRegression:
    def test_localizes_injected_hotspot(self):
        hot = make_digest(extra_spans={
            "offline_run/synthetic_hotspot": SpanProfile(
                "offline_run/synthetic_hotspot", calls=2,
                total_s=0.9, self_s=0.9, min_s=0.4, max_s=0.5)})
        rows = diff_digests("Appro", make_digest(), hot)
        where, evidence = worst_regression(rows)
        assert where == "offline_run/synthetic_hotspot"
        assert any(row.kind == "calls" for row in evidence)

    def test_counter_regression_anchors_to_owning_span(self):
        noisier = make_digest(
            counters={'simplex_iterations_total{phase="primal"}': 400.0})
        rows = diff_digests("Appro", make_digest(), noisier)
        where, evidence = worst_regression(rows)
        assert where == "offline_run/lp_solve"
        assert any(row.kind == "counter" for row in evidence)

    def test_none_when_clean(self):
        rows = diff_digests("Appro", make_digest(), make_digest())
        assert worst_regression(rows) is None

    def test_unowned_counter_stands_alone(self):
        rows = [PerfDelta("d", "counter", "service_shed_total",
                          0.0, 5.0, regressed=True)]
        where, evidence = worst_regression(rows)
        assert where == "service_shed_total"


class TestDiffProfileSets:
    def test_identical_sets_exit_ok(self):
        code, report = diff_profile_sets({"Appro": make_digest()},
                                         {"Appro": make_digest()})
        assert code == EXIT_OK
        assert "deterministic attribution ok" in report
        assert "exit 0" in report

    def test_regression_exit_one_and_headline(self):
        hot = make_digest(extra_spans={
            "offline_run/synthetic_hotspot": SpanProfile(
                "offline_run/synthetic_hotspot", calls=2,
                total_s=0.9, self_s=0.9, min_s=0.4, max_s=0.5)})
        code, report = diff_profile_sets({"Appro": make_digest()},
                                         {"Appro": hot})
        assert code == EXIT_REGRESSED
        assert ("worst regressed span: offline_run/synthetic_hotspot"
                in report)

    def test_one_sided_digest_noted_not_gated(self):
        code, report = diff_profile_sets(
            {"Appro": make_digest(), "Greedy": make_digest()},
            {"Appro": make_digest()})
        assert code == EXIT_OK
        assert "'Greedy' present on one side only" in report

    def test_no_common_names_raises(self):
        with pytest.raises(ConfigurationError):
            diff_profile_sets({"A": make_digest()},
                              {"B": make_digest()})


class TestCli:
    def write(self, tmp_path, filename, digests):
        path = tmp_path / filename
        write_profile_set(path, digests)
        return str(path)

    def test_identical_exits_zero(self, tmp_path, capsys):
        old = self.write(tmp_path, "old.json",
                         {"Appro": make_digest()})
        assert main([old, old]) == EXIT_OK
        assert "exit 0" in capsys.readouterr().out

    def test_injected_slowdown_localized_exit_one(self, tmp_path,
                                                  capsys):
        old = self.write(tmp_path, "old.json",
                         {"Appro": make_digest()})
        hot = make_digest(extra_spans={
            "offline_run/synthetic_hotspot": SpanProfile(
                "offline_run/synthetic_hotspot", calls=2,
                total_s=0.9, self_s=0.9, min_s=0.4, max_s=0.5)})
        new = self.write(tmp_path, "new.json", {"Appro": hot})
        assert main([old, new]) == EXIT_REGRESSED
        out = capsys.readouterr().out
        assert ("worst regressed span: offline_run/synthetic_hotspot"
                in out)

    def test_missing_file_exits_two(self, tmp_path, capsys):
        old = self.write(tmp_path, "old.json",
                         {"Appro": make_digest()})
        assert main([old, str(tmp_path / "nope.json")]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_empty_artifact_exits_two(self, tmp_path, capsys):
        old = self.write(tmp_path, "old.json",
                         {"Appro": make_digest()})
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"schema": "x", "digests": {}}))
        assert main([old, str(empty)]) == EXIT_ERROR

    def test_negative_knobs_exit_two(self, tmp_path, capsys):
        old = self.write(tmp_path, "old.json",
                         {"Appro": make_digest()})
        assert main(["--tol", "-1", old, old]) == EXIT_ERROR

    def test_dispatch_through_experiments_cli(self, tmp_path, capsys):
        from repro.experiments.__main__ import main as experiments_main
        old = self.write(tmp_path, "old.json",
                         {"Appro": make_digest()})
        assert experiments_main(["perf-diff", old, old]) == EXIT_OK
        assert "perf-diff:" in capsys.readouterr().out

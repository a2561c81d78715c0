"""Tests for bench-diff: tolerance gating and the CLI exit codes."""

import dataclasses

import pytest

from repro.exceptions import ConfigurationError
from repro.telemetry import (Delta, RunManifest, append_ledger,
                             diff_ledgers, diff_manifests, write_bench)
from repro.telemetry import regression


def make_manifest(name="bench", reward=100.0, runtime=0.5,
                  phases=None):
    return RunManifest(
        name=name,
        created_at="2026-08-05T00:00:00Z",
        git_rev="deadbeef",
        config_hash="abc123",
        seeds=(0, 1),
        workers=2,
        python_version="3.11.0",
        numpy_version="1.26.0",
        platform="test",
        peak_rss_kb=1024,
        phases=dict(phases or {"fig3": 1.5}),
        metrics={"Greedy": {"total_reward": reward,
                            "runtime_s": runtime}},
        extra={"scale": "smoke"},
    )


def perturbed(manifest, *, reward=None, runtime=None, phases=None):
    metrics = {algo: dict(row)
               for algo, row in manifest.metrics.items()}
    if reward is not None:
        metrics["Greedy"]["total_reward"] = reward
    if runtime is not None:
        metrics["Greedy"]["runtime_s"] = runtime
    return dataclasses.replace(
        manifest, metrics=metrics,
        phases=dict(phases if phases is not None else manifest.phases))


class TestDelta:
    def test_relative_delta(self):
        delta = Delta(run="m", key="k", old=100.0, new=110.0,
                      wall_clock=False, regressed=False)
        assert delta.abs_delta == pytest.approx(10.0)
        assert delta.rel_delta == pytest.approx(0.1)

    def test_zero_baseline_stays_finite(self):
        delta = Delta(run="m", key="k", old=0.0, new=1.0,
                      wall_clock=False, regressed=False)
        assert delta.rel_delta == pytest.approx(1.0 / 1e-12)
        assert delta.rel_delta != float("inf")


class TestDiffManifests:
    def test_identical_is_ok(self):
        manifest = make_manifest()
        report = diff_manifests(manifest, manifest)
        assert report.ok
        assert not report.regressions

    def test_metric_drift_gates_both_directions(self):
        base = make_manifest(reward=100.0)
        worse = perturbed(base, reward=90.0)
        better = perturbed(base, reward=110.0)
        assert not diff_manifests(base, worse, metric_tol=0.05).ok
        # An *increase* still means the baseline is stale.
        assert not diff_manifests(base, better, metric_tol=0.05).ok
        assert diff_manifests(base, worse, metric_tol=0.2).ok

    def test_wall_clock_advisory_by_default(self):
        base = make_manifest(runtime=1.0)
        slower = perturbed(base, runtime=10.0)
        report = diff_manifests(base, slower)
        assert report.ok
        wall = [d for d in report.deltas
                if d.key == "Greedy.runtime_s"]
        assert wall and wall[0].wall_clock

    def test_gate_wall_fails_slowdowns_only(self):
        base = make_manifest(runtime=1.0)
        slower = perturbed(base, runtime=2.0)
        faster = perturbed(base, runtime=0.5)
        assert not diff_manifests(base, slower, gate_wall=True,
                                  wall_tol=0.25).ok
        assert diff_manifests(base, faster, gate_wall=True,
                              wall_tol=0.25).ok
        assert diff_manifests(base, slower, gate_wall=True,
                              wall_tol=2.0).ok

    def test_wall_keys_limit_the_gate(self):
        base = make_manifest(runtime=1.0, phases={"fig3": 1.0})
        slow_phase = perturbed(base, phases={"fig3": 100.0})
        slow_algo = perturbed(base, runtime=5.0)
        # A gated pattern only fires on matching keys ...
        assert diff_manifests(base, slow_phase, gate_wall=True,
                              wall_keys=["Greedy.runtime_s"]).ok
        assert not diff_manifests(base, slow_algo, gate_wall=True,
                                  wall_keys=["Greedy.runtime_s"]).ok
        # ... wildcards work, and no patterns means gate everything.
        assert not diff_manifests(base, slow_algo, gate_wall=True,
                                  wall_keys=["*.runtime_s"]).ok
        assert not diff_manifests(base, slow_phase, gate_wall=True).ok

    def test_phases_and_rss_are_wall_clock(self):
        base = make_manifest(phases={"fig3": 1.0})
        slower = perturbed(base, phases={"fig3": 100.0})
        report = diff_manifests(base, slower)
        assert report.ok
        keys = {d.key for d in report.deltas if d.wall_clock}
        assert "phase.fig3" in keys
        assert "peak_rss_kb" in keys

    def test_missing_metric_is_advisory(self):
        base = make_manifest()
        gone = dataclasses.replace(
            base, metrics={"Greedy": {"runtime_s": 0.5}})
        report = diff_manifests(base, gone)
        assert report.ok
        assert any("total_reward" in item for item in report.missing)

    def test_one_sided_wall_key_is_listed_not_dropped(self):
        base = make_manifest(phases={"fig3": 1.0})
        more = perturbed(base, phases={"fig3": 1.0, "fig4": 2.0})
        report = diff_manifests(base, more, gate_wall=True)
        assert report.ok
        assert "bench: phase.fig4" in report.missing
        assert "only on one side: bench: phase.fig4" in report.render()
        assert "phase.fig4" not in {d.key for d in report.deltas}

    def test_negative_tolerance_rejected(self):
        manifest = make_manifest()
        with pytest.raises(ConfigurationError):
            diff_manifests(manifest, manifest, metric_tol=-1.0)


class TestDiffLedgers:
    def test_latest_per_name_wins(self):
        stale = make_manifest(reward=1.0)
        head = make_manifest(reward=100.0)
        report = diff_ledgers([stale, head], [head])
        assert report.ok

    def test_missing_names_advisory(self):
        report = diff_ledgers([make_manifest("a")],
                              [make_manifest("a"),
                               make_manifest("b")])
        assert report.ok
        assert "run 'b'" in report.missing

    def test_no_common_names_is_not_ok(self):
        report = diff_ledgers([make_manifest("a")],
                              [make_manifest("b")])
        assert not report.ok
        assert report.compared_runs == []

    def test_name_filter(self):
        report = diff_ledgers(
            [make_manifest("a"), make_manifest("b")],
            [make_manifest("a"), make_manifest("b", reward=999.0)],
            name="a")
        assert report.compared_runs == ["a"]
        assert report.ok


class TestRenderReport:
    def test_render_marks_rows(self):
        base = make_manifest(reward=100.0)
        report = diff_manifests(base, perturbed(base, reward=90.0),
                                metric_tol=0.05)
        text = report.render()
        assert "run 'bench':" in text
        assert "REGRESSION" in text
        assert "regression(s)" in text

    def test_render_empty(self):
        report = diff_ledgers([make_manifest("a")],
                              [make_manifest("b")])
        assert "no common run names" in report.render()

    def test_wall_clock_rows_sorted_by_relative_magnitude(self):
        # phase.fig3 shifts 1.5 -> 1.65 (+10%); runtime_s shifts
        # 0.5 -> 1.0 (+100%); RSS is unchanged.  The advisory block
        # must lead with the biggest relative mover, regardless of the
        # keys' alphabetical order.
        base = make_manifest(runtime=0.5, phases={"fig3": 1.5})
        new = perturbed(base, runtime=1.0, phases={"fig3": 1.65})
        text = diff_manifests(base, new).render()
        lines = [line.strip() for line in text.splitlines()]
        wall = [line for line in lines
                if line.endswith("~")]
        assert wall[0].startswith("Greedy.runtime_s")
        assert wall[1].startswith("phase.fig3")
        assert wall[2].startswith("peak_rss_kb")
        # Per-key old -> new values ride along on every row.
        assert "0.5" in wall[0] and "->" in wall[0] and "1" in wall[0]

    def test_deterministic_rows_precede_wall_clock(self):
        base = make_manifest()
        new = perturbed(base, runtime=5.0)
        lines = diff_manifests(base, new).render().splitlines()
        reward_at = next(i for i, line in enumerate(lines)
                         if "total_reward" in line)
        runtime_at = next(i for i, line in enumerate(lines)
                          if "runtime_s" in line)
        assert reward_at < runtime_at


class TestCli:
    def bench(self, tmp_path, filename, manifest):
        path = tmp_path / filename
        write_bench(path, manifest)
        return str(path)

    def test_identical_exits_zero(self, tmp_path, capsys):
        base = self.bench(tmp_path, "old.json", make_manifest())
        assert regression.main([base, base]) == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_over_tolerance_exits_one(self, tmp_path, capsys):
        old = self.bench(tmp_path, "old.json",
                         make_manifest(reward=100.0))
        new = self.bench(tmp_path, "new.json",
                         make_manifest(reward=90.0))
        assert regression.main([old, new, "--tol", "0.05"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "Greedy.total_reward" in out

    def test_within_tolerance_exits_zero(self, tmp_path):
        old = self.bench(tmp_path, "old.json",
                         make_manifest(reward=100.0))
        new = self.bench(tmp_path, "new.json",
                         make_manifest(reward=90.0))
        assert regression.main([old, new, "--tol", "0.2"]) == 0

    def test_gate_wall_flag(self, tmp_path):
        old = self.bench(tmp_path, "old.json",
                         make_manifest(runtime=1.0))
        new = self.bench(tmp_path, "new.json",
                         make_manifest(runtime=5.0))
        assert regression.main([old, new]) == 0
        assert regression.main([old, new, "--gate-wall"]) == 1
        assert regression.main([old, new, "--gate-wall",
                                "--wall-tol", "10"]) == 0

    def test_gate_wall_keys_flag(self, tmp_path):
        old = self.bench(tmp_path, "old.json",
                         make_manifest(runtime=1.0,
                                       phases={"fig3": 1.0}))
        new = self.bench(tmp_path, "new.json",
                         make_manifest(runtime=1.0,
                                       phases={"fig3": 100.0}))
        # The phase slowdown is outside the pattern -> passes; the
        # flag alone implies --gate-wall for matching keys.
        assert regression.main([old, new, "--gate-wall-keys",
                                "Greedy.runtime_s"]) == 0
        assert regression.main([old, new, "--gate-wall-keys",
                                "phase.*"]) == 1
        slow = self.bench(tmp_path, "slow.json",
                          make_manifest(runtime=5.0,
                                        phases={"fig3": 1.0}))
        assert regression.main([old, slow, "--gate-wall-keys",
                                "Greedy.runtime_s,phase.*"]) == 1
        assert regression.main([old, slow, "--gate-wall-keys",
                                "Greedy.runtime_s", "--wall-tol",
                                "10"]) == 0

    def test_typo_in_gate_wall_keys_exits_two(self, tmp_path, capsys):
        old = self.bench(tmp_path, "old.json",
                         make_manifest(runtime=1.0))
        slow = self.bench(tmp_path, "slow.json",
                          make_manifest(runtime=10.0))
        assert regression.main([old, slow, "--gate-wall-keys",
                                "Greedy.runtime_s"]) == 1
        capsys.readouterr()
        # A pattern matching no wall-clock key must not switch the
        # gate off silently; one bad pattern in a list is enough.
        assert regression.main([old, slow, "--gate-wall-keys",
                                "Gredy.runtime_s"]) == 2
        assert "'Gredy.runtime_s'" in capsys.readouterr().err
        assert regression.main([old, slow, "--gate-wall-keys",
                                "Greedy.runtime_s,phase.fgi3"]) == 2
        assert "'phase.fgi3'" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        base = self.bench(tmp_path, "old.json", make_manifest())
        assert regression.main([base, str(tmp_path / "nope.json")]) == 2
        assert "bench-diff:" in capsys.readouterr().err

    def test_no_common_runs_exits_two(self, tmp_path):
        old = self.bench(tmp_path, "old.json", make_manifest("a"))
        new = self.bench(tmp_path, "new.json", make_manifest("b"))
        assert regression.main([old, new]) == 2

    def test_reads_jsonl_ledgers_too(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        append_ledger(path, make_manifest())
        assert regression.main([str(path), str(path)]) == 0

    def test_dispatch_through_experiments_cli(self, tmp_path):
        from repro.experiments.__main__ import main as experiments_main

        base = self.bench(tmp_path, "old.json", make_manifest())
        assert experiments_main(["bench-diff", base, base]) == 0

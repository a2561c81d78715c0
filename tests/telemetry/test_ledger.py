"""Tests for run manifests, the JSONL ledger, and BENCH snapshots."""

import dataclasses
import json

import pytest

from repro.exceptions import ConfigurationError
from repro.sim.results import RunRecord, SweepResult
from repro.telemetry import (MANIFEST_SCHEMA, RunManifest, append_ledger,
                             config_hash, diff_ledgers, git_revision,
                             latest_by_name, load_manifests,
                             manifest_from_sweeps, peak_rss_kb,
                             write_bench)


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


def make_sweep(algorithm="Greedy", rewards=(10.0, 20.0)):
    sweep = SweepResult("num_requests")
    for seed, reward in enumerate(rewards):
        sweep.extend([RunRecord(algorithm, 8.0, seed,
                                {"total_reward": reward,
                                 "runtime_s": 0.1})])
    return sweep


class TestRunManifest:
    def test_round_trip(self):
        manifest = make_manifest()
        rebuilt = RunManifest.from_dict(manifest.to_dict())
        assert rebuilt == manifest

    def test_to_dict_carries_schema(self):
        assert make_manifest().to_dict()["schema"] == MANIFEST_SCHEMA

    def test_to_dict_is_json_serializable(self):
        json.dumps(make_manifest().to_dict())

    def test_from_dict_tolerates_missing_optionals(self):
        manifest = RunManifest.from_dict({"name": "m"})
        assert manifest.name == "m"
        assert manifest.git_rev == "unknown"
        assert manifest.seeds == ()
        assert manifest.peak_rss_kb is None

    def test_from_dict_rejects_malformed(self):
        with pytest.raises(ConfigurationError):
            RunManifest.from_dict({})  # no name
        with pytest.raises(ConfigurationError):
            RunManifest.from_dict({"name": "m",
                                   "seeds": ["not-an-int"]})


class TestConfigHash:
    def test_stable_across_calls(self):
        cfg = {"b": 2, "a": 1}
        assert config_hash(cfg) == config_hash({"a": 1, "b": 2})

    def test_sensitive_to_values(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_dataclasses_hash_by_fields(self):
        @dataclasses.dataclass
        class Cfg:
            x: int
            y: str

        assert config_hash(Cfg(1, "a")) == config_hash(Cfg(1, "a"))
        assert config_hash(Cfg(1, "a")) != config_hash(Cfg(2, "a"))

    def test_hash_is_short_hex(self):
        digest = config_hash({"a": 1})
        assert len(digest) == 16
        int(digest, 16)


class TestEnvironmentProbes:
    def test_git_revision_in_repo(self):
        rev = git_revision()
        assert rev == "unknown" or len(rev) == 40

    def test_git_revision_outside_repo(self, tmp_path):
        assert git_revision(cwd=tmp_path) == "unknown"

    def test_peak_rss_positive_on_posix(self):
        rss = peak_rss_kb()
        assert rss is None or rss > 0


class TestManifestFromSweeps:
    def test_single_sweep_metrics_unnamespaced(self):
        manifest = manifest_from_sweeps("m", {"fig3": make_sweep()})
        assert set(manifest.metrics) == {"Greedy"}
        assert manifest.metrics["Greedy"]["total_reward"] \
            == pytest.approx(15.0)
        assert manifest.seeds == (0, 1)

    def test_multiple_sweeps_namespaced(self):
        manifest = manifest_from_sweeps(
            "m", {"fig3": make_sweep(), "fig4": make_sweep("OCORP")})
        assert set(manifest.metrics) == {"fig3/Greedy", "fig4/OCORP"}

    def test_phases_and_extra_carried(self):
        manifest = manifest_from_sweeps(
            "m", {"fig3": make_sweep()}, workers=4,
            phases={"fig3": 2.0}, extra={"scale": "full"})
        assert manifest.workers == 4
        assert manifest.phases == {"fig3": 2.0}
        assert manifest.extra == {"scale": "full"}

    def test_empty_sweeps_rejected(self):
        with pytest.raises(ConfigurationError):
            manifest_from_sweeps("m", {})

    def test_config_hash_depends_on_config(self):
        a = manifest_from_sweeps("m", {"s": make_sweep()},
                                 config={"scale": "smoke"})
        b = manifest_from_sweeps("m", {"s": make_sweep()},
                                 config={"scale": "full"})
        assert a.config_hash != b.config_hash


class TestPersistence:
    def test_ledger_append_read_round_trip(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        first = make_manifest("a")
        second = make_manifest("b", reward=50.0)
        append_ledger(path, first)
        append_ledger(path, second)
        assert load_manifests(path) == [first, second]

    def test_ledger_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "nested" / "deep" / "ledger.jsonl"
        append_ledger(path, make_manifest())
        assert len(load_manifests(path)) == 1

    def test_ledger_skips_blank_lines(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        append_ledger(path, make_manifest())
        with path.open("a") as handle:
            handle.write("\n")
        assert len(load_manifests(path)) == 1

    def test_ledger_rejects_garbage(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ConfigurationError):
            load_manifests(path)

    def test_ledger_rejects_non_object_lines(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ConfigurationError):
            load_manifests(path)

    def test_bench_write_load_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_m.json"
        manifest = make_manifest()
        write_bench(path, manifest)
        assert load_manifests(path) == [manifest]
        # Pretty-printed: multi-line with a trailing newline.
        text = path.read_text()
        assert text.endswith("\n")
        assert len(text.splitlines()) > 1

    def test_load_manifests_sniffs_jsonl(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        append_ledger(path, make_manifest("a"))
        append_ledger(path, make_manifest("b"))
        assert [m.name for m in load_manifests(path)] == ["a", "b"]

    def test_load_manifests_rejects_json_array(self, tmp_path):
        path = tmp_path / "weird.json"
        path.write_text("[]")
        with pytest.raises(ConfigurationError):
            load_manifests(path)

    def test_latest_by_name(self):
        old = make_manifest("m", reward=1.0)
        new = make_manifest("m", reward=2.0)
        other = make_manifest("other")
        head = latest_by_name([old, other, new])
        assert head["m"] is new
        assert head["other"] is other


class TestLedgerDiffIntegration:
    """Write -> read -> bench-diff of identical ledgers: zero deltas
    regressed, exit-equivalent ok."""

    def test_identical_ledgers_report_no_regressions(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        append_ledger(path, make_manifest())
        manifests = load_manifests(path)
        report = diff_ledgers(manifests, manifests)
        assert report.ok
        assert report.compared_runs == ["bench"]
        assert report.regressions == []
        for delta in report.deltas:
            assert delta.abs_delta == 0.0

"""Error-path tests for persistence and report plumbing."""

import json

import pytest

from repro.core.appro import Appro
from repro.exceptions import ConfigurationError
from repro.io import load_instance, load_result, save_instance, save_result
from repro.sim.engine import run_offline


class TestResultErrorPaths:
    def test_result_version_check(self, small_instance, small_workload,
                                  tmp_path):
        result = run_offline(Appro(), small_instance, small_workload,
                             seed=0)
        path = save_result(result, tmp_path / "r.json")
        payload = json.loads(path.read_text())
        payload["version"] = 0
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError):
            load_result(path)

    def test_result_kind_check(self, small_instance, small_workload,
                               tmp_path):
        result = run_offline(Appro(), small_instance, small_workload,
                             seed=0)
        path = save_result(result, tmp_path / "r.json")
        payload = json.loads(path.read_text())
        payload["kind"] = "instance"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError):
            load_result(path)

    def test_instance_loader_rejects_result_file(self, small_instance,
                                                 small_workload,
                                                 tmp_path):
        result = run_offline(Appro(), small_instance, small_workload,
                             seed=0)
        path = save_result(result, tmp_path / "r.json")
        with pytest.raises(ConfigurationError):
            load_instance(path)


class TestReportTheoremPath:
    def test_theorem_checks_markdown_smoke(self, monkeypatch):
        """The theorem section renders with stubbed studies."""
        import repro.experiments.report as report_mod

        monkeypatch.setattr(
            report_mod, "approximation_ratio_study",
            lambda **kw: (0.2, {0: 0.2}))
        monkeypatch.setattr(
            report_mod, "system_regret_study",
            lambda **kw: {"best_threshold": 200.0,
                          "best_fixed_reward": 100.0,
                          "dynamic_reward": 99.0,
                          "relative_regret": 0.01})
        monkeypatch.setattr(
            report_mod, "clairvoyant_study",
            lambda **kw: {"online_reward": 90.0,
                          "clairvoyant_bound": 100.0,
                          "competitive_ratio": 0.9})
        text = report_mod.theorem_checks_markdown(fast=True)
        assert "Thm. 1" in text and "0.200" in text
        assert "Thm. 3" in text and "+1.0%" in text
        assert "0.900" in text


class TestInstanceBaseDelays:
    @pytest.mark.parametrize("bad", [-3.0, float("nan"), float("inf")])
    def test_tampered_base_delay_rejected(self, small_instance, tmp_path,
                                          bad):
        """A saved station delay that is negative, NaN or infinite would
        make that station silently never or always feasible."""
        path = save_instance(small_instance, tmp_path / "instance.json")
        payload = json.loads(path.read_text())
        payload["stations"][1]["base_delay_ms"] = bad
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="base delays"):
            load_instance(path)

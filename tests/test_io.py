"""Round-trip tests for JSON serialization of instances and results."""

import json

import pytest

from repro.config import SimulationConfig
from repro.core.appro import Appro
from repro.exceptions import ConfigurationError
from repro.io import (config_from_dict, config_to_dict, load_instance,
                      load_result, save_instance, save_result)
from repro.sim.engine import run_offline


class TestConfigRoundTrip:
    def test_identity(self):
        config = SimulationConfig(seed=42)
        clone = config_from_dict(config_to_dict(config))
        assert clone == config

    def test_survives_json(self):
        config = SimulationConfig(seed=3)
        text = json.dumps(config_to_dict(config))
        assert config_from_dict(json.loads(text)) == config


class TestInstanceRoundTrip:
    def test_topology_identical(self, small_instance, tmp_path):
        path = save_instance(small_instance, tmp_path / "instance.json")
        clone = load_instance(path)
        assert len(clone.network) == len(small_instance.network)
        for sid in small_instance.network.station_ids:
            assert (clone.network.station(sid).capacity_mhz
                    == small_instance.network.station(sid).capacity_mhz)
            assert (clone.latency.base_delay_ms(sid)
                    == small_instance.latency.base_delay_ms(sid))
        assert (sorted(clone.network.graph.edges)
                == sorted(small_instance.network.graph.edges))
        for u, v in small_instance.network.graph.edges:
            assert (clone.network.link_delay_ms(u, v)
                    == small_instance.network.link_delay_ms(u, v))

    def test_path_delays_identical(self, small_instance, tmp_path):
        path = save_instance(small_instance, tmp_path / "instance.json")
        clone = load_instance(path)
        ids = small_instance.network.station_ids
        for u in ids[:4]:
            for v in ids[:4]:
                assert (clone.paths.one_way_delay_ms(u, v)
                        == pytest.approx(
                            small_instance.paths.one_way_delay_ms(u, v)))

    def test_reloaded_instance_runs_identically(self, small_instance,
                                                tmp_path):
        """An algorithm run reproduces bit-exact on the reloaded
        instance (same workload seed)."""
        path = save_instance(small_instance, tmp_path / "instance.json")
        clone = load_instance(path)
        a = run_offline(Appro(), small_instance,
                        small_instance.new_workload(15, seed=9), seed=9)
        b = run_offline(Appro(), clone,
                        clone.new_workload(15, seed=9), seed=9)
        assert a.total_reward == pytest.approx(b.total_reward)
        assert a.num_admitted == b.num_admitted

    def test_version_check(self, small_instance, tmp_path):
        path = save_instance(small_instance, tmp_path / "instance.json")
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError):
            load_instance(path)

    def test_kind_check(self, small_instance, tmp_path):
        path = save_instance(small_instance, tmp_path / "instance.json")
        payload = json.loads(path.read_text())
        payload["kind"] = "result"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError):
            load_instance(path)


class TestResultRoundTrip:
    def test_identity(self, small_instance, small_workload, tmp_path):
        result = run_offline(Appro(), small_instance, small_workload,
                             seed=0)
        path = save_result(result, tmp_path / "result.json")
        clone = load_result(path)
        assert clone.algorithm == result.algorithm
        assert clone.total_reward == pytest.approx(result.total_reward)
        assert clone.num_admitted == result.num_admitted
        assert (clone.average_latency_ms()
                == pytest.approx(result.average_latency_ms()))
        for rid, decision in result.decisions.items():
            other = clone.decision(rid)
            assert other.admitted == decision.admitted
            assert other.reward == pytest.approx(decision.reward)
            assert other.migrated_tasks == decision.migrated_tasks

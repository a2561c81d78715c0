"""Unit tests for ProblemInstance construction and helpers."""

import copy
import pickle

import pytest

from repro.config import NetworkConfig, SimulationConfig
from repro.core.instance import ProblemInstance
from repro.core.lp_relaxation import build_lp_pt
from repro.exceptions import ConfigurationError


class TestBuild:
    def test_build_defaults(self):
        inst = ProblemInstance.build(seed=0)
        assert len(inst.network) == 20
        assert inst.slot_size_mhz == 1000.0
        assert inst.c_unit == 20.0

    def test_deterministic(self):
        a = ProblemInstance.build(seed=5)
        b = ProblemInstance.build(seed=5)
        assert ([s.capacity_mhz for s in a.network]
                == [s.capacity_mhz for s in b.network])

    def test_seed_overrides_config(self):
        cfg = SimulationConfig(seed=1)
        a = ProblemInstance.build(cfg, seed=2)
        b = ProblemInstance.build(SimulationConfig(seed=2))
        assert ([s.capacity_mhz for s in a.network]
                == [s.capacity_mhz for s in b.network])

    def test_invalid_config_rejected(self):
        cfg = SimulationConfig(network=NetworkConfig(num_base_stations=0))
        with pytest.raises(ConfigurationError):
            ProblemInstance.build(cfg)


class TestHelpers:
    def test_slots_of(self, small_instance):
        sid = small_instance.network.station_ids[0]
        slots = small_instance.slots_of(sid)
        assert slots.capacity_mhz == (
            small_instance.network.station(sid).capacity_mhz)
        assert slots.num_slots == small_instance.network.num_slots(sid)

    def test_max_num_slots(self, small_instance):
        expected = max(small_instance.network.num_slots(sid)
                       for sid in small_instance.network.station_ids)
        assert small_instance.max_num_slots() == expected

    def test_new_ledger_empty(self, small_instance):
        ledger = small_instance.new_ledger()
        for sid in small_instance.network.station_ids:
            assert ledger.occupied_mhz(sid) == 0.0

    @pytest.mark.parametrize("clone", [pickle.loads, copy.deepcopy])
    def test_copies_start_without_derived_values(self, clone):
        """Some derived values are keyed by object identity; a pickle or
        a copy must rebuild them rather than carry stale keys."""
        inst = ProblemInstance.build(seed=4)
        workload = inst.new_workload(num_requests=5, seed=4)
        lp, _ = build_lp_pt(inst, workload)
        assert inst._derived
        other = clone(pickle.dumps(inst) if clone is pickle.loads
                      else inst)
        assert other._derived == {}
        assert other.max_num_slots() == inst.max_num_slots()
        again, _ = build_lp_pt(other, workload)
        assert again.objective_vector().tobytes() == \
            lp.objective_vector().tobytes()
        assert inst._derived


class TestWorkloads:
    def test_batch_workload(self, small_instance):
        workload = small_instance.new_workload(num_requests=10, seed=1)
        assert len(workload) == 10
        assert all(r.arrival_slot == 0 for r in workload)
        small_instance.validate_workload(workload)

    def test_online_workload(self, small_instance):
        workload = small_instance.new_workload(num_requests=10, seed=1,
                                               horizon_slots=30)
        assert all(0 <= r.arrival_slot < 30 for r in workload)

    def test_workload_deterministic(self, small_instance):
        a = small_instance.new_workload(num_requests=5, seed=3)
        b = small_instance.new_workload(num_requests=5, seed=3)
        for ra, rb in zip(a, b):
            assert ra.expected_reward == pytest.approx(rb.expected_reward)
            assert ra.serving_station == rb.serving_station

    def test_validate_workload_rejects_foreign_station(self,
                                                       small_instance):
        workload = small_instance.new_workload(num_requests=1, seed=0)
        workload[0].serving_station = 999
        with pytest.raises(ConfigurationError):
            small_instance.validate_workload(workload)

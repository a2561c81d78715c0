"""Tests for the shared baseline machinery (base.py)."""

import pytest

from repro.baselines import OcorpOffline
from repro.baselines.base import (OnlineBaselinePolicy, admit_sequential,
                                  expected_feasible_stations)
from repro.sim.engine import run_offline
from repro.sim.online_engine import OnlineEngine


class TestExpectedFeasibleStations:
    def test_respects_deadline_and_capacity(self, small_instance,
                                            small_workload):
        request = small_workload[0]
        ledger = small_instance.new_ledger()
        stations = expected_feasible_stations(small_instance, request,
                                              ledger)
        for sid in stations:
            assert small_instance.latency.is_feasible(request, sid)
            assert ledger.fits(sid, request.expected_demand_mhz)

    def test_shrinks_when_loaded(self, small_instance, small_workload):
        request = small_workload[0]
        ledger = small_instance.new_ledger()
        before = expected_feasible_stations(small_instance, request,
                                            ledger)
        if before:
            sid = before[0]
            ledger.reserve(999, sid,
                           small_instance.network.station(
                               sid).capacity_mhz)
            after = expected_feasible_stations(small_instance, request,
                                               ledger)
            assert sid not in after

    def test_waiting_shrinks_set(self, small_instance, small_workload):
        request = small_workload[0]
        ledger = small_instance.new_ledger()
        without = expected_feasible_stations(small_instance, request,
                                             ledger)
        with_wait = expected_feasible_stations(small_instance, request,
                                               ledger, waiting_ms=190.0)
        assert set(with_wait).issubset(set(without))


class TestAdmitSequential:
    def test_rejections_recorded(self, small_instance, small_workload):
        result = admit_sequential(
            "AllReject", small_instance, small_workload,
            lambda _i, _r, _l: None, rng=0)
        assert len(result) == len(small_workload)
        assert result.num_admitted == 0

    def test_fixed_station_fills_then_rejects(self, small_instance,
                                              small_workload):
        def first_station(instance, request, ledger):
            sid = instance.network.station_ids[0]
            if ledger.fits(sid, request.expected_demand_mhz):
                return sid
            return None

        result = admit_sequential("Pin", small_instance,
                                  small_workload, first_station, rng=0)
        capacity = small_instance.network.station(
            small_instance.network.station_ids[0]).capacity_mhz
        admitted = [d for d in result.decisions.values() if d.admitted]
        assert admitted
        # Can't admit more than capacity allows by expectation.
        expected = small_workload[0].expected_demand_mhz
        assert len(admitted) <= capacity / expected + 1

    def test_runtime_recorded(self, small_instance, small_workload):
        # run_offline times every algorithm's run, baselines included.
        result = run_offline(OcorpOffline(), small_instance,
                             small_workload, seed=0)
        assert result.runtime_s > 0.0


class TestOnlineBaselinePolicyHooks:
    def test_abstract_hooks_raise(self, small_instance,
                                  online_workload):
        policy = OnlineBaselinePolicy()
        engine = OnlineEngine(small_instance, online_workload,
                              horizon_slots=5, rng=0)
        with pytest.raises(NotImplementedError):
            engine.run(policy)

    def test_observe_is_noop(self):
        OnlineBaselinePolicy().observe(0, 1.0)  # must not raise

    def test_planned_demand_respected(self, small_instance):
        """Within one slot, planned placements count against free
        capacity so a policy cannot double-book a station."""
        from repro.baselines.ocorp import OcorpOnline

        workload = small_instance.new_workload(30, seed=2)
        # All arrive at slot 0: the policy must spread or skip, never
        # plan more expected demand onto a station than fits.
        engine = OnlineEngine(small_instance, workload,
                              horizon_slots=10, rng=2)
        policy = OcorpOnline()
        policy.begin(engine)
        placements = policy.schedule(0, tuple(workload))
        planned = {}
        for placement in placements:
            planned.setdefault(placement.station_id, 0.0)
            request = next(r for r in workload
                           if r.request_id == placement.request_id)
            planned[placement.station_id] += request.expected_demand_mhz
        for sid, demand in planned.items():
            capacity = small_instance.network.station(sid).capacity_mhz
            assert demand <= capacity + 1e-6

"""Unit and invariant tests for the slotted online engine."""

from typing import List

import pytest

from repro.exceptions import SchedulingError
from repro.sim.events import EventKind
from repro.sim.online_engine import (CLOUD_LATENCY_MS, CLOUD_STATION,
                                     OnlineEngine, Placement)
from repro.telemetry.audit import Journal, use_journal


class ImmediateGlobalPolicy:
    """Test policy: start every pending request on station 0."""

    name = "Immediate"

    def __init__(self):
        self.observed: List[float] = []

    def begin(self, engine):
        self.engine = engine

    def schedule(self, slot, pending):
        return [Placement(request_id=r.request_id, station_id=0)
                for r in pending]

    def observe(self, slot, slot_reward):
        self.observed.append(slot_reward)


class LazyPolicy:
    """Test policy: never starts anything."""

    name = "Lazy"

    def begin(self, engine):
        pass

    def schedule(self, slot, pending):
        return []

    def observe(self, slot, slot_reward):
        pass


class CloudPolicy:
    """Test policy: send everything to the cloud."""

    name = "Cloud"

    def begin(self, engine):
        pass

    def schedule(self, slot, pending):
        return [Placement(request_id=r.request_id,
                          station_id=CLOUD_STATION) for r in pending]

    def observe(self, slot, slot_reward):
        pass


class BadPolicy:
    """Test policy: places a request that does not exist."""

    name = "Bad"

    def begin(self, engine):
        pass

    def schedule(self, slot, pending):
        return [Placement(request_id=10_000, station_id=0)]

    def observe(self, slot, slot_reward):
        pass


class TestLifecycle:
    def test_every_request_decided(self, small_instance,
                                   online_workload):
        engine = OnlineEngine(small_instance, online_workload,
                              horizon_slots=40, rng=0)
        result = engine.run(ImmediateGlobalPolicy())
        assert len(result) == len(online_workload)

    def test_lazy_policy_rejects_everything(self, small_instance,
                                            online_workload):
        engine = OnlineEngine(small_instance, online_workload,
                              horizon_slots=40, rng=0)
        result = engine.run(LazyPolicy())
        assert result.num_admitted == 0
        assert result.total_reward == 0.0

    def test_events_ordered_and_consistent(self, small_instance,
                                           online_workload):
        journal = Journal()
        with use_journal(journal):
            engine = OnlineEngine(small_instance, online_workload,
                                  horizon_slots=40, rng=0)
            engine.run(ImmediateGlobalPolicy())
        started, completed = set(), set()
        for event in journal.events():
            if event["kind"] == EventKind.START.value:
                assert event["request"] not in started
                started.add(event["request"])
            elif event["kind"] == EventKind.COMPLETE.value:
                assert event["request"] in started
                assert event["request"] not in completed
                completed.add(event["request"])
        assert started
        assert completed.issubset(started)

    def test_bad_placement_raises(self, small_instance,
                                  online_workload):
        engine = OnlineEngine(small_instance, online_workload,
                              horizon_slots=40, rng=0)
        with pytest.raises(SchedulingError):
            engine.run(BadPolicy())


class TestLatencySemantics:
    def test_waiting_counts_toward_latency(self, small_instance,
                                           online_workload):
        engine = OnlineEngine(small_instance, online_workload,
                              horizon_slots=40, rng=0)
        result = engine.run(ImmediateGlobalPolicy())
        for decision in result.decisions.values():
            if decision.admitted and decision.latency_ms is not None:
                assert decision.latency_ms >= decision.waiting_ms - 1e-9

    def test_congestion_slows_processing(self, small_instance):
        """Dumping everything on one station must cost latency compared
        with the uncongested placement delay."""
        workload = small_instance.new_workload(20, seed=1,
                                               horizon_slots=5)
        engine = OnlineEngine(small_instance, workload, horizon_slots=40,
                              rng=1)
        result = engine.run(ImmediateGlobalPolicy())
        congested = [d for d in result.decisions.values()
                     if d.admitted and d.primary_station == 0]
        assert congested
        by_id = {r.request_id: r for r in workload}
        slowdowns = []
        for d in congested:
            base = small_instance.latency.total_delay_ms(
                by_id[d.request_id], 0, waiting_ms=d.waiting_ms)
            slowdowns.append(d.latency_ms - base)
        # At least some requests were stretched by sharing.
        assert max(slowdowns) > 1e-6

    def test_reward_iff_deadline(self, small_instance, online_workload):
        engine = OnlineEngine(small_instance, online_workload,
                              horizon_slots=40, rng=0)
        result = engine.run(ImmediateGlobalPolicy())
        for decision in result.decisions.values():
            if decision.admitted:
                if decision.deadline_met:
                    assert decision.reward >= 0.0
                else:
                    assert decision.reward == 0.0


class TestCloud:
    def test_cloud_settles_immediately(self, small_instance,
                                       online_workload):
        engine = OnlineEngine(small_instance, online_workload,
                              horizon_slots=40, rng=0)
        result = engine.run(CloudPolicy())
        assert result.num_admitted == len(online_workload)
        for decision in result.decisions.values():
            assert decision.primary_station is None
            assert decision.latency_ms >= CLOUD_LATENCY_MS
            assert decision.reward == 0.0  # 320 ms > 200 ms deadline


class TestViews:
    def test_free_capacity_tracks_active(self, small_instance,
                                         online_workload):
        engine = OnlineEngine(small_instance, online_workload,
                              horizon_slots=40, rng=0)

        class Checker(ImmediateGlobalPolicy):
            def observe(self, slot, slot_reward):
                cap0 = small_instance.network.station(0).capacity_mhz
                assert 0.0 <= self.engine.free_mhz(0) <= cap0
                assert (self.engine.active_demand_mhz(0)
                        >= self.engine.active_count(0) * 0.0)

        engine.run(Checker())

    def test_observe_receives_slot_rewards(self, small_instance,
                                           online_workload):
        engine = OnlineEngine(small_instance, online_workload,
                              horizon_slots=40, rng=0)
        policy = ImmediateGlobalPolicy()
        result = engine.run(policy)
        assert len(policy.observed) == 40
        assert sum(policy.observed) == pytest.approx(result.total_reward)

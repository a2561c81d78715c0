"""A/B guard: Greedy's per-request key and demand memo against a frozen
copy of the rule it replaced.

``GreedyOnline`` computes a request's sort key and expected demand once,
when it first sees the request pending.  ``FrozenGreedy`` below is the
policy before that: ``_greedy_order`` re-sorted the whole queue every
slot, and ``pick_station`` tested the whole feasible list against the
engine's free capacity.  Over seeded workloads, with and without an
outage, and in a shed-heavy service run, both must place the same
requests on the same stations at every slot.
"""

from __future__ import annotations

from typing import Optional

import pytest

from repro.baselines import GreedyOnline
from repro.core.latency import meets_deadline
from repro.service import loop
from repro.service.loadgen import build_config
from repro.service.loop import AdmissionService
from repro.sim.online_engine import OnlineEngine, Placement
from repro.telemetry.audit import Journal, use_journal

HORIZON = 40
OUTAGES = {0: (5, 20), 3: (12, 30)}


def frozen_greedy_order(requests):
    return sorted(requests,
                  key=lambda r: (-(r.pipeline.total_compute_weight
                                   * r.expected_rate_mbps),
                                 r.request_id))


def frozen_feasible_stations(engine, request, slot):
    model = engine.instance.latency
    ranked = sorted(zip(model.placement_delays(request).tolist(),
                        model.network.station_ids))
    waiting = engine.waiting_ms(request, slot)
    return [sid for delay, sid in ranked
            if meets_deadline(waiting + delay, request.deadline_ms)]


class FrozenGreedy:
    """Greedy's online rule as it was: per slot, sort the queue, then
    place each request on its fastest feasible station if the expected
    demand fits."""

    name = "Greedy"

    def begin(self, engine):
        self.engine = engine

    def schedule(self, slot, pending):
        engine = self.engine
        planned = {sid: 0.0 for sid in engine.instance.network.station_ids}
        placements = []
        for request in frozen_greedy_order(pending):
            station_id = self.pick_station(request, slot, planned)
            if station_id is None:
                continue
            planned[station_id] += request.expected_demand_mhz
            placements.append(Placement(request_id=request.request_id,
                                        station_id=station_id))
        return placements

    def pick_station(self, request, slot, planned) -> Optional[int]:
        feasible = frozen_feasible_stations(self.engine, request, slot)
        if not feasible:
            return None
        best = feasible[0]
        free = self.engine.free_mhz(best) - planned.get(best, 0.0)
        if free < request.expected_demand_mhz:
            return None
        return best

    def observe(self, slot, slot_reward):
        pass


class Recording:
    """Delegates to a policy, recording every slot's placements."""

    def __init__(self, policy):
        self.policy = policy
        self.name = policy.name
        self.placements = []

    def begin(self, engine):
        self.policy.begin(engine)

    def schedule(self, slot, pending):
        placements = self.policy.schedule(slot, pending)
        self.placements.append((slot, list(placements)))
        return placements

    def observe(self, slot, slot_reward):
        self.policy.observe(slot, slot_reward)


def run(instance, policy, seed, outages):
    requests = instance.new_workload(num_requests=120, seed=seed,
                                     horizon_slots=HORIZON)
    engine = OnlineEngine(instance, requests, horizon_slots=HORIZON, rng=11,
                          outages=outages)
    recording = Recording(policy)
    journal = Journal()
    with use_journal(journal):
        result = engine.run(recording)
    return recording.placements, journal.events(), result.decisions


@pytest.mark.parametrize("outages", [None, OUTAGES],
                         ids=["no-outage", "outage"])
@pytest.mark.parametrize("seed", [0, 1, 99])
def test_placements_equal_frozen_rule(small_instance, seed, outages):
    new = run(small_instance, GreedyOnline(), seed, outages)
    old = run(small_instance, FrozenGreedy(), seed, outages)
    assert new[0] == old[0]
    assert sum(len(placed) for _, placed in new[0]) > 0
    assert new[1] == old[1]
    assert new[2] == old[2]


def test_begin_forgets_the_last_run(small_instance):
    """A policy reused on a new engine whose requests reuse the last
    run's ids orders them by their own keys."""
    policy = GreedyOnline()
    for seed in (0, 1):
        requests = small_instance.new_workload(num_requests=12, seed=seed,
                                               horizon_slots=1)
        engine = OnlineEngine(small_instance, requests, horizon_slots=1,
                              rng=11)
        policy.begin(engine)
        assert policy.order(0, requests) == frozen_greedy_order(requests)


def test_shed_heavy_service_equals_frozen_rule(tmp_path, monkeypatch):
    """The memo under a full 64-deep queue, with most requests dropped
    after waiting: the service journals the same run either way."""
    def journal_with(policy_factory, name):
        monkeypatch.setattr(loop, "_make_policy",
                            lambda config, forks: policy_factory())
        path = tmp_path / f"{name}.jsonl"
        service = AdmissionService(build_config(
            4000, 64.0, policy="greedy", seed=3, queue_limit=64,
            journal_path=str(path)))
        while not service.done:
            service.tick()
        service.close()
        return path.read_bytes(), dict(service.counters)

    new = journal_with(GreedyOnline, "new")
    old = journal_with(FrozenGreedy, "old")
    assert new == old
    assert new[1]["dropped"] > new[1]["started"] > 0

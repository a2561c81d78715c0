"""A/B guard: the engine's cached views against the code they replaced.

The online engine keeps two caches: a per-station load snapshot
(active count and demand, rebuilt once per change to the running set)
and a per-request delay ranking with the request's drop slot.  Every
view read from them must equal, bit for bit, what the frozen per-call
scans below (copied from the engine before the caches existed) compute
from the live state - checked while the policy schedules and after
every slot, for every online policy, with and without an outage.  The
same runs check ``still_pending`` (a slot's arrivals left pending, read
from the queue's tail) against the service tick's old set scan.

The ``station_loads`` view and its free capacities are keyed on the
load snapshot, and on the slot only when the engine has outages; a run
whose load stays still across outage window edges checks that the view
follows the edges, and that without outages it is reused between load
changes.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baselines import GreedyOnline, HeuKktOnline, OcorpOnline, \
    RandomOnline
from repro.core.dynamic_rr import DynamicRR
from repro.core.latency import meets_deadline
from repro.requests.request import ARRequest
from repro.sim.events import EventKind
from repro.sim.online_engine import OnlineEngine, StationLoad
from repro.telemetry.audit import Journal, use_journal

HORIZON = 40
OUTAGES = {0: (5, 20), 3: (12, 30)}


# ----------------------------------------------------------------------
# Frozen copies of the per-call scans
# ----------------------------------------------------------------------
def frozen_active_count(engine, station_id):
    return sum(1 for a in engine._active.values()
               if a.station_id == station_id)


def frozen_active_demand_mhz(engine, station_id):
    return float(sum(a.demand_mhz for a in engine._active.values()
                     if a.station_id == station_id))


def frozen_free_mhz(engine, station_id):
    return max(0.0, engine.station_capacity_mhz(station_id)
               - frozen_active_demand_mhz(engine, station_id))


def frozen_station_loads(engine, slot):
    """The per-slot view built afresh from the live running set."""
    network = engine.instance.network
    return tuple(
        StationLoad(sid, network.station(sid).capacity_mhz,
                    engine.is_down(sid, slot),
                    frozen_active_count(engine, sid),
                    frozen_active_demand_mhz(engine, sid))
        for sid in network.station_ids)


def frozen_feasible_stations(model, request, waiting_ms):
    delays = model.placement_delays(request)
    mask = meets_deadline(waiting_ms + delays, request.deadline_ms)
    ids = list(model.network.station_ids)
    order = sorted(np.flatnonzero(mask).tolist(),
                   key=lambda k: (delays[k], ids[k]))
    return [ids[k] for k in order]


def frozen_still_pending(engine, arrivals):
    """The tick's old deferred scan: a set over the whole queue."""
    pending = set(engine.pending_ids())
    return [r for r in arrivals if r.request_id in pending]


def frozen_is_hopeless(engine, request, slot):
    best_case = (engine.waiting_ms(request, slot)
                 + float(engine.instance.latency.placement_delays(
                     request).min()))
    return not meets_deadline(best_case, request.deadline_ms)


def assert_views_match(engine, slot, pending):
    for sid in engine.instance.network.station_ids:
        assert engine.active_count(sid) == frozen_active_count(engine, sid)
        assert engine.active_demand_mhz(sid) == \
            frozen_active_demand_mhz(engine, sid)
        assert engine.free_mhz(sid) == frozen_free_mhz(engine, sid)
    assert engine.total_free_mhz() == float(sum(
        frozen_free_mhz(engine, sid)
        for sid in engine.instance.network.station_ids))
    assert engine.station_loads() == frozen_station_loads(engine, slot)
    assert engine.station_free_mhz() == {
        sid: frozen_free_mhz(engine, sid)
        for sid in engine.instance.network.station_ids}
    model = engine.instance.latency
    for request in pending:
        assert engine.feasible_stations(request, slot) == \
            frozen_feasible_stations(model, request,
                                     engine.waiting_ms(request, slot))


class CheckedPolicy:
    """Delegates to a policy, checking the views it is about to read."""

    def __init__(self, policy):
        self.policy = policy
        self.name = policy.name
        self.engine = None
        self.checked = 0

    def begin(self, engine):
        self.engine = engine
        self.policy.begin(engine)

    def schedule(self, slot, pending):
        assert_views_match(self.engine, slot, pending)
        self.checked += 1
        return self.policy.schedule(slot, pending)

    def observe(self, slot, slot_reward):
        self.policy.observe(slot, slot_reward)


POLICIES = {
    "greedy": lambda instance: GreedyOnline(),
    "heukkt": lambda instance: HeuKktOnline(),
    "ocorp": lambda instance: OcorpOnline(),
    "random": lambda instance: RandomOnline(rng=7),
    "dynamicrr": lambda instance: DynamicRR(instance.config.online, rng=7),
}


@pytest.fixture()
def crowded_workload(small_instance):
    """Enough arrivals to congest stations and drop stale requests."""
    return small_instance.new_workload(num_requests=90, seed=99,
                                       horizon_slots=HORIZON)


@pytest.mark.parametrize("outages", [None, OUTAGES],
                         ids=["no-outage", "outage"])
@pytest.mark.parametrize("name", sorted(POLICIES))
def test_cached_views_equal_fresh_scans(small_instance, crowded_workload,
                                        name, outages):
    requests = crowded_workload
    engine = OnlineEngine(small_instance, requests, horizon_slots=HORIZON,
                          rng=11, outages=outages)
    policy = CheckedPolicy(POLICIES[name](small_instance))
    by_slot = {}
    for request in requests:
        by_slot.setdefault(request.arrival_slot, []).append(request)
    journal = Journal()
    with use_journal(journal):
        engine.announce_stations()
    policy.begin(engine)
    dropped_total = started_total = mixed = 0
    for t in engine.clock.ticks():
        arrivals = by_slot.get(t, [])
        queued = list(engine._pending) + arrivals
        expected_drops = {r.request_id for r in queued
                          if frozen_is_hopeless(engine, r, t)}
        events_before = len(journal)
        with use_journal(journal):
            outcome = engine.step(policy, t, arrivals)
        dropped = {e["request"] for e in journal.events()[events_before:]
                   if e["kind"] == EventKind.DROP.value}
        assert dropped == expected_drops, f"slot {t}"
        assert_views_match(engine, t, engine._pending)
        left = engine.still_pending(arrivals)
        assert left == frozen_still_pending(engine, arrivals), f"slot {t}"
        mixed += 0 < len(left) < len(arrivals)
        dropped_total += outcome.num_dropped
        started_total += outcome.num_started
    assert policy.checked == HORIZON
    # The run exercised what the caches serve: starts and drops (HeuKKT
    # sends whatever it cannot place to the cloud at once, so it never
    # lets a request go stale).
    assert started_total > 0
    assert (dropped_total > 0) == (name != "heukkt")
    # Some slots kept part of their arrivals pending (HeuKKT never
    # does; Random seldom).
    assert mixed > 0 or name in ("heukkt", "random")


@pytest.mark.parametrize("outages", [None, OUTAGES],
                         ids=["no-outage", "outage"])
def test_station_view_follows_outage_edges_under_a_still_load(
        small_instance, outages):
    """A few requests start at slot 0 and nothing arrives after, so the
    load snapshot stays the same object over long stretches, outage
    window edges included."""
    requests = small_instance.new_workload(num_requests=4, seed=5,
                                           horizon_slots=1)
    engine = OnlineEngine(small_instance, requests, horizon_slots=HORIZON,
                          rng=0, outages=outages)
    policy = GreedyOnline()
    policy.begin(engine)
    edges = {slot for start, end in (outages or {}).values()
             for slot in (start, end + 1)}
    still_edges = reused = 0
    load = view = None
    for t in engine.clock.ticks():
        engine.step(policy, t, requests if t == 0 else ())
        same_load = engine._loads() is load
        load = engine._loads()
        previous, view = view, engine.station_loads()
        assert view == frozen_station_loads(engine, t), f"slot {t}"
        assert engine.station_free_mhz() == {
            sid: frozen_free_mhz(engine, sid)
            for sid in small_instance.network.station_ids}, f"slot {t}"
        still_edges += same_load and t in edges
        reused += view is previous
    if outages:
        # Every edge fell in a still stretch: only the slot moved.
        assert still_edges == len(edges)
    else:
        # Without outages, a still load serves one view across slots.
        assert reused > HORIZON // 2


def test_restore_state_drops_the_caches(small_instance, crowded_workload):
    """A snapshot installed into an engine that ran past it reads its
    views from the restored state, not from the later one."""
    by_slot = {}
    for request in crowded_workload:
        by_slot.setdefault(request.arrival_slot, []).append(request)

    def run(engine, policy, slots):
        """Step the slots; return what they journaled."""
        journal = Journal()
        with use_journal(journal):
            for t in slots:
                engine.clock.advance_to(t)
                engine.step(policy, t, by_slot.get(t, []))
        return journal.events()

    uninterrupted = OnlineEngine(small_instance, crowded_workload,
                                 horizon_slots=HORIZON, rng=3)
    policy = CheckedPolicy(GreedyOnline())
    policy.begin(uninterrupted)
    expected = run(uninterrupted, policy, range(HORIZON))

    engine = OnlineEngine(small_instance, crowded_workload,
                          horizon_slots=HORIZON, rng=3)
    policy = CheckedPolicy(GreedyOnline())
    policy.begin(engine)
    head = run(engine, policy, range(3))
    state = engine.export_state()
    run(engine, policy, range(3, 25))  # the overrun the restore discards
    engine.total_free_mhz()  # fill the load snapshot past the state
    assert len(engine._active) != len(state["active"])
    engine.restore_state(state)
    assert_views_match(engine, 2, engine._pending)
    replay = run(engine, policy, range(3, HORIZON))
    assert head + replay == expected


class NeverPlace:
    name = "NeverPlace"

    def begin(self, engine):
        pass

    def schedule(self, slot, pending):
        return []

    def observe(self, slot, slot_reward):
        pass


def test_infinite_deadline_is_never_dropped(small_instance):
    template = small_instance.new_workload(num_requests=2, seed=5,
                                           horizon_slots=1)[0]
    request = ARRequest(
        request_id=0, serving_station=template.serving_station,
        pipeline=template.pipeline, distribution=template.distribution,
        deadline_ms=math.inf, arrival_slot=0,
        stream_duration_slots=template.stream_duration_slots,
        c_unit_mhz_per_mbps=template.c_unit_mhz_per_mbps)
    engine = OnlineEngine(small_instance, [request], horizon_slots=HORIZON,
                          rng=0)
    policy = NeverPlace()
    engine.announce_stations()
    for t in engine.clock.ticks():
        outcome = engine.step(policy, t, [request] if t == 0 else [])
        assert outcome.num_dropped == 0
        assert engine.pending_ids() == (0,)
        assert engine.feasible_stations(request, t) == \
            frozen_feasible_stations(small_instance.latency, request,
                                     engine.waiting_ms(request, t))


@pytest.mark.parametrize("lo, hi", [(12.0, 15.0), (1.0, 10.0), (3.5, 3.5),
                                    (-2.0, 0.25)])
def test_scalar_uniform_draw_matches_numpy(lo, hi):
    """The check-free draw the generator uses equals ``rng.uniform``:
    the same values and the same bit-generator state, also when the
    stream interleaves other draws."""
    fast = np.random.default_rng(2024)
    reference = np.random.default_rng(2024)
    for k in range(100_000):
        assert lo + (hi - lo) * fast.random() == \
            float(reference.uniform(lo, hi))
        if k % 3 == 0:
            assert fast.integers(0, 20) == reference.integers(0, 20)
    assert fast.bit_generator.state == reference.bit_generator.state

"""A/B guard: the engine's drop offsets against a frozen per-request
drop slot.

The engine keeps one ranking and drop offset per ``(serving station,
compute weight, deadline)`` and nothing per request: a pending request
is dropped once it has waited its offset, and ``fastest_feasible`` is
the ranking's first station before then.  The frozen copy below is the
per-request ``_ranking`` it replaced (a sort per request, and a drop
slot found from an arithmetic estimate capped at the horizon).  At
every slot of Greedy, Random, HeuKKT, OCORP and DynamicRR runs, with
and without an outage, and across an ``export_state``/``restore_state``
into a fresh engine mid-run, the slot's drops and every pending
request's ``fastest_feasible`` must equal the frozen code's.
"""

from __future__ import annotations

import math

import pytest

from repro.baselines import GreedyOnline, HeuKktOnline, OcorpOnline, \
    RandomOnline
from repro.core.dynamic_rr import DynamicRR
from repro.core.latency import meets_deadline
from repro.requests.request import ARRequest
from repro.sim.events import EventKind
from repro.sim.online_engine import OnlineEngine
from repro.telemetry.audit import Journal, use_journal

HORIZON = 40
OUTAGES = {0: (5, 20), 3: (12, 30)}
RESTORE_AT = 17

POLICIES = {
    "greedy": lambda instance: GreedyOnline(),
    "heukkt": lambda instance: HeuKktOnline(),
    "ocorp": lambda instance: OcorpOnline(),
    "random": lambda instance: RandomOnline(rng=7),
    "dynamicrr": lambda instance: DynamicRR(instance.config.online, rng=7),
}


# ----------------------------------------------------------------------
# Frozen copy of the per-request ranking and drop slot
# ----------------------------------------------------------------------
def frozen_ranking(engine, request):
    model = engine.instance.latency
    ranked = sorted(zip(model.placement_delays(request).tolist(),
                        model.network.station_ids))
    ids = [sid for _, sid in ranked]
    delays = [delay for delay, _ in ranked]
    arrival, horizon = request.arrival_slot, engine.clock.horizon_slots

    def hopeless(t):
        return not meets_deadline(engine.clock.waiting_ms(arrival, t)
                                  + delays[0], request.deadline_ms)

    slack = (request.deadline_ms - delays[0]) / engine.clock.slot_length_ms
    t = arrival + int(min(slack, horizon)) if slack > 0 else arrival
    while t > arrival and hopeless(t - 1):
        t -= 1
    while t < horizon and not hopeless(t):
        t += 1
    return ids, delays, t


def frozen_fastest_feasible(engine, request, slot):
    ids, delays, _ = frozen_ranking(engine, request)
    if meets_deadline(engine.waiting_ms(request, slot) + delays[0],
                      request.deadline_ms):
        return ids[0]
    return None


class CheckedPolicy:
    """Delegates to a policy, checking ``fastest_feasible`` for every
    request it is handed."""

    def __init__(self, policy):
        self.policy = policy
        self.name = policy.name
        self.engine = None
        self.checked = 0

    def begin(self, engine):
        self.engine = engine
        self.policy.begin(engine)

    def schedule(self, slot, pending):
        for request in pending:
            assert self.engine.fastest_feasible(request, slot) == \
                frozen_fastest_feasible(self.engine, request, slot), slot
        self.checked += len(pending)
        return self.policy.schedule(slot, pending)

    def observe(self, slot, slot_reward):
        self.policy.observe(slot, slot_reward)


def fresh_workload(instance):
    """A new copy each time: starting a request realizes it."""
    return instance.new_workload(num_requests=90, seed=99,
                                 horizon_slots=HORIZON)


def by_slot(requests):
    slots = {}
    for request in requests:
        slots.setdefault(request.arrival_slot, []).append(request)
    return slots


def run_slots(engine, policy, arrivals, slots, journal):
    """Step `slots`, checking each slot's drops; returns drops and
    starts."""
    dropped_total = started_total = 0
    for t in slots:
        engine.clock.advance_to(t)
        batch = arrivals.get(t, [])
        queued = list(engine._pending) + batch
        expected = {request.request_id for request in queued
                    if t >= frozen_ranking(engine, request)[2]}
        before = len(journal)
        with use_journal(journal):
            outcome = engine.step(policy, t, batch)
        dropped = {event["request"] for event in journal.events()[before:]
                   if event["kind"] == EventKind.DROP.value}
        assert dropped == expected, f"slot {t}"
        dropped_total += outcome.num_dropped
        started_total += outcome.num_started
    return dropped_total, started_total


def new_engine(instance, requests, outages):
    return OnlineEngine(instance, requests, horizon_slots=HORIZON, rng=11,
                        outages=outages)


@pytest.mark.parametrize("outages", [None, OUTAGES],
                         ids=["no-outage", "outage"])
@pytest.mark.parametrize("name", sorted(POLICIES))
def test_drops_and_fastest_equal_frozen(small_instance, name, outages):
    requests = fresh_workload(small_instance)
    engine = new_engine(small_instance, requests, outages)
    policy = CheckedPolicy(POLICIES[name](small_instance))
    journal = Journal()
    with use_journal(journal):
        engine.announce_stations()
    policy.begin(engine)
    dropped, started = run_slots(engine, policy, by_slot(requests),
                                 range(HORIZON), journal)
    assert policy.checked > HORIZON
    assert started > 0
    # HeuKKT sends what it cannot place to the cloud at once.
    assert (dropped > 0) == (name != "heukkt")


@pytest.mark.parametrize("outages", [None, OUTAGES],
                         ids=["no-outage", "outage"])
@pytest.mark.parametrize("name", sorted(POLICIES))
def test_restored_engine_equals_uninterrupted(small_instance, name,
                                              outages):
    """A fresh engine (empty memo) restored mid-run journals the rest of
    the run as the uninterrupted engine does, with the same drops."""
    requests = fresh_workload(small_instance)
    uninterrupted = Journal()
    engine = new_engine(small_instance, requests, outages)
    policy = CheckedPolicy(POLICIES[name](small_instance))
    policy.begin(engine)
    run_slots(engine, policy, by_slot(requests), range(HORIZON),
              uninterrupted)

    requests = fresh_workload(small_instance)
    arrivals = by_slot(requests)
    journal = Journal()
    head = new_engine(small_instance, requests, outages)
    head_policy = POLICIES[name](small_instance)
    policy = CheckedPolicy(head_policy)
    policy.begin(head)
    run_slots(head, policy, arrivals, range(RESTORE_AT), journal)
    state = head.export_state()
    policy_state = (head_policy.export_state()
                    if hasattr(head_policy, "export_state") else None)

    tail = new_engine(small_instance, requests, outages)
    tail_policy = POLICIES[name](small_instance)
    policy = CheckedPolicy(tail_policy)
    policy.begin(tail)
    if policy_state is not None:
        tail_policy.restore_state(policy_state)
    tail.restore_state(state)
    run_slots(tail, policy, arrivals, range(RESTORE_AT, HORIZON), journal)
    assert journal.events() == uninterrupted.events()


class NeverPlace:
    name = "NeverPlace"

    def begin(self, engine):
        pass

    def schedule(self, slot, pending):
        return []

    def observe(self, slot, slot_reward):
        pass


def test_restored_queue_drops_without_new_arrivals(small_instance):
    """A restored engine drops the restored queue at its offsets even
    when no request arrives after the restore."""
    requests = [request for request in fresh_workload(small_instance)
                if request.arrival_slot < RESTORE_AT]
    arrivals = by_slot(requests)
    uninterrupted = Journal()
    run_slots(new_engine(small_instance, requests, None), NeverPlace(),
              arrivals, range(HORIZON), uninterrupted)

    journal = Journal()
    head = new_engine(small_instance, requests, None)
    run_slots(head, NeverPlace(), arrivals, range(RESTORE_AT), journal)
    state = head.export_state()
    assert state["pending"]
    tail = new_engine(small_instance, requests, None)
    tail.restore_state(state)
    dropped, _ = run_slots(tail, NeverPlace(), arrivals,
                           range(RESTORE_AT, HORIZON), journal)
    assert dropped == len(state["pending"])
    assert journal.events() == uninterrupted.events()


def test_fastest_feasible_past_the_horizon(small_instance):
    """Exact at every slot, also where the capped drop slot stops."""
    requests = fresh_workload(small_instance)
    engine = new_engine(small_instance, requests, None)
    hopeless = 0
    for request in requests:
        for slot in range(request.arrival_slot, HORIZON + 20):
            fastest = engine.fastest_feasible(request, slot)
            assert fastest == frozen_fastest_feasible(engine, request, slot)
            hopeless += fastest is None
    assert hopeless > 0


@pytest.mark.parametrize("deadline_ms", [1e-3, 49.0, 200.0, 1234.5, 1e7,
                                         math.inf])
def test_drop_offset_is_the_first_failing_wait(small_instance, deadline_ms):
    """The offset is the first wait, in slots, failing Eq. (1) at the
    fastest station (never, for an infinite deadline)."""
    template = fresh_workload(small_instance)[0]
    request = ARRequest(
        request_id=0, serving_station=template.serving_station,
        pipeline=template.pipeline, distribution=template.distribution,
        deadline_ms=deadline_ms, arrival_slot=3)
    engine = new_engine(small_instance, [request], None)
    _, delays, offset = engine._ranking(request)

    def meets(k):
        return meets_deadline(engine.clock.ms_of(k) + delays[0],
                              deadline_ms)

    if math.isinf(deadline_ms):
        assert offset == math.inf
        assert meets(10 ** 9)
        return
    assert not meets(offset)
    assert offset == 0 or meets(offset - 1)
    for slot in (3, 3 + offset - 1, 3 + offset, 3 + offset + 1):
        if slot >= 3:
            assert engine.fastest_feasible(request, slot) == \
                frozen_fastest_feasible(engine, request, slot)

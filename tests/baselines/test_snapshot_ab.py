"""A/B: the baselines' per-slot free-capacity snapshot and
``OnlineEngine.fastest_feasible`` against the engine calls they replace.

``OnlineBaselinePolicy.schedule`` answers every free-capacity read from
one snapshot of ``engine.station_loads()``; Greedy asks the engine for
``fastest_feasible`` instead of the whole ``feasible_stations`` list.
At every schedule call of all four baselines, with and without an
outage, the snapshot must equal ``engine.free_mhz`` for every station
and ``fastest_feasible`` must equal ``feasible_stations(r, t)[:1]`` for
every pending request.  A frozen copy of Greedy's old placement rule
must also journal the same run byte for byte.  The snapshot is the
engine's ``station_free_mhz``, rebuilt on a load change and, with
outages, on every slot: a run whose load stays still across the outage
window edges checks that it follows them.
"""

from __future__ import annotations

from typing import Optional

import pytest

from repro.baselines import GreedyOnline, HeuKktOnline, OcorpOnline, \
    RandomOnline
from repro.sim.online_engine import OnlineEngine
from repro.telemetry.audit import Journal, use_journal

HORIZON = 40
OUTAGES = {0: (5, 20), 3: (12, 30)}

POLICIES = {
    "greedy": GreedyOnline,
    "heukkt": HeuKktOnline,
    "ocorp": OcorpOnline,
    "random": lambda: RandomOnline(rng=7),
}


def checked(policy, calls):
    """Check the snapshot and ``fastest_feasible`` inside each schedule
    call, where the policy reads them (``order`` runs right after the
    snapshot is taken)."""
    order = policy.order

    def checking_order(slot, pending):
        engine = policy._engine
        network = engine.instance.network
        assert policy._free == {sid: engine.free_mhz(sid)
                                for sid in network.station_ids}, slot
        assert policy._free is engine.station_free_mhz(), slot
        for request in pending:
            fastest = engine.fastest_feasible(request, slot)
            assert ([] if fastest is None else [fastest]) == \
                engine.feasible_stations(request, slot)[:1], slot
        calls.append((slot, len(pending)))
        return order(slot, pending)

    policy.order = checking_order
    return policy


class FrozenGreedyOnline(GreedyOnline):
    """Greedy's placement rule before the snapshot and fastest_feasible:
    the whole feasible list, then the engine's free capacity."""

    def pick_station(self, request, planned_mhz) -> Optional[int]:
        engine = self._engine
        feasible = engine.feasible_stations(request, self._slot)
        if not feasible:
            return None
        best = feasible[0]
        free = engine.free_mhz(best) - planned_mhz.get(best, 0.0)
        if free < request.expected_demand_mhz:
            return None
        return best


@pytest.fixture()
def crowded_workload(small_instance):
    return small_instance.new_workload(num_requests=90, seed=99,
                                       horizon_slots=HORIZON)


def journal_of(instance, workload, policy, outages):
    engine = OnlineEngine(instance, workload, horizon_slots=HORIZON, rng=11,
                          outages=outages)
    journal = Journal()
    with use_journal(journal):
        result = engine.run(policy)
    return journal.events(), result


@pytest.mark.parametrize("outages", [None, OUTAGES],
                         ids=["no-outage", "outage"])
@pytest.mark.parametrize("name", sorted(POLICIES))
def test_snapshot_and_fastest_match_engine(small_instance, crowded_workload,
                                           name, outages):
    calls = []
    policy = checked(POLICIES[name](), calls)
    events, result = journal_of(small_instance, crowded_workload, policy,
                                outages)
    assert len(calls) == HORIZON
    assert sum(pending for _, pending in calls) > HORIZON
    assert result.num_admitted > 0


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_snapshot_follows_outage_edges_under_a_still_load(small_instance,
                                                          name):
    """Requests arrive at slot 0 only, so after they start or drop the
    load snapshot stays the same object over every outage edge."""
    workload = small_instance.new_workload(num_requests=4, seed=5,
                                           horizon_slots=1)
    calls = []
    policy = checked(POLICIES[name](), calls)
    journal_of(small_instance, workload, policy, OUTAGES)
    assert len(calls) == HORIZON


def test_fastest_feasible_at_every_slot(small_instance, crowded_workload):
    """Inside schedule() every pending request can still make its
    deadline, so also ask at the slots where it no longer can."""
    engine = OnlineEngine(small_instance, crowded_workload,
                          horizon_slots=HORIZON, rng=11)
    empty = 0
    for request in crowded_workload:
        for slot in range(request.arrival_slot, HORIZON + 20):
            fastest = engine.fastest_feasible(request, slot)
            expected = engine.feasible_stations(request, slot)[:1]
            assert ([] if fastest is None else [fastest]) == expected
            empty += not expected
    assert empty > 0


@pytest.mark.parametrize("outages", [None, OUTAGES],
                         ids=["no-outage", "outage"])
def test_greedy_journal_equals_frozen_rule(small_instance, crowded_workload,
                                           outages):
    new, new_result = journal_of(small_instance, crowded_workload,
                                 GreedyOnline(), outages)
    old, old_result = journal_of(small_instance, crowded_workload,
                                 FrozenGreedyOnline(), outages)
    assert new == old
    assert new_result.decisions == old_result.decisions

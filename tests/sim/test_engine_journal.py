"""Decision-journal emission from the engines and algorithms.

Covers the journaling side of both engines (the offline batch executor
and the slotted online engine), the DynamicRR bandit events, and the
invariant audit of real runs - including a deliberately misbehaving
policy that the monitor must catch.
"""

from collections import Counter


from repro.bandits.lipschitz import LipschitzBandit
from repro.core.dynamic_rr import DynamicRR
from repro.core.heu import Heu
from repro.sim.engine import run_offline
from repro.sim.online_engine import OnlineEngine, Placement
from repro.telemetry.audit import (InvariantMonitor, Journal,
                                   NULL_JOURNAL, get_journal,
                                   use_journal)


class PinToStationPolicy:
    """Deliberately bad policy: pins everything to one station."""

    name = "Pinned"

    def __init__(self, station_id):
        self.station_id = station_id

    def begin(self, engine):
        pass

    def schedule(self, slot, pending):
        return [Placement(request_id=r.request_id,
                          station_id=self.station_id) for r in pending]

    def observe(self, slot, slot_reward):
        pass


def kinds(journal):
    return Counter(e["kind"] for e in journal.events())


class TestOfflineJournal:
    def test_disabled_by_default(self, small_instance, small_workload):
        run_offline(Heu(), small_instance, small_workload, seed=0)
        assert get_journal() is NULL_JOURNAL
        assert len(NULL_JOURNAL) == 0

    def test_journal_covers_the_decision_pipeline(self, small_instance,
                                                  small_workload):
        journal = Journal()
        with use_journal(journal):
            run_offline(Heu(), small_instance, small_workload, seed=0)
        counts = kinds(journal)
        stations = len(small_instance.network.station_ids)
        assert counts["station_up"] == stations
        assert counts["arrival"] == len(small_workload)
        # Every arrival reaches a terminal decision.
        assert counts["start"] + counts["drop"] == len(small_workload)
        assert counts["complete"] == counts["start"]
        # Heu's slot admission and migrations are journaled too.
        assert counts["admit"] > 0
        assert counts["migrate"] > 0

    def test_offline_journal_passes_strict_audit(self, small_instance,
                                                 small_workload):
        journal = Journal()
        with use_journal(journal):
            result = run_offline(Heu(), small_instance,
                                 small_workload, seed=0)
        monitor = InvariantMonitor(mode="strict")
        monitor.check_events(journal.events()).finish(result)
        assert monitor.ok
        assert monitor.checks["migration_target"] > 0
        assert monitor.checks["capacity"] > 0

    def test_same_seed_same_journal(self, small_instance,
                                    small_workload):
        journals = []
        for _ in range(2):
            journal = Journal()
            with use_journal(journal):
                run_offline(Heu(), small_instance, small_workload,
                            seed=3)
            journals.append(journal.events())
        assert journals[0] == journals[1]


class TestOnlineJournal:
    def test_journal_covers_the_run(self, small_instance,
                                    online_workload):
        journal = Journal()
        with use_journal(journal):
            engine = OnlineEngine(small_instance, online_workload,
                                  horizon_slots=40, rng=0)
            result = engine.run(DynamicRR(rng=0))
        counts = kinds(journal)
        stations = len(small_instance.network.station_ids)
        assert counts["station_up"] == stations
        assert counts["arrival"] == len(online_workload)
        assert counts["start"] == result.num_admitted
        assert counts["arm_selected"] > 0
        monitor = InvariantMonitor(mode="strict")
        monitor.check_events(journal.events()).finish(result)
        assert monitor.ok

    def test_engine_decisions_unchanged_by_journaling(
            self, small_instance, online_workload):
        def run(journaled):
            # Realizations cache per request: reset so both runs draw
            # the same stream (what the executor does between runs).
            for request in online_workload:
                request.reset_realization()
            engine = OnlineEngine(small_instance, online_workload,
                                  horizon_slots=40, rng=0)
            if journaled:
                with use_journal(Journal()):
                    result = engine.run(DynamicRR(rng=0))
            else:
                result = engine.run(DynamicRR(rng=0))
            return dict(result.decisions)

        assert run(journaled=False) == run(journaled=True)

    def test_outage_transitions_journaled(self, small_instance,
                                          online_workload):
        journal = Journal()
        with use_journal(journal):
            engine = OnlineEngine(small_instance, online_workload,
                                  horizon_slots=40, rng=0,
                                  outages={0: (5, 10)})
            engine.run(DynamicRR(rng=0))
        downs = [e for e in journal.events()
                 if e["kind"] == "station_down"]
        ups = [e for e in journal.events()
               if e["kind"] == "station_up" and e["slot"] > 0]
        assert downs == [{"kind": "station_down", "slot": 5,
                          "station": 0}]
        assert len(ups) == 1
        assert ups[0]["slot"] == 11 and ups[0]["station"] == 0
        capacity = small_instance.network.station(0).capacity_mhz
        assert ups[0]["value"] == capacity

    def test_drop_carries_last_hosting_station(self, small_instance,
                                               online_workload):
        """Satellite: a stream whose station died under it drops *with*
        the station that last hosted it - and the audit catches the
        misbehaving policy that started requests on a dead station."""
        journal = Journal()
        with use_journal(journal):
            engine = OnlineEngine(small_instance, online_workload,
                                  horizon_slots=40, rng=0,
                                  outages={0: (0, 39)})
            engine.run(PinToStationPolicy(0))
        hosted_drops = [e for e in journal.events()
                        if e["kind"] == "drop" and "station" in e]
        assert hosted_drops
        assert all(e["station"] == 0 for e in hosted_drops)
        monitor = InvariantMonitor().check_events(journal.events())
        assert any(v.invariant == "station_outage"
                   for v in monitor.violations)


class TestDynamicRRArmEvents:
    def drive(self, rewards_by_arm, rounds=600):
        """Run DynamicRR's bandit loop directly with a rigged payoff."""
        policy = DynamicRR(rng=0)
        bandit = LipschitzBandit(0.0, 1000.0, num_arms=3, horizon=rounds)
        policy._bandit = bandit
        policy._reward_scale = 1.0
        journal = Journal()
        with use_journal(journal):
            for slot in range(rounds):
                value = bandit.select_value()
                policy._last_arm_value = value
                policy._selected_this_slot = True
                arm = bandit.grid.nearest_arm(value)
                policy.observe(slot, rewards_by_arm[arm])
        return journal

    def test_eliminations_journaled_and_legal(self):
        # Arm 2 dominates; the others must eventually be eliminated.
        journal = self.drive({0: 0.05, 1: 0.1, 2: 0.95})
        events = journal.events()
        eliminated = [e for e in events
                      if e["kind"] == "arm_eliminated"]
        assert eliminated
        for event in eliminated:
            assert event["arm"] in (0, 1)
            ucb, best_lcb = event["detail"]
            assert ucb <= best_lcb + 1e-9
        monitor = InvariantMonitor(mode="strict")
        assert monitor.check_events(events).ok
        assert monitor.checks["arm_separation"] >= len(eliminated)

    def test_no_spurious_eliminations_when_arms_tie(self):
        journal = self.drive({0: 0.5, 1: 0.5, 2: 0.5}, rounds=30)
        assert not [e for e in journal.events()
                    if e["kind"] == "arm_eliminated"]

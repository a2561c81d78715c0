"""Tests for the per-slot step() surface extracted from run().

run() is implemented on top of step(); these tests pin that driving
step() by hand journals exactly what run() journals, that an engine
driven by step() alone (the service's streaming mode) keeps no
per-request decision table, and that engine state export/restore
reproduces the remaining slots exactly.
"""

from __future__ import annotations

import pytest

from repro.baselines import GreedyOnline
from repro.sim.online_engine import OnlineEngine, SlotOutcome
from repro.telemetry.audit import Journal, use_journal

HORIZON = 40


def make_engine(small_instance, workload, outages=None):
    return OnlineEngine(small_instance, workload, horizon_slots=HORIZON,
                        rng=123, outages=outages)


def arrivals_by_slot(workload):
    buckets = {}
    for request in workload:
        buckets.setdefault(request.arrival_slot, []).append(request)
    return buckets


def drive_by_step(engine, policy, workload):
    """What the service does: announce, then step() every slot."""
    engine.announce_stations()
    policy.begin(engine)
    buckets = arrivals_by_slot(workload)
    for t in engine.clock.ticks():
        engine.step(policy, t, buckets.get(t, ()))


class TestRunStepIdentity:
    def test_manual_step_loop_matches_run(self, small_instance,
                                          online_workload):
        run_journal = Journal()
        with use_journal(run_journal):
            engine_a = make_engine(small_instance, online_workload)
            result_a = engine_a.run(GreedyOnline())

        step_journal = Journal()
        with use_journal(step_journal):
            engine_b = make_engine(small_instance, online_workload)
            drive_by_step(engine_b, GreedyOnline(), online_workload)
            engine_b._finalize()

        events = step_journal.events()
        assert run_journal.events() == events
        assert result_a.decisions.keys() == {
            e["request"] for e in events if e["kind"] == "arrival"}
        total_b = sum(e["reward"] for e in events if e["kind"] == "start")
        assert result_a.total_reward == pytest.approx(total_b)

    def test_step_returns_slot_outcome(self, small_instance,
                                       online_workload):
        engine = make_engine(small_instance, online_workload)
        policy = GreedyOnline()
        engine.announce_stations()
        policy.begin(engine)
        buckets = arrivals_by_slot(online_workload)
        outcome = engine.step(policy, 0, buckets.get(0, ()))
        assert isinstance(outcome, SlotOutcome)
        assert outcome.slot == 0
        assert outcome.num_arrivals == len(buckets.get(0, ()))
        assert outcome.pending_after == engine.pending_count()
        assert outcome.active_after == engine.active_total()


class TestStreamingMode:
    """The service drives the engine by step() alone."""

    def test_streaming_keeps_no_history(self, small_instance,
                                        online_workload):
        engine = make_engine(small_instance, online_workload)
        drive_by_step(engine, GreedyOnline(), online_workload)
        assert engine._decided is None
        engine.finalize()
        assert engine._decided is None
        assert not hasattr(engine, "events")

    def test_streaming_journal_matches_batch_mode(self, small_instance,
                                                  online_workload):
        """step() alone journals what run() journals, outage edges and
        horizon drops included."""
        outages = {0: (5, 12), 1: (30, 39)}
        run_journal = Journal()
        with use_journal(run_journal):
            make_engine(small_instance, online_workload,
                        outages).run(GreedyOnline())
        step_journal = Journal()
        with use_journal(step_journal):
            engine = make_engine(small_instance, online_workload, outages)
            drive_by_step(engine, GreedyOnline(), online_workload)
            engine.finalize()
        events = step_journal.events()
        assert run_journal.events() == events
        assert [e["slot"] for e in events if e["kind"] == "station_down"] \
            == [5, 30]


class TestEngineCheckpoint:
    def test_export_restore_reproduces_remaining_slots(
            self, small_instance, online_workload):
        split = 17
        buckets = arrivals_by_slot(online_workload)

        baseline = make_engine(small_instance, online_workload)
        policy_a = GreedyOnline()
        policy_a.begin(baseline)
        state = None
        tail_a = []
        journal_a = Journal()
        with use_journal(journal_a):
            for t in baseline.clock.ticks():
                outcome = baseline.step(policy_a, t, buckets.get(t, ()))
                if t == split - 1:
                    state = baseline.export_state()
                if t >= split:
                    tail_a.append(outcome)

        resumed = make_engine(small_instance, [])
        policy_b = GreedyOnline()
        policy_b.begin(resumed)
        resumed.restore_state(state)
        tail_b = []
        journal_b = Journal()
        with use_journal(journal_b):
            for t in resumed.clock.ticks(first_slot=split):
                tail_b.append(resumed.step(policy_b, t,
                                           buckets.get(t, ())))

        assert tail_a == tail_b
        start = next(i for i, e in enumerate(journal_a.events())
                     if e["slot"] >= split and e["kind"] != "station_up")
        assert journal_a.events()[start:] == journal_b.events()

"""Unit tests for the journal timeline renderer."""

from collections import Counter

import pytest

from repro.exceptions import ConfigurationError
from repro.sim.events import Event, EventKind
from repro.sim.timeline import (activity_per_slot, kind_totals, narrate,
                                render_record, strip_chart)
from repro.telemetry.audit import Journal, use_journal


@pytest.fixture()
def events():
    return [event.to_record() for event in (
        Event(slot=0, kind=EventKind.ARRIVAL, request_id=1),
        Event(slot=0, kind=EventKind.ARRIVAL, request_id=2),
        Event(slot=1, kind=EventKind.START, request_id=1, station_id=3),
        Event(slot=2, kind=EventKind.DROP, request_id=2),
        Event(slot=5, kind=EventKind.COMPLETE, request_id=1,
              station_id=3, reward=42.0, latency_ms=120.0),
    )]


class TestRenderRecord:
    def test_lifecycle_lines(self, events):
        assert [render_record(r) for r in events] == [
            "t=   0 arrival r1",
            "t=   0 arrival r2",
            "t=   1 start r1 @bs3",
            "t=   2 drop r2",
            "t=   5 complete r1 @bs3 reward=42.0 latency=120ms",
        ]

    def test_migration_and_arm_lines(self):
        migrate = Event(slot=3, kind=EventKind.MIGRATE, request_id=4,
                        src_station_id=1, station_id=2, task_index=0)
        arm = Event(slot=7, kind=EventKind.ARM_SELECTED, arm=2,
                    value=350.0)
        assert render_record(migrate.to_record()) == \
            "t=   3 migrate r4 bs1-> @bs2"
        assert render_record(arm.to_record()) == "t=   7 arm_selected arm=2"

    def test_read_back_records_render_alike(self, events, tmp_path):
        from repro.telemetry.export import read_jsonl, write_jsonl

        path = tmp_path / "journal.jsonl"
        write_jsonl(path, events)
        assert narrate(read_jsonl(path)) == narrate(events)


class TestNarrate:
    def test_full_window(self, events):
        text = narrate(events)
        assert text.count("\n") == 4
        assert "arrival" in text and "complete" in text
        assert "reward=42.0" in text

    def test_slot_window(self, events):
        text = narrate(events, first_slot=1, last_slot=2)
        assert "start" in text and "drop" in text
        assert "arrival" not in text

    def test_truncation(self, events):
        text = narrate(events, max_lines=2)
        assert "3 more events" in text

    def test_validation(self, events):
        with pytest.raises(ConfigurationError):
            narrate(events, first_slot=-1)


class TestActivity:
    def test_counts(self, events):
        counts = activity_per_slot(events, horizon_slots=6)
        assert counts["arrival"][0] == 2
        assert counts["start"][1] == 1
        assert counts["drop"][2] == 1
        assert counts["complete"][5] == 1

    def test_out_of_horizon_ignored(self, events):
        counts = activity_per_slot(events, horizon_slots=3)
        assert sum(counts["complete"]) == 0

    def test_validation(self, events):
        with pytest.raises(ConfigurationError):
            activity_per_slot(events, horizon_slots=0)


class TestStripChart:
    def test_glyphs_and_legend(self, events):
        chart = strip_chart(events, horizon_slots=6, width=6)
        line, legend = chart.split("\n")
        assert len(line) == 6
        assert line[0] == "a"   # two arrivals dominate slot 0
        assert line[5] == "C"
        assert "a=arrival" in legend

    def test_quiet_buckets_dotted(self, events):
        chart = strip_chart(events, horizon_slots=6, width=6)
        assert "." in chart.split("\n")[0]

    def test_width_larger_than_horizon(self, events):
        chart = strip_chart(events, horizon_slots=3, width=100)
        assert len(chart.split("\n")[0]) == 3

    def test_validation(self, events):
        with pytest.raises(ConfigurationError):
            strip_chart(events, horizon_slots=6, width=0)


class TestSummary:
    def test_totals(self, events):
        totals = kind_totals(events)
        expected = {kind.value: 0 for kind in EventKind}
        expected.update({"arrival": 2, "start": 1, "complete": 1,
                         "drop": 1})
        assert totals == expected

    def test_real_engine_log(self, small_instance, online_workload):
        from repro.core.dynamic_rr import DynamicRR
        from repro.sim.online_engine import OnlineEngine

        journal = Journal()
        with use_journal(journal):
            engine = OnlineEngine(small_instance, online_workload,
                                  horizon_slots=40, rng=0)
            engine.run(DynamicRR(rng=0))
        totals = kind_totals(journal.events())
        assert totals["arrival"] == len(online_workload)
        chart = strip_chart(journal.events(), horizon_slots=40)
        assert len(chart.split("\n")[0]) == 40

    def test_outage_run_totals_match_the_journal(self, small_instance,
                                                 online_workload):
        """Every journaled kind is counted: the horizon DROPs of requests
        still pending at the end and the station transitions too."""
        from repro.core.dynamic_rr import DynamicRR
        from repro.sim.online_engine import OnlineEngine

        horizon = 40
        # Half the stations die for the second half of the horizon, so
        # some requests are still pending when it ends.
        outages = {0: (5, 10), **{sid: (20, 39) for sid in (1, 2, 3, 4)}}
        journal = Journal()
        with use_journal(journal):
            engine = OnlineEngine(small_instance, online_workload,
                                  horizon_slots=horizon, rng=0,
                                  outages=outages)
            result = engine.run(DynamicRR(rng=0))
        records = journal.events()
        totals = kind_totals(records)
        assert {k: n for k, n in totals.items() if n} == \
            dict(Counter(r["kind"] for r in records))
        stations = len(small_instance.network.station_ids)
        assert totals["station_down"] == len(outages)
        # Only station 0 comes back before the horizon.
        assert totals["station_up"] == stations + 1
        # One DROP per never-started request, wherever it was settled.
        unstarted = {r["request"] for r in records
                     if r["kind"] == "drop" and "station" not in r}
        assert unstarted == {rid for rid, d in result.decisions.items()
                             if not d.admitted}
        assert any(r["kind"] == "drop" and r["slot"] == horizon - 1
                   for r in records)
        counts = activity_per_slot(records, horizon)
        assert {kind: sum(per_slot) for kind, per_slot in counts.items()} \
            == totals

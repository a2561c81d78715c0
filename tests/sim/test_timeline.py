"""Unit tests for the event timeline renderer."""

import pytest

from repro.exceptions import ConfigurationError
from repro.sim.events import Event, EventKind
from repro.sim.timeline import (activity_per_slot, narrate, strip_chart,
                                summarize_events)


@pytest.fixture()
def events():
    return [
        Event(slot=0, kind=EventKind.ARRIVAL, request_id=1),
        Event(slot=0, kind=EventKind.ARRIVAL, request_id=2),
        Event(slot=1, kind=EventKind.START, request_id=1, station_id=3),
        Event(slot=2, kind=EventKind.DROP, request_id=2),
        Event(slot=5, kind=EventKind.COMPLETE, request_id=1,
              station_id=3, reward=42.0, latency_ms=120.0),
    ]


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
        totals = summarize_events(events)
        expected = {kind.value: 0 for kind in EventKind}
        expected.update({"arrival": 2, "start": 1, "complete": 1,
                         "drop": 1})
        assert totals == expected

    def test_real_engine_log(self, small_instance, online_workload):
        from repro.core.dynamic_rr import DynamicRR
        from repro.sim.online_engine import OnlineEngine

        engine = OnlineEngine(small_instance, online_workload,
                              horizon_slots=40, rng=0)
        engine.run(DynamicRR(rng=0))
        totals = summarize_events(engine.events)
        assert totals["arrival"] == len(online_workload)
        chart = strip_chart(engine.events, horizon_slots=40)
        assert len(chart.split("\n")[0]) == 40

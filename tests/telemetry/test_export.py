"""Tests for JSONL export, canonicalisation, and sweep merging."""

import pytest

from repro.exceptions import ConfigurationError
from repro.sim.results import RunRecord
from repro.telemetry import (Tracer, canonical_events,
                             collect_sweep_trace, read_jsonl,
                             write_jsonl)


def sample_events():
    tracer = Tracer()
    with tracer.span("outer", phase="x"):
        with tracer.span("inner"):
            pass
    return tracer.events() + [{"kind": "counter", "name": "drops",
                               "labels": {}, "value": 2.0}]


class TestJsonlRoundTrip:
    def test_round_trip(self, tmp_path):
        events = sample_events()
        path = write_jsonl(tmp_path / "trace.jsonl", events)
        assert read_jsonl(path) == events

    def test_creates_parent_dirs(self, tmp_path):
        path = write_jsonl(tmp_path / "a" / "b" / "t.jsonl",
                           sample_events())
        assert path.exists()

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"kind": "counter", "name": "a", '
                        '"labels": {}, "value": 1.0}\n\n')
        assert len(read_jsonl(path)) == 1

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ConfigurationError):
            read_jsonl(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(ConfigurationError):
            read_jsonl(path)


class TestCanonicalEvents:
    def test_strips_wall_clock_fields_only(self):
        events = sample_events()
        canon = canonical_events(events)
        for event in canon:
            assert "start_s" not in event
            assert "duration_s" not in event
        spans = [e for e in canon if e["kind"] == "span"]
        assert {e["name"] for e in spans} == {"outer", "inner"}
        # Deterministic fields survive.
        assert any(e.get("seq") == 0 for e in spans)

    def test_does_not_mutate_input(self):
        events = sample_events()
        canonical_events(events)
        assert any("duration_s" in e for e in events)

    def test_equal_for_identical_runs(self):
        assert (canonical_events(sample_events())
                == canonical_events(sample_events()))


class TestCollectSweepTrace:
    def record(self, algorithm, trace):
        return RunRecord(algorithm=algorithm, x=1.0, seed=0,
                         metrics={"total_reward": 1.0},
                         trace=tuple(trace) if trace else None)

    def test_annotates_run_identity_in_order(self):
        records = [self.record("A", sample_events()),
                   self.record("B", sample_events())]
        merged = collect_sweep_trace(records)
        assert {e["run"] for e in merged} == {0, 1}
        assert merged[0]["algorithm"] == "A"
        # Record order (canonical spec order) is preserved.
        runs = [e["run"] for e in merged]
        assert runs == sorted(runs)

    def test_untraced_records_skipped(self):
        records = [self.record("A", None),
                   self.record("B", sample_events())]
        merged = collect_sweep_trace(records)
        assert all(e["algorithm"] == "B" for e in merged)

    def test_empty(self):
        assert collect_sweep_trace([]) == []

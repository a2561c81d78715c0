"""Tests for the deterministic profiling harness (ProfileDigest)."""

import cProfile
import json
import tracemalloc

import pytest

from repro.exceptions import ConfigurationError
from repro.telemetry import Tracer, get_tracer
from repro.telemetry.profiling import (
    COUNTER_OWNERS, DIGEST_SCHEMA, PROFILE_SET_SCHEMA, ProfileDigest,
    SpanProfile, canonical_digest, capture_memory_top, capture_stats,
    counter_base, digest_from_events, folded_from_digest,
    folded_from_stats, load_profile_set, merge_digests, merge_memory,
    Capture, merge_stats, render_digest, render_memory_top,
    top_functions, write_folded, write_profile_set)
from repro.telemetry.export import collect_sweep_trace
from repro.telemetry.metrics import (NULL_REGISTRY, MetricsRegistry,
                                     series_name)
from repro.sim.results import RunRecord


class StepClock:
    def __init__(self, *instants):
        self._instants = list(instants)

    def __call__(self):
        if self._instants:
            return self._instants.pop(0)
        return 0.0


def traced_run():
    # run: 0 -> 10; lp_solve: 1 -> 4; nested lp_solve: 2 -> 3.
    tracer = Tracer(clock=StepClock(0.0, 1.0, 2.0, 3.0, 4.0, 10.0))
    with tracer.span("offline_run"):
        with tracer.span("lp_solve"):
            with tracer.span("lp_solve"):
                pass
    return tracer.events() + [
        {"kind": "counter", "name": "lp_solves_total",
         "labels": {"mode": "cold"}, "value": 1.0},
        {"kind": "counter", "name": "simplex_iterations_total",
         "labels": {"phase": "primal"}, "value": 12.0}]


def nested_trace():
    # outer: 0 -> 10 (duration 10); inner: 2 -> 5 (duration 3).
    tracer = Tracer(clock=StepClock(0.0, 2.0, 5.0, 10.0))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    return tracer.events()


class TestDigestFromEvents:
    def test_reentrant_span_gets_longer_path(self):
        digest = digest_from_events(traced_run())
        assert "offline_run/lp_solve" in digest.spans
        assert "offline_run/lp_solve/lp_solve" in digest.spans
        outer = digest.spans["offline_run/lp_solve"]
        inner = digest.spans["offline_run/lp_solve/lp_solve"]
        assert outer.calls == 1 and inner.calls == 1
        assert outer.total_s == pytest.approx(3.0)
        assert inner.total_s == pytest.approx(1.0)

    def test_self_time_subtracts_children(self):
        digest = digest_from_events(traced_run())
        assert digest.spans["offline_run"].self_s == pytest.approx(7.0)
        assert digest.spans["offline_run/lp_solve"].self_s \
            == pytest.approx(2.0)

    def test_top_level_is_parentless_only(self):
        digest = digest_from_events(traced_run())
        assert digest.top_level_s == pytest.approx(10.0)

    def test_merged_runs_resolve_parents_per_run(self):
        # Both runs reuse seq numbers; parent links must not cross runs.
        merged = collect_sweep_trace([
            RunRecord("A", 1.0, 0, {}, trace=tuple(nested_trace())),
            RunRecord("B", 1.0, 0, {}, trace=tuple(nested_trace()))])
        digest = digest_from_events(merged)
        assert digest.spans["outer"].self_s == pytest.approx(14.0)
        assert digest.spans["outer/inner"].calls == 2
        assert digest.top_level_s == pytest.approx(20.0)

    def test_counters_fold_under_flat_series_ids(self):
        digest = digest_from_events(traced_run())
        assert digest.counters['lp_solves_total{mode="cold"}'] == 1
        assert digest.counters[
            'simplex_iterations_total{phase="primal"}'] == 12

    def test_registry_counters_share_the_namespace(self):
        # The trace is the tracer's spans, then one counter record per
        # registry counter in sorted series order; the digest reads
        # the counters under their flat series ids.
        registry = MetricsRegistry()
        capture = Capture(profile=True, registry=registry)
        with capture:
            with get_tracer().span("rounding"):
                registry.inc("rounding_rounds", 3.0)
            registry.inc("lp_solves_total", 2.0, mode="cold")
        assert [(e["kind"], e["name"]) for e in capture.events] == [
            ("span", "rounding"), ("counter", "lp_solves_total"),
            ("counter", "rounding_rounds")]
        assert capture.events[1] == {
            "kind": "counter", "name": "lp_solves_total",
            "labels": {"mode": "cold"}, "value": 2.0}
        assert capture.digest.counters == {
            'lp_solves_total{mode="cold"}': 2.0, "rounding_rounds": 3.0}

    def test_counter_owner_join(self):
        digest = digest_from_events(traced_run() + [
            {"kind": "counter", "name": "rounding_admits_total",
             "labels": {}, "value": 5.0}])
        mine = digest.span_counters("lp_solve")
        assert 'lp_solves_total{mode="cold"}' in mine
        assert 'simplex_iterations_total{phase="primal"}' in mine
        assert "rounding_admits_total" not in mine
        assert digest.span_counters("rounding") \
            == {"rounding_admits_total": 5.0}

    def test_counter_owner_map_targets_real_leaves(self):
        # Every owner in the static map is a plain span name.
        for base, owner in COUNTER_OWNERS.items():
            assert "/" not in owner
            assert counter_base(base) == base


class TestCapture:
    def test_null_registry_adds_no_counters(self):
        capture = Capture(profile=True, registry=NULL_REGISTRY)
        with capture:
            with get_tracer().span("slot_admission"):
                pass
        assert capture.digest.counters == {}
        assert [e["kind"] for e in capture.events] == ["span"]
        assert capture.digest.spans["slot_admission"].calls == 1
        assert capture.stats

    def test_memory_only_capture_has_no_digest(self):
        capture = Capture(profile_mem=True, registry=MetricsRegistry())
        with capture:
            blocks = [bytearray(1024) for _ in range(64)]
        assert blocks and capture.memory
        assert capture.tracer is None
        assert capture.digest is None and capture.stats is None

    def test_tracer_is_installed_only_inside(self):
        capture = Capture(trace=True)
        with capture:
            assert get_tracer() is capture.tracer
        assert get_tracer() is not capture.tracer
        assert capture.digest is None


class TestSeriesIds:
    def test_series_id_sorts_labels(self):
        digest = digest_from_events([
            {"kind": "counter", "name": "c", "labels": {"b": 1, "a": 2},
             "value": 1.0},
            {"kind": "counter", "name": "c", "labels": {}, "value": 1.0}])
        assert sorted(digest.counters) == ["c", 'c{a="2",b="1"}']
        assert series_name("c", (("a", 2), ("b", 1))) == 'c{a="2",b="1"}'
        assert series_name("c", ()) == "c"

    def test_counter_base_strips_labels(self):
        assert counter_base('c{a="1"}') == "c"
        assert counter_base("plain") == "plain"


class TestMergeAndCanonical:
    def test_merge_sums_calls_and_counters(self):
        one = digest_from_events(traced_run())
        two = merge_digests([one, digest_from_events(traced_run())])
        assert two.runs == 2
        assert two.spans["offline_run"].calls == 2
        assert two.counters['lp_solves_total{mode="cold"}'] == 2

    def test_merge_accepts_dicts(self):
        one = digest_from_events(traced_run())
        again = merge_digests([one.to_dict()])
        assert canonical_digest(again) == canonical_digest(one)

    def test_min_max_merge(self):
        a = SpanProfile("s", calls=1, total_s=1.0, self_s=1.0,
                        min_s=1.0, max_s=1.0)
        b = SpanProfile("s", calls=1, total_s=3.0, self_s=3.0,
                        min_s=3.0, max_s=3.0)
        a.absorb(b)
        assert a.min_s == 1.0 and a.max_s == 3.0 and a.calls == 2

    def test_canonical_strips_wall_clock_fields(self):
        canon = canonical_digest(digest_from_events(traced_run()))
        for row in canon["spans"].values():
            assert set(row) == {"calls"}
        assert "top_level_s" not in canon
        assert canon["schema"] == DIGEST_SCHEMA

    def test_round_trip(self):
        digest = digest_from_events(traced_run())
        rebuilt = ProfileDigest.from_dict(
            json.loads(json.dumps(digest.to_dict())))
        assert rebuilt.to_dict() == digest.to_dict()

    def test_malformed_digest_raises_configuration_error(self):
        with pytest.raises(ConfigurationError):
            ProfileDigest.from_dict({"spans": {"a": "nonsense"}})


class TestRender:
    def test_render_orders_by_self_time(self):
        text = render_digest(digest_from_events(traced_run()))
        lines = text.splitlines()
        first = next(line for line in lines[1:] if line.strip())
        assert first.startswith("offline_run ")
        assert "[lp_solve]" in text  # owner tag on joined counters

    def test_counter_tagged_only_with_a_span_in_the_digest(self):
        # An offline run counts engine events but has no
        # slot_admission span: its counters stay untagged.
        digest = digest_from_events(traced_run())
        digest.counters["engine_arrivals_total"] = 4500.0
        lines = render_digest(digest).splitlines()
        assert any(line.strip() == "engine_arrivals_total = 4500"
                   for line in lines)
        assert not any("[slot_admission]" in line for line in lines)
        assert any("lp_solves_total{mode=\"cold\"} = 1 [lp_solve]"
                   in line for line in lines)

    def test_render_markdown(self):
        text = render_digest(digest_from_events(traced_run()),
                             markdown=True)
        assert text.splitlines()[0].startswith("| span path |")


class TestProfileSetIO:
    def test_write_and_load(self, tmp_path):
        digest = digest_from_events(traced_run())
        path = tmp_path / "PROF_x.json"
        write_profile_set(path, {"Appro": digest})
        data = json.loads(path.read_text())
        assert data["schema"] == PROFILE_SET_SCHEMA
        loaded = load_profile_set(path)
        assert canonical_digest(loaded["Appro"]) \
            == canonical_digest(digest)

    def test_load_bare_digest(self, tmp_path):
        digest = digest_from_events(traced_run())
        path = tmp_path / "digest.json"
        path.write_text(json.dumps(digest.to_dict()))
        loaded = load_profile_set(path)
        assert list(loaded) == ["profile"]

    def test_load_bench_manifest_profiles(self, tmp_path):
        from repro.telemetry.ledger import RunManifest, write_bench
        digest = digest_from_events(traced_run())
        manifest = RunManifest(
            name="fig3", created_at="2026-08-08T00:00:00Z",
            git_rev="deadbeef", config_hash="abc", seeds=(0,),
            workers=1, python_version="3.11", numpy_version="1.26",
            platform="test", peak_rss_kb=None,
            phases={}, metrics={},
            profiles={"Appro": digest.to_dict()})
        path = tmp_path / "BENCH_fig3.json"
        write_bench(path, manifest)
        loaded = load_profile_set(path)
        assert "Appro" in loaded

    def test_load_without_digests_raises(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"schema": PROFILE_SET_SCHEMA,
                                    "digests": {}}))
        with pytest.raises(ConfigurationError):
            load_profile_set(path)


def _busy_profile():
    profiler = cProfile.Profile()
    profiler.enable()
    sum(i * i for i in range(2000))
    sorted(range(500), key=lambda v: -v)
    profiler.disable()
    return profiler


class TestStats:
    def test_capture_stats_is_picklable_shape(self):
        stats = capture_stats(_busy_profile())
        assert stats
        for func_id, row in stats.items():
            assert isinstance(func_id, str)
            assert {"calls", "prim", "tt", "ct"} <= set(row)
            json.dumps(row)  # plain data, no Stats objects

    def test_merge_stats_sums(self):
        one = capture_stats(_busy_profile())
        merged = merge_stats([one, one])
        some = next(iter(one))
        assert merged[some]["calls"] == 2 * one[some]["calls"]

    def test_top_functions(self):
        rows = top_functions(capture_stats(_busy_profile()), top=5)
        assert 0 < len(rows) <= 5

    def test_folded_lines_have_weights(self, tmp_path):
        lines = folded_from_stats(capture_stats(_busy_profile()))
        assert lines
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert int(weight) >= 1
            assert stack
        out = write_folded(tmp_path / "p.folded", lines)
        assert out.read_text().count("\n") == len(lines)

    def test_folded_from_digest(self):
        lines = folded_from_digest(digest_from_events(traced_run()))
        stacks = {line.rsplit(" ", 1)[0] for line in lines}
        assert "offline_run;lp_solve;lp_solve" in stacks


class TestMemory:
    def test_capture_and_merge(self):
        own = not tracemalloc.is_tracing()
        if own:
            tracemalloc.start()
        try:
            blob = [bytes(1000) for _ in range(50)]
            rows = capture_memory_top(tracemalloc.take_snapshot(),
                                      top=10)
        finally:
            del blob
            if own:
                tracemalloc.stop()
        assert rows and all({"site", "size_kb", "count"} <= set(r)
                            for r in rows)
        merged = merge_memory([rows, rows], top=5)
        assert len(merged) <= 5
        assert merged[0]["size_kb"] >= merged[-1]["size_kb"]
        assert "allocation site" in render_memory_top(merged)

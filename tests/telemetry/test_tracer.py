"""Unit tests for the tracer core: spans and the null tracer."""

import pytest

from repro.telemetry import (NULL_TRACER, NullTracer, Tracer, get_tracer,
                             set_tracer, use_tracer)


class FakeClock:
    """Deterministic clock: every call advances by `step` seconds."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


class TestSpans:
    def test_span_records_duration(self):
        tracer = Tracer(clock=FakeClock(step=1.0))
        with tracer.span("work"):
            pass
        (event,) = [e for e in tracer.events() if e["kind"] == "span"]
        assert event["name"] == "work"
        assert event["duration_s"] == pytest.approx(1.0)
        assert event["parent"] is None
        assert event["depth"] == 0

    def test_nesting_tracks_parent_and_depth(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        spans = [e for e in tracer.events() if e["kind"] == "span"]
        outer = next(e for e in spans if e["name"] == "outer")
        inners = [e for e in spans if e["name"] == "inner"]
        assert outer["seq"] == 0
        assert all(e["parent"] == 0 and e["depth"] == 1 for e in inners)
        # Start order, not completion order.
        assert [e["name"] for e in spans] == ["outer", "inner", "inner"]

    def test_labels_recorded(self):
        tracer = Tracer()
        with tracer.span("lp_solve", backend="scipy"):
            pass
        (event,) = tracer.events()
        assert event["labels"] == {"backend": "scipy"}

    def test_exception_propagates_and_span_closes(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        assert tracer.open_spans == 0
        (event,) = tracer.events()
        assert event["duration_s"] > 0

    def test_clear(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.clear()
        assert tracer.events() == []

    def test_events_are_deterministically_ordered(self):
        def build():
            tracer = Tracer(clock=FakeClock())
            with tracer.span("s"):
                pass
            with tracer.span("t"):
                pass
            return tracer.events()

        assert build() == build()
        assert [(e["kind"], e["name"]) for e in build()] \
            == [("span", "s"), ("span", "t")]


class TestNullTracer:
    def test_span_is_shared_noop(self):
        null = NullTracer()
        span = null.span("anything", label=1)
        assert span is null.span("other")
        with span:
            pass
        assert null.events() == []

    def test_enabled_flags(self):
        assert Tracer().enabled is True
        assert NullTracer().enabled is False


class TestCurrentTracer:
    def test_default_is_null(self):
        assert get_tracer() is NULL_TRACER

    def test_set_and_reset(self):
        tracer = Tracer()
        try:
            assert set_tracer(tracer) is tracer
            assert get_tracer() is tracer
        finally:
            set_tracer(None)
        assert get_tracer() is NULL_TRACER

    def test_use_tracer_restores_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with use_tracer(tracer):
                assert get_tracer() is tracer
                raise RuntimeError("x")
        assert get_tracer() is NULL_TRACER

    def test_instrumented_code_records_through_current(self):
        from repro.solver.model import LinearProgram
        from repro.solver.interface import solve_lp

        lp = LinearProgram(name="t", maximize=True)
        lp.add_variable("x", low=0.0, high=1.0, objective=1.0)
        tracer = Tracer()
        with use_tracer(tracer):
            solve_lp(lp)
        spans = [e for e in tracer.events() if e["kind"] == "span"]
        assert any(e["name"] == "lp_solve"
                   and e["labels"] == {"backend": "scipy"}
                   for e in spans)

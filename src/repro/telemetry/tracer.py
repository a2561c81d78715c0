"""Process-local tracer: nested, labelled wall-clock spans.

A :class:`Tracer` records **spans** - nested, labelled wall-clock
intervals opened with ``with tracer.span("lp_solve", backend="scipy"):``.
Spans carry their start order (``seq``), nesting ``depth``, and the
``seq`` of their parent, so an exporter can reconstruct the call tree
and a summary can compute exclusive (self) time.

Spans are all a tracer keeps.  Counts live in the metrics registry
(:mod:`repro.telemetry.metrics`), and what was decided - the bandit's
threshold, eliminations and rewards among it - in the decision journal
(:mod:`repro.telemetry.audit`).  A profiled or traced run's trace is
the tracer's spans followed by the registry's counters
(:class:`~repro.telemetry.profiling.Capture`).

**Determinism convention.**  Everything a span records except
``start_s`` / ``duration_s`` is a deterministic function of the run's
seed, so the *canonical* form of a trace
(:func:`repro.telemetry.export.canonical_events`) is bit-identical
between serial and parallel sweep executions.

The module-level *current tracer* defaults to :data:`NULL_TRACER`, a
no-op whose ``span()`` returns a shared, state-free context manager -
untraced runs pay one attribute lookup and one call per
instrumentation point and allocate nothing.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional


class _SpanContext:
    """Context manager for one live span of a real :class:`Tracer`."""

    __slots__ = ("_tracer", "_record")

    def __init__(self, tracer: "Tracer", record: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._record = record

    def __enter__(self) -> "_SpanContext":
        tracer = self._tracer
        record = self._record
        record["depth"] = len(tracer._stack)
        record["parent"] = (tracer._stack[-1] if tracer._stack
                            else None)
        tracer._stack.append(record["seq"])
        record["start_s"] = tracer._clock()
        return self

    def __exit__(self, *exc) -> bool:
        record = self._record
        record["duration_s"] = (self._tracer._clock()
                                - record["start_s"])
        self._tracer._stack.pop()
        return False


class _NullSpan:
    """Shared no-op context manager returned by :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The zero-overhead default: every operation is a no-op.

    ``span()`` hands back one shared context manager, so untraced hot
    paths allocate nothing and execute two bytecode-cheap calls per
    instrumentation point.
    """

    enabled = False

    def span(self, name: str, **labels) -> _NullSpan:
        """Return the shared no-op span."""
        return _NULL_SPAN

    def events(self) -> List[Dict[str, Any]]:
        """A null tracer never has events."""
        return []

    def __repr__(self) -> str:
        return "NullTracer()"


class Tracer:
    """Collects spans.

    Args:
        clock: monotonic time source (seconds); injectable for tests.
    """

    enabled = True

    def __init__(self,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str, **labels) -> _SpanContext:
        """Open a labelled span; use as a context manager.

        The span is appended to the event stream in *start* order
        (``seq``), which is deterministic for a deterministic run; its
        ``duration_s`` is filled in on exit.  Exceptions propagate (the
        span still records its duration).
        """
        record: Dict[str, Any] = {
            "kind": "span",
            "name": name,
            "labels": dict(labels),
            "seq": len(self._spans),
            "depth": 0,
            "parent": None,
            "start_s": 0.0,
            "duration_s": 0.0,
        }
        self._spans.append(record)
        return _SpanContext(self, record)

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    @property
    def open_spans(self) -> int:
        """Currently un-exited spans (0 between instrumented calls)."""
        return len(self._stack)

    def events(self) -> List[Dict[str, Any]]:
        """The spans as a flat, JSON-serializable list in start order
        (a deterministic order for a deterministic run)."""
        return [dict(span) for span in self._spans]

    def clear(self) -> None:
        """Drop everything recorded so far."""
        self._spans.clear()
        self._stack.clear()

    def __repr__(self) -> str:
        return f"Tracer(spans={len(self._spans)})"


#: The shared no-op tracer (also the initial current tracer).
NULL_TRACER = NullTracer()

_current = NULL_TRACER


def get_tracer():
    """The process-local current tracer (:data:`NULL_TRACER` default)."""
    return _current


def set_tracer(tracer: Optional[Tracer]):
    """Install ``tracer`` as current (None restores the null tracer).

    Returns:
        The tracer now current.
    """
    global _current
    _current = tracer if tracer is not None else NULL_TRACER
    return _current


@contextmanager
def use_tracer(tracer: Optional[Tracer]) -> Iterator[Any]:
    """Temporarily install a tracer; always restores the previous one."""
    previous = _current
    set_tracer(tracer)
    try:
        yield get_tracer()
    finally:
        set_tracer(previous)

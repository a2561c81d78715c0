"""Process-local tracer: nested spans, counters, value records.

A :class:`Tracer` collects three kinds of telemetry from an
instrumented run:

* **spans** - nested, labelled wall-clock intervals opened with
  ``with tracer.span("lp_solve", backend="scipy"):``.  Spans carry
  their start order (``seq``), nesting ``depth``, and the ``seq`` of
  their parent, so an exporter can reconstruct the call tree and a
  summary can compute exclusive (self) time;
* **counters** - monotonic event counts (``tracer.count("drops")``,
  ``tracer.count("bnb_nodes", 17)``) keyed by name + labels;
* **values** - deterministic numeric observations
  (``tracer.observe("threshold_mhz", 600.0)``) whose full sample list
  is retained for distribution summaries (mean/p95).

**Determinism convention.**  Everything a tracer records except span
``start_s`` / ``duration_s`` must be a deterministic function of the
run's seed: never ``observe()`` a wall-clock quantity (spans already
measure time).  Under this convention the *canonical* form of a trace
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
from typing import (Any, Callable, Dict, Iterator, List, Mapping, Optional,
                    Tuple)

#: Label set in canonical (sorted tuple) form.
LabelKey = Tuple[Tuple[str, Any], ...]


def label_key(labels: Mapping[str, Any]) -> LabelKey:
    """A label set in canonical form (the tracer's and the registry's)."""
    return tuple(sorted(labels.items()))


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

    def count(self, name: str, value: float = 1.0, **labels) -> None:
        """Discard a counter increment."""

    def observe(self, name: str, value: float, **labels) -> None:
        """Discard a value observation."""

    def events(self) -> List[Dict[str, Any]]:
        """A null tracer never has events."""
        return []

    def __repr__(self) -> str:
        return "NullTracer()"


class Tracer:
    """Collects spans, counters, and value observations.

    Args:
        clock: monotonic time source (seconds); injectable for tests.
    """

    enabled = True

    def __init__(self,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._counters: Dict[Tuple[str, LabelKey], float] = {}
        self._values: Dict[Tuple[str, LabelKey], List[float]] = {}

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

    def count(self, name: str, value: float = 1.0, **labels) -> None:
        """Add ``value`` to the monotonic counter ``name`` + labels."""
        key = (name, label_key(labels))
        self._counters[key] = self._counters.get(key, 0.0) + float(value)

    def observe(self, name: str, value: float, **labels) -> None:
        """Append one numeric observation to ``name`` + labels.

        Observe only run-deterministic quantities (see the module
        docstring); wall-clock belongs in spans.
        """
        self._values.setdefault((name, label_key(labels)),
                                []).append(float(value))

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    @property
    def open_spans(self) -> int:
        """Currently un-exited spans (0 between instrumented calls)."""
        return len(self._stack)

    def counter(self, name: str, **labels) -> float:
        """Current value of one counter (0.0 when never incremented)."""
        return self._counters.get((name, label_key(labels)), 0.0)

    def observations(self, name: str, **labels) -> List[float]:
        """The recorded observations of one value series."""
        return list(self._values.get((name, label_key(labels)), []))

    def events(self) -> List[Dict[str, Any]]:
        """The trace as a flat, JSON-serializable event list.

        Spans come first in start order, then counters, then value
        series, both sorted by (name, labels) - a deterministic order
        for a deterministic run.
        """
        out: List[Dict[str, Any]] = [dict(span) for span in self._spans]
        for (name, labels) in sorted(self._counters):
            out.append({"kind": "counter", "name": name,
                        "labels": dict(labels),
                        "value": self._counters[(name, labels)]})
        for (name, labels) in sorted(self._values):
            out.append({"kind": "value", "name": name,
                        "labels": dict(labels),
                        "values": list(self._values[(name, labels)])})
        return out

    def clear(self) -> None:
        """Drop everything recorded so far."""
        self._spans.clear()
        self._stack.clear()
        self._counters.clear()
        self._values.clear()

    def __repr__(self) -> str:
        return (f"Tracer(spans={len(self._spans)}, "
                f"counters={len(self._counters)}, "
                f"values={len(self._values)})")


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

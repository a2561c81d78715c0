"""Trace aggregation and the per-phase breakdown table.

Answers "where did the milliseconds go": spans are aggregated by name
(count, total / mean / p95 wall time, exclusive *self* time), counters
and value series are totalled, and the result renders as a plain-text
or Markdown table sorted by total time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Dict, Iterable, List, Mapping, Optional,
                    Tuple)

import numpy as np

#: Annotation fields that distinguish runs inside a merged trace (see
#: :func:`repro.telemetry.export.collect_sweep_trace`); parent links
#: are only meaningful within one run.
RUN_KEY_FIELDS = ("figure", "run")


def percentile_linear(data, q: float) -> float:
    """``np.percentile`` with the interpolation method pinned.

    Pinning ``"linear"`` explicitly keeps p95 tables byte-stable across
    NumPy versions (and documents which estimator the summary uses).
    """
    return float(np.percentile(data, q, method="linear"))


@dataclass
class SpanStats:
    """Aggregate statistics of one span name."""

    name: str
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: List[float] = field(default_factory=list)

    @property
    def mean_s(self) -> float:
        """Mean wall time per call (0 when never opened)."""
        if not self.durations:
            return 0.0
        return sum(self.durations) / len(self.durations)

    @property
    def min_s(self) -> float:
        """Fastest single call (0 when never opened)."""
        return min(self.durations) if self.durations else 0.0

    @property
    def max_s(self) -> float:
        """Slowest single call (0 when never opened)."""
        return max(self.durations) if self.durations else 0.0

    @property
    def p95_s(self) -> float:
        """95th-percentile wall time per span (0 when never opened).

        Linear interpolation, pinned explicitly so the estimate cannot
        drift with the NumPy default (see :func:`percentile_linear`).
        """
        if not self.durations:
            return 0.0
        return percentile_linear(self.durations, 95)


@dataclass
class TraceSummary:
    """The aggregated view of one (possibly merged) trace."""

    spans: Dict[str, SpanStats]
    counters: Dict[str, float]
    values: Dict[str, List[float]]
    #: Wall time of top-level (parentless) spans - the denominator of
    #: the attribution percentages.
    top_level_s: float

    def attributed_fraction(self, total_s: Optional[float] = None
                            ) -> float:
        """Fraction of ``total_s`` covered by top-level spans.

        With no ``total_s`` the fraction is 1.0 whenever any top-level
        span exists (the trace covers itself).
        """
        if total_s is None or total_s <= 0:
            return 1.0 if self.top_level_s > 0 else 0.0
        return min(1.0, self.top_level_s / total_s)


def run_key(event: Mapping[str, Any]) -> Tuple[Any, ...]:
    """The run a (possibly merged) trace event belongs to."""
    return tuple(event.get(key) for key in RUN_KEY_FIELDS)


def span_index(span_events: Iterable[Mapping[str, Any]]
               ) -> Tuple[Dict[Tuple[Any, ...], Mapping[str, Any]],
                          Dict[Tuple[Any, ...], float]]:
    """Spans by ``run key + seq``, and each span's direct-child time.

    Parent links resolve per run: merged traces reuse ``seq`` across
    runs.  Returns ``(by_seq, child_s)``, both keyed by
    ``run_key(event) + (seq,)``.
    """
    by_seq: Dict[Tuple[Any, ...], Mapping[str, Any]] = {}
    child_s: Dict[Tuple[Any, ...], float] = {}
    for event in span_events:
        run = run_key(event)
        by_seq[run + (event.get("seq"),)] = event
        if event.get("parent") is not None:
            key = run + (event["parent"],)
            child_s[key] = (child_s.get(key, 0.0)
                            + float(event.get("duration_s", 0.0)))
    return by_seq, child_s


def _has_same_name_ancestor(
        event: Dict[str, Any],
        by_seq: Mapping[Tuple[Any, ...], Mapping[str, Any]]) -> bool:
    """True when a span of the same name encloses ``event``."""
    name = event["name"]
    run = run_key(event)
    parent = event.get("parent")
    hops = 0
    while parent is not None and hops < len(by_seq) + 1:
        ancestor = by_seq.get(run + (parent,))
        if ancestor is None:
            return False
        if ancestor["name"] == name:
            return True
        parent = ancestor.get("parent")
        hops += 1
    return False


def summarize_events(events: Iterable[Dict[str, Any]]) -> TraceSummary:
    """Aggregate a trace event stream.

    Span self time subtracts each span's *direct* children from its
    duration, resolving parent links per run (merged traces reuse
    ``seq`` across runs).  Re-entrant spans - a name nested inside
    itself, e.g. a recursive ``lp_solve`` - accumulate ``total_s``
    only at their outermost occurrence (the outer duration already
    contains the inner one), so a name's total and its share of the
    run can never exceed wall time; ``count`` and the per-call
    duration distribution (mean / p95 / min / max) still see every
    call.  Counter and value events with the same name are totalled /
    concatenated across runs.
    """
    spans: Dict[str, SpanStats] = {}
    counters: Dict[str, float] = {}
    values: Dict[str, List[float]] = {}
    span_events: List[Dict[str, Any]] = []
    for event in events:
        kind = event.get("kind")
        if kind == "span":
            span_events.append(event)
        elif kind == "counter":
            name = event["name"]
            counters[name] = counters.get(name, 0.0) + event["value"]
        elif kind == "value":
            values.setdefault(event["name"],
                              []).extend(event["values"])

    by_seq, child_s = span_index(span_events)
    top_level_s = 0.0
    for event in span_events:
        stats = spans.setdefault(event["name"], SpanStats(event["name"]))
        duration = event.get("duration_s", 0.0)
        stats.count += 1
        if not _has_same_name_ancestor(event, by_seq):
            stats.total_s += duration
        stats.durations.append(duration)
        key = run_key(event) + (event["seq"],)
        stats.self_s += max(0.0, duration - child_s.get(key, 0.0))
        if event.get("parent") is None:
            top_level_s += duration
    return TraceSummary(spans=spans, counters=counters, values=values,
                        top_level_s=top_level_s)


def table_lines(header: List[str], rows: List[List[str]],
                markdown: bool = False,
                empty: Optional[str] = None) -> List[str]:
    """A table's header, Markdown rule and rows, one string each.

    Plain text left-aligns the first column and right-aligns the rest
    to the widest cell; Markdown emits pipe rows under a ``|---`` rule.
    ``empty`` (when given) stands in for the rows of an empty table.
    Every telemetry and report table renders through here.
    """
    widths = [max(len(header[i]), *(len(r[i]) for r in rows))
              if rows else len(header[i]) for i in range(len(header))]

    def fmt(cells: List[str]) -> str:
        if markdown:
            return "| " + " | ".join(cells) + " |"
        return "  ".join(cell.rjust(width) if i else cell.ljust(width)
                         for i, (cell, width)
                         in enumerate(zip(cells, widths)))

    lines = [fmt(header)]
    if markdown:
        lines.append("|---" * len(header) + "|")
    lines.extend(fmt(row) for row in rows)
    if not rows and empty is not None:
        lines.append(empty)
    return lines


def list_lines(title: str, items: Iterable[str],
               markdown: bool = False) -> List[str]:
    """A blank line, then a titled list: ``title:`` over indented
    items, or a bold title over bullets in Markdown."""
    return (["", f"**{title.capitalize()}**" if markdown
             else f"{title}:"]
            + [f"- {item}" if markdown else f"  {item}" for item in items])


def render_summary(events: Iterable[Dict[str, Any]],
                   total_s: Optional[float] = None,
                   markdown: bool = False) -> str:
    """Render the per-phase breakdown of a trace.

    Args:
        events: a trace event stream (merged sweeps welcome).
        total_s: run wall time the percentages are taken against; the
            top-level span total when None.
        markdown: emit a Markdown table instead of aligned text.

    Returns:
        A table of spans (call count, total / mean / p95 / min / max /
        self wall time, share of total) sorted by total time, followed
        by counters and value series when present.
    """
    summary = summarize_events(events)
    denominator = total_s if total_s and total_s > 0 \
        else summary.top_level_s
    header = ["span", "count", "total_ms", "mean_ms", "p95_ms",
              "min_ms", "max_ms", "self_ms", "%"]
    rows: List[List[str]] = []
    ordered = sorted(summary.spans.values(),
                     key=lambda s: (-s.total_s, s.name))
    for stats in ordered:
        share = (100.0 * stats.total_s / denominator
                 if denominator > 0 else 0.0)
        rows.append([stats.name, str(stats.count),
                     f"{stats.total_s * 1e3:.2f}",
                     f"{stats.mean_s * 1e3:.3f}",
                     f"{stats.p95_s * 1e3:.3f}",
                     f"{stats.min_s * 1e3:.3f}",
                     f"{stats.max_s * 1e3:.3f}",
                     f"{stats.self_s * 1e3:.2f}",
                     f"{share:.1f}"])
    lines = table_lines(header, rows, markdown, "(no spans recorded)")

    if summary.counters:
        lines += list_lines("counters", (
            f"{name} = {summary.counters[name]:g}"
            for name in sorted(summary.counters)), markdown)
    if summary.values:
        arrays = {name: np.asarray(summary.values[name], dtype=float)
                  for name in sorted(summary.values)}
        lines += list_lines("values", (
            f"{name}: n={data.size} mean={data.mean():g} "
            f"min={data.min():g} max={data.max():g}"
            for name, data in arrays.items()), markdown)
    return "\n".join(lines)

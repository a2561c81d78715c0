"""Trace-indexing and table helpers shared by the telemetry renderers.

:func:`span_index` resolves the parent links of a (possibly merged)
trace per run, and :func:`table_lines` / :func:`list_lines` lay out
every telemetry and report table.  The one aggregation of span events
is :func:`repro.telemetry.profiling.digest_from_events`; the
``--trace-summary`` breakdown and the report's Telemetry section
render its :class:`~repro.telemetry.profiling.ProfileDigest`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

#: Annotation fields that distinguish runs inside a merged trace (see
#: :func:`repro.telemetry.export.collect_sweep_trace`); parent links
#: are only meaningful within one run.
RUN_KEY_FIELDS = ("figure", "run")


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

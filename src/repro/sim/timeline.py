"""ASCII timeline rendering of decision journals.

Turns a run's journal records (:meth:`repro.telemetry.audit.Journal.events`
or :func:`repro.telemetry.export.read_jsonl` dicts) into a compact
per-event narrative or a strip chart of event density - used by the
examples and handy when debugging a policy's behaviour slot by slot.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from ..exceptions import ConfigurationError
from .events import EventKind

Record = Mapping[str, Any]


def render_record(record: Record) -> str:
    """One journal record as a line, e.g. ``t=   5 complete r1 @bs3
    reward=42.0 latency=120ms``."""
    kind = record["kind"]
    parts = [f"t={record['slot']:4d}", kind]
    if "request" in record:
        parts.append(f"r{record['request']}")
    if "src" in record:
        parts.append(f"bs{record['src']}->")
    if "station" in record:
        parts.append(f"@bs{record['station']}")
    if "arm" in record:
        parts.append(f"arm={record['arm']}")
    if kind == EventKind.COMPLETE.value:
        parts.append(f"reward={record['reward']:.1f}")
        if "latency_ms" in record:
            parts.append(f"latency={record['latency_ms']:.0f}ms")
    return " ".join(parts)


def narrate(records: Sequence[Record], first_slot: int = 0,
            last_slot: Optional[int] = None,
            max_lines: int = 200) -> str:
    """A per-event textual narrative of a slot window.

    Args:
        records: the run's journal records.
        first_slot: first slot to include.
        last_slot: last slot to include (None = everything).
        max_lines: truncate long narratives (an ellipsis line notes
            how many events were dropped).
    """
    if first_slot < 0:
        raise ConfigurationError(
            f"first_slot must be >= 0, got {first_slot}")
    window = [r for r in records
              if r["slot"] >= first_slot
              and (last_slot is None or r["slot"] <= last_slot)]
    lines = [render_record(record) for record in window[:max_lines]]
    if len(window) > max_lines:
        lines.append(f"... ({len(window) - max_lines} more events)")
    return "\n".join(lines)


def activity_per_slot(records: Iterable[Record],
                      horizon_slots: int) -> Dict[str, List[int]]:
    """Per-slot counts of each event kind.

    Returns:
        kind name -> list of counts indexed by slot.
    """
    if horizon_slots < 1:
        raise ConfigurationError(
            f"horizon must be >= 1, got {horizon_slots}")
    counts = {kind.value: [0] * horizon_slots for kind in EventKind}
    for record in records:
        if 0 <= record["slot"] < horizon_slots:
            counts[record["kind"]][record["slot"]] += 1
    return counts


def strip_chart(records: Iterable[Record], horizon_slots: int,
                width: int = 60) -> str:
    """A fixed-width strip chart: dominant event glyph per time bucket.

    Buckets the horizon into `width` columns; each column shows the
    glyph of the most frequent event kind in its bucket ('.' when the
    bucket is quiet).  A legend line follows.
    """
    if width < 1:
        raise ConfigurationError(f"width must be >= 1, got {width}")
    counts = activity_per_slot(records, horizon_slots)
    columns = []
    for col in range(min(width, horizon_slots)):
        lo = col * horizon_slots // min(width, horizon_slots)
        hi = ((col + 1) * horizon_slots // min(width, horizon_slots))
        best_kind, best_count = None, 0
        for kind in EventKind:
            total = sum(counts[kind.value][lo:max(hi, lo + 1)])
            if total > best_count:
                best_kind, best_count = kind, total
        columns.append(best_kind.spec.glyph if best_kind else ".")
    legend = " ".join(f"{kind.spec.glyph}={kind.value}"
                      for kind in EventKind)
    return "".join(columns) + "\n" + legend


def kind_totals(records: Iterable[Record]) -> Dict[str, int]:
    """Total count per event kind (all kinds present, zero-filled)."""
    totals = {kind.value: 0 for kind in EventKind}
    for record in records:
        totals[record["kind"]] += 1
    return totals

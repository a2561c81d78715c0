"""ASCII timeline rendering of online-engine event logs.

Turns the engine's event list into a compact per-slot narrative or a
station-occupancy strip chart - used by the examples and handy when
debugging a policy's behaviour slot by slot.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..exceptions import ConfigurationError
from .events import Event, EventKind

def narrate(events: Sequence[Event], first_slot: int = 0,
            last_slot: Optional[int] = None,
            max_lines: int = 200) -> str:
    """A per-event textual narrative of a slot window.

    Args:
        events: the engine's event log.
        first_slot: first slot to include.
        last_slot: last slot to include (None = everything).
        max_lines: truncate long narratives (an ellipsis line notes
            how many events were dropped).
    """
    if first_slot < 0:
        raise ConfigurationError(
            f"first_slot must be >= 0, got {first_slot}")
    window = [e for e in events
              if e.slot >= first_slot
              and (last_slot is None or e.slot <= last_slot)]
    lines = [str(event) for event in window[:max_lines]]
    if len(window) > max_lines:
        lines.append(f"... ({len(window) - max_lines} more events)")
    return "\n".join(lines)


def activity_per_slot(events: Sequence[Event],
                      horizon_slots: int) -> Dict[str, List[int]]:
    """Per-slot counts of each event kind.

    Returns:
        kind name -> list of counts indexed by slot.
    """
    if horizon_slots < 1:
        raise ConfigurationError(
            f"horizon must be >= 1, got {horizon_slots}")
    counts = {kind.value: [0] * horizon_slots for kind in EventKind}
    for event in events:
        if 0 <= event.slot < horizon_slots:
            counts[event.kind.value][event.slot] += 1
    return counts


def strip_chart(events: Sequence[Event], horizon_slots: int,
                width: int = 60) -> str:
    """A fixed-width strip chart: dominant event glyph per time bucket.

    Buckets the horizon into `width` columns; each column shows the
    glyph of the most frequent event kind in its bucket ('.' when the
    bucket is quiet).  A legend line follows.
    """
    if width < 1:
        raise ConfigurationError(f"width must be >= 1, got {width}")
    counts = activity_per_slot(events, horizon_slots)
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


def summarize_events(events: Sequence[Event]) -> Dict[str, int]:
    """Total count per event kind (all kinds present, zero-filled)."""
    totals = {kind.value: 0 for kind in EventKind}
    for event in events:
        totals[event.kind.value] += 1
    return totals

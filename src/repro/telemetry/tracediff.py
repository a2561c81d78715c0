"""Localize the first divergence between two decision journals.

``python -m repro.experiments trace-diff A.jsonl B.jsonl`` aligns two
journals event by event and, when they disagree, prints the first
divergent event with +/- k events of context and a per-key field diff.
It exits through the shell of :mod:`repro.telemetry.diffcore`: 0 when
the journals are identical, 1 when they diverge, 2 on unusable input
or two empty journals (nothing compared).

Because journals are canonical (wall-clock-free, deterministic
emission order, JSONL round-trip-stable field encoding), a serial and
a ``--workers N`` run of the same spec must produce byte-identical
journals; trace-diff turns "the blind assert failed" into "these two
runs disagreed at event 1234, and here is the decision each made".
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, List, Mapping, Optional, Sequence, Tuple

from .diffcore import check_non_negative, run_cli, verdict
from .export import read_jsonl


def first_divergence(a: Sequence[Mapping[str, Any]],
                     b: Sequence[Mapping[str, Any]]
                     ) -> Optional[int]:
    """Index of the first event where the journals disagree.

    Returns None when the journals are identical.  If one journal is a
    strict prefix of the other, the divergence is at the shorter
    length (the first event only one side has).
    """
    for index in range(min(len(a), len(b))):
        if dict(a[index]) != dict(b[index]):
            return index
    if len(a) != len(b):
        return min(len(a), len(b))
    return None


def _field_diff(a: Mapping[str, Any], b: Mapping[str, Any]
                ) -> List[str]:
    """Per-key differences between two event dicts."""
    lines = []
    for key in sorted(set(a) | set(b)):
        left = a.get(key, "<absent>")
        right = b.get(key, "<absent>")
        if left != right:
            lines.append(f"    {key}: {left!r} != {right!r}")
    return lines


def _render_event(event: Optional[Mapping[str, Any]]) -> str:
    if event is None:
        return "<end of journal>"
    return json.dumps(event, sort_keys=True)


def render_divergence(a: Sequence[Mapping[str, Any]],
                      b: Sequence[Mapping[str, Any]],
                      index: int, context: int = 3,
                      names: Tuple[str, str] = ("A", "B")) -> str:
    """The localization report: context, the split, and a field diff."""
    lines = [f"journals diverge at event {index} "
             f"({names[0]}: {len(a)} events, {names[1]}: "
             f"{len(b)} events)"]
    lo = max(0, index - context)
    if lo > 0:
        lines.append(f"  ... {lo} matching event(s) omitted ...")
    for i in range(lo, index):
        lines.append(f"  = [{i}] {_render_event(a[i])}")
    left = a[index] if index < len(a) else None
    right = b[index] if index < len(b) else None
    lines.append(f"  < [{index}] {_render_event(left)}")
    lines.append(f"  > [{index}] {_render_event(right)}")
    if left is not None and right is not None:
        lines.extend(_field_diff(left, right))
    hi = min(min(len(a), len(b)), index + 1 + context)
    for i in range(index + 1, hi):
        marker = "=" if dict(a[i]) == dict(b[i]) else "~"
        lines.append(f"  {marker} [{i}] {_render_event(a[i])}")
        if marker == "~":
            lines.append(f"  ~ [{i}] {_render_event(b[i])}")
    return "\n".join(lines)


def diff_journals(a: Sequence[Mapping[str, Any]],
                  b: Sequence[Mapping[str, Any]],
                  context: int = 3,
                  names: Tuple[str, str] = ("A", "B")
                  ) -> Tuple[int, str]:
    """Compare two in-memory journals.

    Returns:
        ``(exit_code, report)`` - 0 with a one-line confirmation, 1
        with the localization, or 2 when both journals are empty.

    Raises:
        ConfigurationError: on a negative ``context``.
    """
    check_non_negative(context=context)
    index = first_divergence(a, b)
    code = verdict(len(a) + len(b), index is not None)
    if index is not None:
        return code, render_divergence(a, b, index, context=context,
                                       names=names)
    if not a:
        return code, "journals are both empty - nothing to compare"
    return code, f"journals identical ({len(a)} events)"


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point (``python -m repro.experiments trace-diff``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments trace-diff",
        description="Align two decision journals (JSONL) and localize "
                    "the first divergent event.  Exits 0 when "
                    "identical, 1 on divergence, 2 on unusable input "
                    "or two empty journals.")
    parser.add_argument("journal_a", metavar="A.jsonl",
                        help="first journal (e.g. the serial run)")
    parser.add_argument("journal_b", metavar="B.jsonl",
                        help="second journal (e.g. the parallel run)")
    parser.add_argument("--context", type=int, default=3, metavar="K",
                        help="events of context around the divergence "
                             "(default: 3)")
    args = parser.parse_args(argv)
    return run_cli("trace-diff", lambda: diff_journals(
        read_jsonl(args.journal_a), read_jsonl(args.journal_b),
        context=args.context, names=(args.journal_a, args.journal_b)))


if __name__ == "__main__":
    sys.exit(main())

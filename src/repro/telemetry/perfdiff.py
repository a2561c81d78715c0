"""Localize performance regressions between two profile digests.

``python -m repro.experiments perf-diff OLD NEW`` compares the
:class:`~repro.telemetry.profiling.ProfileDigest` sets carried by two
artifacts - ``PROF_*.json`` exports, ``BENCH_*.json`` manifests with a
``profiles`` section, JSONL ledgers, or bare digest files - and answers
the question ``bench-diff`` cannot: *which span* ate the time.

Span call counts and domain counters (``simplex_iterations_total``,
``lp_solves_total``, ...) are deterministic: they gate at ``--tol`` in
both directions, so a new hot span or a vanished ``presolve`` span
exits 1 on any machine.  Per-span self time is advisory, printed by
absolute delta, and gates only with ``--gate REL``, for spans whose
new self time clears the ``--min-ms`` floor.

The report ends with the **worst regressed span**: the span whose
deterministic or gated-time relative delta is largest, together with
its self-time movement and the counter deltas
:func:`~repro.telemetry.profiling.counter_owner` joins onto it -
"simplex iterations +4.1x, self-time +380 ms in
``offline_run/build_lp/lp_solve``".

The rows, the gate and the exit codes (0 clean, 1 regressed, 2 on
unusable input or no common digest name) are
:mod:`repro.telemetry.diffcore`'s; this module loads digests into rows,
localizes the worst span and renders the report.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import ConfigurationError
from .diffcore import (INF_REL, Row, check_non_negative, compare,
                       mark_regressions, run_cli, verdict)
from .profiling import (PATH_SEP, ProfileDigest, counter_owner,
                        load_profile_set)


def _describe(row: Row) -> str:
    old, new = row.old or 0.0, row.new or 0.0
    if row.kind == "self_s":
        text = f"self_ms {old * 1e3:.2f} -> {new * 1e3:.2f}"
    else:
        text = f"{row.kind} {old:g} -> {new:g}"
    arrow = "(new)" if row.rel == INF_REL else f"({row.rel:+.1%})"
    return f"{text} {arrow}"


def _span_field(digest: ProfileDigest, name: str) -> Dict[str, float]:
    return {path: float(getattr(span, name))
            for path, span in digest.spans.items()}


def diff_digests(digest: str, old: ProfileDigest, new: ProfileDigest,
                 tol: float = 0.0, gate: Optional[float] = None,
                 min_ms: float = 5.0) -> List[Row]:
    """All compared quantities of one digest pair, gates applied.

    Span call counts and counters are deterministic rows; per-span
    self time is advisory and gates only with ``gate``, for spans
    whose new self time reaches ``min_ms``.
    """
    rows = (compare(digest, "calls", _span_field(old, "calls"),
                    _span_field(new, "calls"))
            + compare(digest, "self_s", _span_field(old, "self_s"),
                      _span_field(new, "self_s"), advisory=True)
            + compare(digest, "counter", old.counters, new.counters))
    mark_regressions(rows, tol, slow_tol=gate, floor=min_ms / 1e3)
    return rows


def worst_regression(rows: Sequence[Row]
                     ) -> Optional[Tuple[str, List[Row]]]:
    """The span path a regression localizes to, with its evidence.

    Scores every regressed row; counter regressions attach to the
    owning span's paths (every path whose leaf matches - if none is
    present the counter stands alone).  Returns ``(span path or
    series, supporting rows)`` of the worst offender, or None when
    nothing regressed.
    """
    regressed = [row for row in rows if row.regressed]
    if not regressed:
        return None

    def score(row: Row) -> Tuple[float, float]:
        rel = abs(row.rel)
        magnitude = (abs(row.delta) if row.kind == "self_s"
                     else abs(row.delta) * 1e-6)
        return (1e18 if rel == INF_REL else rel, magnitude)

    span_paths = {row.key for row in rows if row.kind != "counter"}

    def anchor(row: Row) -> str:
        if row.kind != "counter":
            return row.key
        leaf = counter_owner(row.key)
        if leaf is not None:
            owners = sorted(path for path in span_paths
                            if path.rsplit(PATH_SEP, 1)[-1] == leaf)
            if owners:
                return owners[0]
        return row.key

    worst = max(regressed, key=lambda row: (score(row), row.key))
    where = anchor(worst)
    evidence = [row for row in rows
                if anchor(row) == where or row.key == where]
    return where, evidence


def render_report(old_name: str, new_name: str,
                  rows_by_digest: Mapping[str, Sequence[Row]],
                  only: Sequence[str] = (), top: int = 10) -> str:
    """The perf-diff report: per-digest tables + worst-span headline."""
    lines = [f"perf-diff: {old_name} -> {new_name}"]
    for name in only:
        lines.append(f"  ! digest {name!r} present on one side only "
                     f"- not compared")
    for name in sorted(rows_by_digest):
        rows = list(rows_by_digest[name])
        lines.append("")
        lines.append(f"== {name} ==")
        det = [row for row in rows if row.kind != "self_s"]
        det_regressed = [row for row in det if row.regressed]
        if det_regressed:
            lines.append("  deterministic attribution REGRESSED "
                         f"({len(det_regressed)} of {len(det)} keys):")
            for row in det_regressed:
                lines.append(f"    {row.key}: {_describe(row)}")
        else:
            lines.append(f"  deterministic attribution ok "
                         f"({len(det)} keys: span calls + counters)")
        timing = sorted(
            (row for row in rows if row.kind == "self_s"
             and (row.old or row.new)),
            key=lambda row: (-abs(row.delta), row.key))
        shown = timing[:max(0, top)]
        if shown:
            gated = any(row.regressed for row in timing)
            label = "gated" if gated else "advisory"
            lines.append(f"  self-time deltas ({label}, top "
                         f"{len(shown)} by |delta|):")
            for row in shown:
                flag = "  REGRESSED" if row.regressed else ""
                lines.append(f"    {row.key}: {_describe(row)}{flag}")
            omitted = len(timing) - len(shown)
            if omitted > 0:
                lines.append(f"    ... {omitted} smaller timing "
                             f"row(s) omitted ...")
        localized = worst_regression(rows)
        if localized is not None:
            where, evidence = localized
            lines.append(f"  worst regressed span: {where}")
            for row in evidence:
                if row.kind == "counter":
                    lines.append(f"    counter {row.key}: "
                                 f"{_describe(row)}")
                else:
                    lines.append(f"    {_describe(row)}")
    lines.append("")
    if any(row.regressed for rows in rows_by_digest.values()
           for row in rows):
        lines.append("RESULT: performance attribution regressed "
                     "(exit 1)")
    else:
        lines.append("RESULT: no gated regression (exit 0)")
    return "\n".join(lines)


def diff_profile_sets(old_set: Mapping[str, ProfileDigest],
                      new_set: Mapping[str, ProfileDigest],
                      tol: float = 0.0, gate: Optional[float] = None,
                      min_ms: float = 5.0,
                      names: Tuple[str, str] = ("OLD", "NEW"),
                      top: int = 10) -> Tuple[int, str]:
    """Compare two digest sets by name.

    Returns:
        ``(exit_code, report)``.  Digests present on only one side are
        noted but do not gate (a PR may legitimately add or retire an
        algorithm).

    Raises:
        ConfigurationError: on a negative knob or no common name.
    """
    check_non_negative(tol=tol, gate=gate, min_ms=min_ms)
    common = sorted(set(old_set) & set(new_set))
    if not common:
        raise ConfigurationError(
            f"no common digest names between {names[0]} "
            f"({sorted(old_set)}) and {names[1]} ({sorted(new_set)})")
    only = sorted(set(old_set) ^ set(new_set))
    rows_by_digest = {
        name: diff_digests(name, old_set[name], new_set[name],
                           tol=tol, gate=gate, min_ms=min_ms)
        for name in common}
    report = render_report(names[0], names[1], rows_by_digest,
                           only=only, top=top)
    regressed = any(row.regressed
                    for rows in rows_by_digest.values()
                    for row in rows)
    return verdict(len(common), regressed), report


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point (``python -m repro.experiments perf-diff``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments perf-diff",
        description="Compare the profile digests of two runs and "
                    "localize the worst regressed span.  Accepts "
                    "PROF_*.json exports, BENCH_*.json manifests, "
                    "JSONL ledgers, or bare digest files.  Exits 0 "
                    "when clean, 1 on a gated regression, 2 on "
                    "unusable input.")
    parser.add_argument("old", metavar="OLD",
                        help="baseline artifact carrying digests")
    parser.add_argument("new", metavar="NEW",
                        help="candidate artifact carrying digests")
    parser.add_argument("--tol", type=float, default=0.0,
                        metavar="REL",
                        help="relative tolerance for deterministic "
                             "keys (span calls, domain counters; "
                             "gated both directions; default: 0)")
    parser.add_argument("--gate", type=float, default=None,
                        metavar="REL",
                        help="also gate per-span self-time increases "
                             "beyond REL (e.g. 0.5 = +50%%); timing "
                             "is advisory-only without this flag")
    parser.add_argument("--min-ms", type=float, default=5.0,
                        metavar="MS",
                        help="ignore --gate for spans whose new self "
                             "time is below MS milliseconds "
                             "(default: 5)")
    parser.add_argument("--top", type=int, default=10, metavar="N",
                        help="timing rows to print per digest "
                             "(default: 10)")
    args = parser.parse_args(argv)
    return run_cli("perf-diff", lambda: diff_profile_sets(
        load_profile_set(args.old), load_profile_set(args.new),
        tol=args.tol, gate=args.gate, min_ms=args.min_ms,
        names=(args.old, args.new), top=args.top))


if __name__ == "__main__":
    sys.exit(main())

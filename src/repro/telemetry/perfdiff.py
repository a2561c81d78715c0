"""Localize performance regressions between two profile digests.

``python -m repro.experiments perf-diff OLD NEW`` compares the
:class:`~repro.telemetry.profiling.ProfileDigest` sets carried by two
artifacts - ``PROF_*.json`` exports, ``BENCH_*.json`` manifests with a
``profiles`` section, JSONL ledgers, or bare digest files - and answers
the question ``bench-diff`` cannot: *which span* ate the time.

Two classes of signal, mirroring the deterministic/advisory split of
:mod:`repro.telemetry.regression`:

* **Deterministic attribution** - span paths, per-span call counts,
  and domain counters (``simplex_iterations_total``,
  ``lp_solves_total``, ...) are pure functions of config + seeds.
  They gate at ``--tol`` in *both* directions: a new hot span, a 4x
  jump in simplex iterations, or a vanished ``presolve`` span
  all exit 1 on any machine, however noisy its clock.

* **Advisory timing** - per-span self/cumulative wall time is printed
  (sorted by absolute self-time delta) but only gates when ``--gate
  REL`` is given, and then only for spans whose new self time clears
  the ``--min-ms`` floor, so sub-millisecond jitter cannot flake CI.

The report ends with the **worst regressed span**: the span whose
deterministic or gated-time relative delta is largest, together with
its self-time movement and the counter deltas
:func:`~repro.telemetry.profiling.counter_owner` joins onto it -
"simplex iterations +4.1x, self-time +380 ms in
``offline_run/build_lp/lp_solve``".

Exit codes match ``bench-diff`` / ``trace-diff``:

* ``0`` - no gated regression (timing drift may still be listed);
* ``1`` - at least one digest regressed (localization printed);
* ``2`` - an input is unusable.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import (Dict, List, Mapping, Optional, Sequence, Tuple)

from ..exceptions import ConfigurationError
from .profiling import (PATH_SEP, ProfileDigest, counter_owner,
                        load_profile_set)

#: Exit codes, mirroring bench-diff and trace-diff.
EXIT_OK = 0
EXIT_REGRESSED = 1
EXIT_ERROR = 2

#: Relative delta reported when a key exists on only one side.
INF_REL = float("inf")


@dataclass
class PerfDelta:
    """One compared quantity between two digests."""

    digest: str   #: digest name (algorithm or group/algorithm)
    kind: str     #: ``"calls"``, ``"counter"``, or ``"self_s"``
    key: str      #: span path or counter series id
    old: float
    new: float
    regressed: bool = False

    @property
    def rel(self) -> float:
        """Relative delta ``(new-old)/old`` (inf when old == 0)."""
        if self.old == 0.0:  # repro: noqa NUM001 -- structural zero: absent span/counter
            return 0.0 if self.new == 0.0 else INF_REL  # repro: noqa NUM001 -- structural zero
        return (self.new - self.old) / abs(self.old)

    @property
    def span_leaf(self) -> Optional[str]:
        """The span this delta attributes to (for counter joins)."""
        if self.kind == "counter":
            return counter_owner(self.key)
        return self.key.rsplit(PATH_SEP, 1)[-1]

    def describe(self) -> str:
        label = {"calls": "calls", "counter": "counter",
                 "self_s": "self_ms"}[self.kind]
        if self.kind == "self_s":
            old, new = f"{self.old * 1e3:.2f}", f"{self.new * 1e3:.2f}"
        else:
            old, new = f"{self.old:g}", f"{self.new:g}"
        rel = self.rel
        if rel == INF_REL:
            arrow = "(new)" if self.old == 0.0 else "(gone)"  # repro: noqa NUM001 -- structural zero
        else:
            arrow = f"({rel:+.1%})"
        return f"{label} {old} -> {new} {arrow}"


def _span_rows(digest: str, old: ProfileDigest, new: ProfileDigest,
               tol: float) -> List[PerfDelta]:
    rows: List[PerfDelta] = []
    for path in sorted(set(old.spans) | set(new.spans)):
        left = old.spans.get(path)
        right = new.spans.get(path)
        calls = PerfDelta(digest, "calls", path,
                          float(left.calls if left else 0),
                          float(right.calls if right else 0))
        calls.regressed = (calls.rel == INF_REL
                           or abs(calls.rel) > tol)
        rows.append(calls)
        rows.append(PerfDelta(digest, "self_s", path,
                              left.self_s if left else 0.0,
                              right.self_s if right else 0.0))
    return rows


def _counter_rows(digest: str, old: ProfileDigest,
                  new: ProfileDigest, tol: float) -> List[PerfDelta]:
    rows: List[PerfDelta] = []
    for series in sorted(set(old.counters) | set(new.counters)):
        row = PerfDelta(digest, "counter", series,
                        old.counters.get(series, 0.0),
                        new.counters.get(series, 0.0))
        row.regressed = (row.rel == INF_REL or abs(row.rel) > tol)
        rows.append(row)
    return rows


def _gate_timing(rows: Sequence[PerfDelta], gate: Optional[float],
                 min_ms: float) -> None:
    """Mark gated self-time regressions in place (``--gate``)."""
    if gate is None:
        return
    for row in rows:
        if row.kind != "self_s":
            continue
        if row.new * 1e3 < min_ms:
            continue
        rel = row.rel
        if rel == INF_REL or rel > gate:
            row.regressed = True


def diff_digests(digest: str, old: ProfileDigest, new: ProfileDigest,
                 tol: float = 0.0, gate: Optional[float] = None,
                 min_ms: float = 5.0) -> List[PerfDelta]:
    """All compared quantities of one digest pair, gates applied."""
    rows = _span_rows(digest, old, new, tol)
    rows.extend(_counter_rows(digest, old, new, tol))
    _gate_timing(rows, gate, min_ms)
    return rows


def worst_regression(rows: Sequence[PerfDelta]
                     ) -> Optional[Tuple[str, List[PerfDelta]]]:
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

    def score(row: PerfDelta) -> Tuple[float, float]:
        rel = abs(row.rel)
        magnitude = (abs(row.new - row.old)
                     if row.kind == "self_s"
                     else abs(row.new - row.old) * 1e-6)
        return (1e18 if rel == INF_REL else rel, magnitude)

    span_paths = {row.key for row in rows if row.kind != "counter"}

    def anchor(row: PerfDelta) -> str:
        if row.kind != "counter":
            return row.key
        leaf = row.span_leaf
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
                  rows_by_digest: Mapping[str, Sequence[PerfDelta]],
                  only: Sequence[str] = (), top: int = 10) -> str:
    """The perf-diff report: per-digest tables + worst-span headline."""
    lines = [f"perf-diff: {old_name} -> {new_name}"]
    for name in only:
        lines.append(f"  ! digest {name!r} present on one side only "
                     f"- not compared")
    any_regressed = False
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
                lines.append(f"    {row.key}: {row.describe()}")
        else:
            lines.append(f"  deterministic attribution ok "
                         f"({len(det)} keys: span calls + counters)")
        timing = sorted(
            (row for row in rows if row.kind == "self_s"
             and (row.old or row.new)),
            key=lambda row: (-abs(row.new - row.old), row.key))
        shown = timing[:max(0, top)]
        if shown:
            gated = any(row.regressed for row in timing)
            label = "gated" if gated else "advisory"
            lines.append(f"  self-time deltas ({label}, top "
                         f"{len(shown)} by |delta|):")
            for row in shown:
                flag = "  REGRESSED" if row.regressed else ""
                lines.append(f"    {row.key}: {row.describe()}{flag}")
            omitted = len(timing) - len(shown)
            if omitted > 0:
                lines.append(f"    ... {omitted} smaller timing "
                             f"row(s) omitted ...")
        localized = worst_regression(rows)
        if localized is not None:
            any_regressed = True
            where, evidence = localized
            lines.append(f"  worst regressed span: {where}")
            for row in evidence:
                if row.kind == "counter":
                    lines.append(f"    counter {row.key}: "
                                 f"{row.describe()}")
                else:
                    lines.append(f"    {row.describe()}")
    lines.append("")
    if any_regressed:
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
        algorithm); at least one common name is required.
    """
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
    return (EXIT_REGRESSED if regressed else EXIT_OK), report


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
    if args.tol < 0 or args.min_ms < 0 \
            or (args.gate is not None and args.gate < 0):
        print("error: --tol/--gate/--min-ms must be >= 0",
              file=sys.stderr)
        return EXIT_ERROR
    try:
        old_set = load_profile_set(args.old)
        new_set = load_profile_set(args.new)
        code, report = diff_profile_sets(
            old_set, new_set, tol=args.tol, gate=args.gate,
            min_ms=args.min_ms, names=(args.old, args.new),
            top=args.top)
    except (OSError, ValueError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(report)
    return code


if __name__ == "__main__":
    sys.exit(main())

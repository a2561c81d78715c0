"""Benchmark-regression tracking: diff two run ledgers and gate CI.

``bench-diff`` compares the manifests of an *old* (baseline) and *new*
(candidate) ledger or ``BENCH_*.json`` snapshot and reports, per run
name and algorithm, the delta of every headline metric and of the
wall-clock measurements (per-phase seconds, ``runtime_s``, peak RSS).

Deterministic metrics gate in both directions beyond ``--tol``;
wall-clock quantities (``runtime_s``, phases, peak RSS, see
:data:`~repro.telemetry.ledger.WALL_CLOCK_METRICS`) are advisory unless
``--gate-wall``/``--gate-wall-keys`` asks, and then gate only on a
slowdown beyond ``--wall-tol``.  The gate and the exit codes (0 =
within tolerance, 1 = regression, 2 = unusable inputs or no common run
name) are :mod:`repro.telemetry.diffcore`'s; this module loads
manifests into rows and renders the report.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from .diffcore import (Row, check_non_negative, mark_regressions,
                       run_cli, verdict)
from .ledger import (WALL_CLOCK_METRICS, RunManifest, latest_by_name,
                     load_manifests)

#: Default relative tolerance for deterministic metrics.
DEFAULT_METRIC_TOL = 1e-9
#: Default relative tolerance for wall-clock quantities (when gated).
DEFAULT_WALL_TOL = 0.25


class Delta(Row):
    """A :class:`~repro.telemetry.diffcore.Row` of one run name (``run``);
    ``wall_clock`` marks the advisory rows."""

    def __init__(self, run: str, key: str, old: float, new: float,
                 wall_clock: bool, regressed: bool = False) -> None:
        super().__init__(run, "wall" if wall_clock else "metric", key,
                         old, new, wall_clock, regressed)

    run = property(attrgetter("group"))
    wall_clock = property(attrgetter("advisory"))
    abs_delta = Row.delta
    rel_delta = Row.rel


@dataclass
class DiffReport:
    """Everything ``bench-diff`` found between two ledgers."""

    deltas: List[Delta] = field(default_factory=list)
    #: Run names / metric and wall-clock keys present on only one side
    #: (advisory).
    missing: List[str] = field(default_factory=list)
    #: Run names compared.
    compared_runs: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[Delta]:
        """The deltas that exceeded their gate."""
        return [d for d in self.deltas if d.regressed]

    @property
    def ok(self) -> bool:
        """True when something was compared and nothing regressed."""
        return bool(self.compared_runs) and not self.regressions

    def render(self) -> str:
        """The human-readable diff report.

        Deterministic metrics print in key order; the advisory
        wall-clock block after them is sorted by relative magnitude
        (largest ``|rel_delta|`` first, key as tiebreak) so the
        biggest timing shift is always the first ``~`` line - the one
        worth pasting into ``perf-diff`` for span-level attribution.
        """
        if not self.compared_runs:
            return "bench-diff: no common run names to compare"
        lines: List[str] = []
        for run in self.compared_runs:
            lines.append(f"run {run!r}:")
            mine = [d for d in self.deltas if d.run == run]
            rows = ([d for d in mine if not d.wall_clock]
                    + sorted((d for d in mine if d.wall_clock),
                             key=lambda d: (-abs(d.rel_delta), d.key)))
            width = max((len(d.key) for d in rows), default=3)
            for d in rows:
                mark = "REGRESSION" if d.regressed else (
                    "~" if d.wall_clock else "ok")
                lines.append(
                    f"  {d.key.ljust(width)}  {d.old:>14.6g} -> "
                    f"{d.new:>14.6g}  ({d.rel_delta:+8.2%})  {mark}")
            if not rows:
                lines.append("  (no overlapping quantities)")
        for item in self.missing:
            lines.append(f"  only on one side: {item}")
        n_wall = sum(1 for d in self.deltas if d.wall_clock)
        lines.append(
            f"compared {len(self.compared_runs)} run(s), "
            f"{len(self.deltas) - n_wall} metric / {n_wall} wall-clock "
            f"quantities; {len(self.regressions)} regression(s)")
        return "\n".join(lines)


def _flatten(manifest: RunManifest
             ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Split one manifest into (deterministic, wall-clock) flat maps."""
    metric: Dict[str, float] = {}
    wall: Dict[str, float] = {}
    for algo, row in manifest.metrics.items():
        for name, value in row.items():
            target = wall if name in WALL_CLOCK_METRICS else metric
            target[f"{algo}.{name}"] = float(value)
    for phase, seconds in manifest.phases.items():
        wall[f"phase.{phase}"] = float(seconds)
    if manifest.peak_rss_kb is not None:
        wall["peak_rss_kb"] = float(manifest.peak_rss_kb)
    return metric, wall


def diff_manifests(old: RunManifest, new: RunManifest,
                   metric_tol: float = DEFAULT_METRIC_TOL,
                   wall_tol: float = DEFAULT_WALL_TOL,
                   gate_wall: bool = False,
                   wall_keys: Optional[Sequence[str]] = None
                   ) -> DiffReport:
    """Compare two manifests of the same run name (see
    :func:`diff_ledgers`)."""
    return diff_ledgers([old], [new], metric_tol, wall_tol, gate_wall,
                        wall_keys)


def diff_ledgers(old: Sequence[RunManifest],
                 new: Sequence[RunManifest],
                 metric_tol: float = DEFAULT_METRIC_TOL,
                 wall_tol: float = DEFAULT_WALL_TOL,
                 gate_wall: bool = False,
                 wall_keys: Optional[Sequence[str]] = None,
                 name: Optional[str] = None) -> DiffReport:
    """Compare the head manifests of two ledgers, per common run name.

    Deterministic metrics gate on ``|rel delta| > metric_tol`` in both
    directions - any drift means the baseline is stale.  Wall-clock
    quantities gate only with ``gate_wall`` and only on slowdowns
    beyond ``wall_tol``; ``wall_keys`` (fnmatch patterns against the
    flattened key, e.g. ``"Appro.runtime_s"`` or ``"*.runtime_s"``)
    restricts the gate to matching quantities so a stable hot path can
    be pinned without gating every machine-dependent number.  Keys or
    runs present on one side only are listed in ``missing``.

    Args:
        old: baseline manifests (ledger order; last entry per name
            wins).
        new: candidate manifests.
        metric_tol: relative gate for deterministic metrics.
        wall_tol: relative gate for wall-clock (when ``gate_wall``).
        gate_wall: also gate on wall-clock slowdowns.
        wall_keys: fnmatch patterns restricting which wall-clock keys
            the gate applies to (all when None).
        name: restrict the comparison to one run name.

    Raises:
        ConfigurationError: on a negative tolerance, or a ``wall_keys``
            pattern that matches no wall-clock key of any compared run.
    """
    check_non_negative(metric_tol=metric_tol, wall_tol=wall_tol)
    old_by = latest_by_name(old)
    new_by = latest_by_name(new)
    if name is not None:
        old_by = {k: v for k, v in old_by.items() if k == name}
        new_by = {k: v for k, v in new_by.items() if k == name}
    report = DiffReport()
    for run in sorted(set(old_by) | set(new_by)):
        if run not in old_by or run not in new_by:
            report.missing.append(f"run {run!r}")
            continue
        report.compared_runs.append(run)
        for old_map, new_map, wall_clock in zip(
                _flatten(old_by[run]), _flatten(new_by[run]), (False, True)):
            for key in sorted(set(old_map) | set(new_map)):
                if key in old_map and key in new_map:
                    report.deltas.append(Delta(run, key, old_map[key],
                                               new_map[key], wall_clock))
                else:
                    report.missing.append(f"{run}: {key}")
    # With no run compared the report says so and the CLI exits 2; a
    # wall-key pattern check would only replace that message.
    if report.compared_runs:
        mark_regressions(report.deltas, metric_tol,
                         slow_tol=wall_tol if gate_wall else None,
                         patterns=wall_keys if gate_wall else None)
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments bench-diff",
        description="Compare two run ledgers / BENCH_*.json snapshots "
                    "and exit non-zero on regression.")
    parser.add_argument("old", help="baseline ledger or BENCH file")
    parser.add_argument("new", help="candidate ledger or BENCH file")
    parser.add_argument("--tol", type=float,
                        default=DEFAULT_METRIC_TOL, metavar="REL",
                        help="relative tolerance for deterministic "
                             "metrics (default: exact up to float "
                             "noise)")
    parser.add_argument("--wall-tol", type=float,
                        default=DEFAULT_WALL_TOL, metavar="REL",
                        help="relative slowdown tolerated on "
                             "wall-clock quantities when gated "
                             f"(default {DEFAULT_WALL_TOL})")
    parser.add_argument("--gate-wall", action="store_true",
                        help="fail on wall-clock slowdowns too "
                             "(advisory-only by default)")
    parser.add_argument("--gate-wall-keys", default=None,
                        metavar="PATTERNS",
                        help="comma-separated fnmatch patterns "
                             "limiting the wall-clock gate to matching "
                             "keys (e.g. 'Appro.runtime_s' or "
                             "'*.runtime_s'); implies --gate-wall")
    parser.add_argument("--name", default=None, metavar="RUN",
                        help="compare only this run name")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    wall_keys = None
    if args.gate_wall_keys:
        wall_keys = [pattern.strip()
                     for pattern in args.gate_wall_keys.split(",")
                     if pattern.strip()]

    def diff() -> Tuple[int, str]:
        report = diff_ledgers(
            load_manifests(args.old), load_manifests(args.new),
            metric_tol=args.tol, wall_tol=args.wall_tol,
            gate_wall=args.gate_wall or bool(wall_keys),
            wall_keys=wall_keys, name=args.name)
        return (verdict(len(report.compared_runs),
                        bool(report.regressions)), report.render())

    return run_cli("bench-diff", diff)


if __name__ == "__main__":
    sys.exit(main())

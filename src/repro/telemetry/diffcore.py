"""The diff core behind ``bench-diff``, ``perf-diff`` and ``trace-diff``.

Each tool is a loader plus a renderer over this module: a compared
:class:`Row`, one relative-delta rule (:func:`rel_delta`), one gate
(:func:`mark_regressions`) and one CLI shell (:func:`verdict`,
:func:`run_cli`).  Deterministic rows - metrics, span call counts,
counters, all pure functions of config + seeds - fail in both
directions beyond ``tol`` (a reward *increase* still means the baseline
is stale).  Advisory rows - wall clock - fail only on a slowdown, only
when asked.  Unusable input or nothing compared exits 2, a regression
exits 1, otherwise 0.  ``trace-diff`` keeps its own first-divergence
search and shares only the shell.
"""

from __future__ import annotations

import fnmatch
import sys
from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import ConfigurationError

EXIT_OK = 0
EXIT_REGRESSED = 1
EXIT_ERROR = 2

#: Relative delta of a key that exists only in the candidate.
INF_REL = float("inf")

#: Denominator floor so deltas against ~0 baselines stay finite.
_EPS = 1e-12


def rel_delta(old: Optional[float], new: Optional[float]) -> float:
    """``(new - old) / max(|old|, 1e-12)``; None marks an absent side.

    A key that appears with a non-zero value is an infinite change; a
    key that vanishes reads as zero (-100%).
    """
    if old is None:
        return INF_REL if new else 0.0
    return ((new or 0.0) - old) / max(abs(old), _EPS)


@dataclass
class Row:
    """One compared quantity.

    ``group`` is what the key belongs to (a run or digest name),
    ``kind`` what it measures (``"metric"``, ``"calls"``, ...);
    ``old``/``new`` are None on a side where the key is absent.
    ``advisory`` marks wall-clock quantities.
    """

    group: str
    kind: str
    key: str
    old: Optional[float]
    new: Optional[float]
    advisory: bool = False
    regressed: bool = False

    @property
    def delta(self) -> float:
        """``new - old``, reading an absent side as zero."""
        return (self.new or 0.0) - (self.old or 0.0)

    @property
    def rel(self) -> float:
        return rel_delta(self.old, self.new)


def compare(group: str, kind: str, old: Mapping[str, float],
            new: Mapping[str, float], advisory: bool = False
            ) -> List[Row]:
    """One row per key of either side, in key order."""
    return [Row(group, kind, key, old.get(key), new.get(key), advisory)
            for key in sorted(set(old) | set(new))]


def check_non_negative(**knobs: Optional[float]) -> None:
    """Raise :class:`ConfigurationError` naming a negative knob."""
    for name, value in knobs.items():
        if value is not None and value < 0:
            raise ConfigurationError(f"{name} must be >= 0, got {value}")


def mark_regressions(rows: Sequence[Row], tol: float,
                     slow_tol: Optional[float] = None,
                     floor: float = 0.0,
                     patterns: Optional[Sequence[str]] = None) -> None:
    """Set every row's ``regressed`` flag in place.

    Deterministic rows regress when ``|rel| > tol``.  Advisory rows
    regress only when ``slow_tol`` is given, on ``rel > slow_tol``, for
    a new value at or above ``floor`` and a key matching one of the
    fnmatch ``patterns`` (any key when None).

    Raises:
        ConfigurationError: when a pattern matches no advisory row - a
            typo would otherwise turn the gate off without a word.
    """
    def gated(key: str) -> bool:
        return patterns is None or any(fnmatch.fnmatchcase(key, pattern)
                                       for pattern in patterns)

    advisory = [row.key for row in rows if row.advisory]
    for pattern in patterns or ():
        if not any(fnmatch.fnmatchcase(key, pattern) for key in advisory):
            raise ConfigurationError(
                f"pattern {pattern!r} matches no compared wall-clock key")
    for row in rows:
        if row.advisory:
            row.regressed = (slow_tol is not None
                             and (row.new or 0.0) >= floor
                             and gated(row.key) and row.rel > slow_tol)
        else:
            row.regressed = abs(row.rel) > tol


def verdict(compared: int, regressed: bool) -> int:
    """The exit code: 2 when nothing was compared, 1 on a regression."""
    if not compared:
        return EXIT_ERROR
    return EXIT_REGRESSED if regressed else EXIT_OK


def run_cli(prog: str, diff: Callable[[], Tuple[int, str]]) -> int:
    """Run ``diff`` (load both inputs, return ``(exit code, report)``),
    print its report and return its code; unusable input exits 2."""
    try:
        code, report = diff()
    except (OSError, ValueError, ConfigurationError) as error:
        print(f"{prog}: error: {error}", file=sys.stderr)
        return EXIT_ERROR
    print(report)
    return code

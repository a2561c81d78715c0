"""Run/sweep result containers for experiments.

A figure in the paper is a set of series: for each algorithm, a metric
as a function of a swept parameter (number of requests, number of base
stations, maximum data rate).  :class:`RunRecord` is one (algorithm,
x, seed) measurement; :class:`SweepResult` aggregates records into the
mean series the figures plot (with standard deviations for error bars).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from ..exceptions import ConfigurationError


@dataclass(frozen=True)
class RunRecord:
    """One measured run.

    Attributes:
        algorithm: algorithm display name.
        x: value of the swept parameter.
        seed: replication seed.
        metrics: metric name -> value (e.g. ``total_reward``).
        trace: telemetry events of the run (see
            :mod:`repro.telemetry`) when it executed with tracing
            enabled; None otherwise.  Excluded from determinism
            comparisons except in canonical form.
        journal: the decision audit journal of the run (see
            :mod:`repro.telemetry.audit`) when it executed with
            journaling enabled; None otherwise.  Journals are
            wall-clock-free, so they participate in determinism
            comparisons as-is.
        profile: serialized
            :class:`~repro.telemetry.profiling.ProfileDigest` of the
            run when it executed with profiling enabled; None
            otherwise.  The digest's calls/counters half is
            deterministic; its ``*_s`` fields are wall clock.
        profile_stats: merged picklable cProfile statistics (see
            :func:`~repro.telemetry.profiling.capture_stats`) when
            profiled; None otherwise.
        profile_mem: top allocation sites (see
            :func:`~repro.telemetry.profiling.capture_memory_top`)
            when the run executed with memory profiling; None
            otherwise.
    """

    algorithm: str
    x: float
    seed: int
    metrics: Mapping[str, float]
    trace: Optional[Tuple[Dict[str, Any], ...]] = None
    journal: Optional[Tuple[Dict[str, Any], ...]] = None
    profile: Optional[Dict[str, Any]] = None
    profile_stats: Optional[Dict[str, Any]] = None
    profile_mem: Optional[Tuple[Dict[str, Any], ...]] = None


class SweepResult:
    """All records of one experiment sweep.

    Args:
        x_label: name of the swept parameter (axis label).
    """

    def __init__(self, x_label: str) -> None:
        self.x_label = x_label
        self._records: List[RunRecord] = []

    def add(self, record: RunRecord) -> None:
        """Append one measurement."""
        self._records.append(record)

    def extend(self, records: Iterable[RunRecord]) -> None:
        """Append many measurements."""
        for record in records:
            self.add(record)

    @property
    def records(self) -> Tuple[RunRecord, ...]:
        """All raw records."""
        return tuple(self._records)

    def algorithms(self) -> List[str]:
        """Algorithms present, in first-seen order."""
        seen: List[str] = []
        for record in self._records:
            if record.algorithm not in seen:
                seen.append(record.algorithm)
        return seen

    def x_values(self) -> List[float]:
        """Swept values present, ascending."""
        return sorted({record.x for record in self._records})

    def series(self, algorithm: str, metric: str
               ) -> Tuple[List[float], List[float], List[float]]:
        """Mean +/- std series of one algorithm and metric.

        The spread is the *sample* standard deviation (``ddof=1``, 0
        for a single seed).  x-points where the algorithm has no
        values for the metric are skipped, so ``xs`` may be a subset
        of :meth:`x_values`.

        Returns:
            ``(xs, means, stds)`` over replication seeds.

        Raises:
            ConfigurationError: if the algorithm or metric is absent.
        """
        if algorithm not in self.algorithms():
            raise ConfigurationError(
                f"no records for algorithm {algorithm!r}")
        xs: List[float] = []
        means: List[float] = []
        stds: List[float] = []
        for x in self.x_values():
            values = [record.metrics[metric] for record in self._records
                      if record.algorithm == algorithm and record.x == x
                      and metric in record.metrics]
            if not values:
                continue
            xs.append(x)
            means.append(float(np.mean(values)))
            stds.append(float(np.std(values, ddof=1))
                        if len(values) > 1 else 0.0)
        if not xs:
            raise ConfigurationError(
                f"no values of metric {metric!r} for {algorithm!r}")
        return xs, means, stds

    def table(self, metric: str) -> Dict[str, List[float]]:
        """Metric means per algorithm, aligned to :meth:`x_values`.

        Every row has one entry per value of :meth:`x_values`;
        x-points where an algorithm has no values for the metric are
        padded with NaN so rows stay aligned across algorithms.
        """
        all_xs = self.x_values()
        out: Dict[str, List[float]] = {}
        for algorithm in self.algorithms():
            xs, means, _ = self.series(algorithm, metric)
            by_x = dict(zip(xs, means))
            out[algorithm] = [by_x.get(x, float("nan"))
                              for x in all_xs]
        return out


def aggregate_records(records: Sequence[RunRecord],
                      x_label: str) -> SweepResult:
    """Bundle raw records into a :class:`SweepResult`."""
    sweep = SweepResult(x_label)
    sweep.extend(records)
    return sweep

"""A/B guard: the lifetime-only histogram against the one it replaced.

``StreamingHistogram`` used to keep a slot-keyed ring of per-slot
bucket counts beside its lifetime buckets, and took its geometry as
arguments.  Nothing read the ring but the snapshot's ``"window"``
entry, so the histogram now keeps the lifetime buckets alone, on one
module-level geometry.  The frozen copy below is the old histogram,
built with the defaults every series used.  Fed the same seeded
streams - values at or below the first bound, exactly on bucket
bounds, past the last bound, zero - both must report bit-equal
counts, sums, extremes, quantiles, snapshots (less ``"window"``) and
Prometheus lines, and survive an export/restore round trip alike.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Dict, List, Optional

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.telemetry.metrics import (BUCKET_BOUNDS, SNAPSHOT_QUANTILES,
                                     MetricsRegistry, StreamingHistogram)


# ----------------------------------------------------------------------
# Frozen copy of the windowed histogram
# ----------------------------------------------------------------------
class FrozenHistogram:
    """Bounded log-scale histogram with a slot-keyed sliding window.

    Memory is fixed at construction: ``num_buckets`` lifetime bucket
    counts plus a ``window_slots``-cell ring of per-slot bucket counts.
    Observing any number of values never allocates - this is what lets
    the load generator track p50/p95/p99 over 10^6+ arrivals with flat
    RSS.

    Buckets are geometric: bucket ``i`` covers
    ``(lowest * growth**(i-1), lowest * growth**i]`` with bucket 0
    catching everything at or below ``lowest`` and the last bucket
    unbounded above.  Quantiles interpolate linearly inside the
    crossing bucket (the overflow bucket interpolates toward the
    maximum ever observed), so estimates are within one bucket's
    relative width (``growth - 1``) of the exact statistic.

    The sliding window is keyed by **slot index**, not wall-clock: a
    ring cell holds the bucket counts of one slot and is lazily
    recycled ``window_slots`` slots later.  Window statistics therefore
    replay identically between serial/parallel execution and across a
    kill/resume boundary.

    Args:
        lowest: upper bound of the first bucket (> 0).
        growth: geometric bucket growth factor (> 1).
        num_buckets: total buckets including the overflow bucket.
        window_slots: sliding-window length in slots.
    """

    __slots__ = ("lowest", "growth", "num_buckets", "window_slots",
                 "_bounds", "count", "sum", "min", "max", "_total",
                 "_ring", "_ring_slots", "_last_slot")

    def __init__(self, lowest: float = 1e-6, growth: float = 2.0 ** 0.5,
                 num_buckets: int = 48, window_slots: int = 256) -> None:
        if lowest <= 0:
            raise ConfigurationError(
                f"lowest must be > 0, got {lowest}")
        if growth <= 1.0:
            raise ConfigurationError(
                f"growth must be > 1, got {growth}")
        if num_buckets < 2:
            raise ConfigurationError(
                f"num_buckets must be >= 2, got {num_buckets}")
        if window_slots < 1:
            raise ConfigurationError(
                f"window_slots must be >= 1, got {window_slots}")
        self.lowest = float(lowest)
        self.growth = float(growth)
        self.num_buckets = int(num_buckets)
        self.window_slots = int(window_slots)
        #: Upper bounds of buckets 0..num_buckets-2 (last is +inf).
        self._bounds: List[float] = [
            self.lowest * self.growth ** i
            for i in range(self.num_buckets - 1)]
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._total = [0] * self.num_buckets
        self._ring: List[List[int]] = [
            [0] * self.num_buckets for _ in range(self.window_slots)]
        self._ring_slots: List[Optional[int]] = [None] * self.window_slots
        self._last_slot = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def bucket_index(self, value: float) -> int:
        """The bucket a value falls in."""
        return bisect.bisect_left(self._bounds, value)

    def observe(self, value: float, slot: int = 0) -> None:
        """Record one observation at a slot index."""
        value = float(value)
        index = self.bucket_index(value)
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self._total[index] += 1
        if slot > self._last_slot:
            self._last_slot = slot
        cell = slot % self.window_slots
        if self._ring_slots[cell] != slot:
            self._ring_slots[cell] = slot
            self._ring[cell] = [0] * self.num_buckets
        self._ring[cell][index] += 1

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def window_counts(self, slot: Optional[int] = None) -> List[int]:
        """Per-bucket counts over the trailing window ending at `slot`
        (default: the most recent observed slot)."""
        end = self._last_slot if slot is None else int(slot)
        low = end - self.window_slots
        counts = [0] * self.num_buckets
        for cell, cell_slot in enumerate(self._ring_slots):
            if cell_slot is not None and low < cell_slot <= end:
                row = self._ring[cell]
                for i in range(self.num_buckets):
                    counts[i] += row[i]
        return counts

    def quantile(self, q: float, window: bool = False) -> float:
        """Estimate the q-th percentile (q in [0, 100]).

        Returns 0.0 for an empty histogram.
        """
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError(
                f"q must be in [0, 100], got {q}")
        counts = self.window_counts() if window else self._total
        total = sum(counts)
        if total == 0:
            return 0.0
        target = (q / 100.0) * total
        cumulative = 0.0
        for i, bucket_count in enumerate(counts):
            if bucket_count == 0:
                continue
            lower = self._bounds[i - 1] if i > 0 else 0.0
            if i < len(self._bounds):
                upper = self._bounds[i]
            else:
                upper = max(self.max if self.max is not None else lower,
                            lower)
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= target:
                fraction = (target - previous) / bucket_count
                fraction = min(1.0, max(0.0, fraction))
                return lower + (upper - lower) * fraction
        return self.max if self.max is not None else 0.0

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able summary: totals, quantiles, and sparse buckets."""
        out: Dict[str, Any] = {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }
        for q in SNAPSHOT_QUANTILES:
            out[f"p{q:g}"] = self.quantile(q)
        window = self.window_counts()
        window_total = sum(window)
        window_stats: Dict[str, Any] = {"count": window_total}
        for q in SNAPSHOT_QUANTILES:
            window_stats[f"p{q:g}"] = self.quantile(q, window=True)
        out["window"] = window_stats
        buckets: List[List[float]] = []
        for i, bucket_count in enumerate(self._total):
            if bucket_count == 0:
                continue
            upper = (self._bounds[i] if i < len(self._bounds)
                     else float("inf"))
            buckets.append([upper, bucket_count])
        out["buckets"] = buckets
        return out

    # ------------------------------------------------------------------
    # Checkpoint round-trip
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, Any]:
        """Everything needed to rebuild this histogram exactly."""
        return {
            "geometry": (self.lowest, self.growth, self.num_buckets,
                         self.window_slots),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "total": list(self._total),
            "ring": [list(row) for row in self._ring],
            "ring_slots": list(self._ring_slots),
            "last_slot": self._last_slot,
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "FrozenHistogram":
        """Rebuild a histogram from :meth:`export_state`."""
        lowest, growth, num_buckets, window_slots = state["geometry"]
        hist = cls(lowest=lowest, growth=growth,
                   num_buckets=num_buckets, window_slots=window_slots)
        hist.count = int(state["count"])
        hist.sum = float(state["sum"])
        hist.min = state["min"]
        hist.max = state["max"]
        hist._total = list(state["total"])
        hist._ring = [list(row) for row in state["ring"]]
        hist._ring_slots = list(state["ring_slots"])
        hist._last_slot = int(state["last_slot"])
        return hist

    def __repr__(self) -> str:
        return (f"FrozenHistogram(count={self.count}, "
                f"buckets={self.num_buckets}, "
                f"window={self.window_slots})")


def frozen_prometheus(name: str, hist: FrozenHistogram) -> List[str]:
    """The old registry's exposition of one unlabelled histogram."""
    lines = [f"# TYPE {name} histogram"]
    cumulative = 0
    for i, bucket_count in enumerate(hist._total):
        cumulative += bucket_count
        upper = (hist._bounds[i] if i < len(hist._bounds)
                 else float("inf"))
        le = "+Inf" if upper == float("inf") else f"{upper:g}"
        lines.append(f'{name}_bucket{{le="{le}"}} {cumulative}')
    lines.append(f"{name}_sum {hist.sum:g}")
    lines.append(f"{name}_count {hist.count}")
    return lines


# ----------------------------------------------------------------------
# Streams
# ----------------------------------------------------------------------
#: Values the bucket search treats specially.
EDGES = ([0.0, -1.0, 1e-9, BUCKET_BOUNDS[0] / 2]
         + list(BUCKET_BOUNDS)
         + [math.nextafter(BUCKET_BOUNDS[7], 0.0),
            math.nextafter(BUCKET_BOUNDS[7], math.inf),
            BUCKET_BOUNDS[-1] * 1.5, 1e3, 1e9])


def stream(seed: int) -> List[float]:
    """A seeded mix: log-uniform values spanning every bucket and past
    both ends, plus the edge values in a shuffled order."""
    rng = np.random.default_rng(seed)
    body = list(10.0 ** rng.uniform(-8.0, 3.0, size=400))
    edges = [EDGES[i] for i in rng.integers(0, len(EDGES), size=120)]
    values = body + edges + [0.0] * int(rng.integers(1, 6))
    return [values[i] for i in rng.permutation(len(values))]


def feed(values: List[float]):
    """Both histograms fed ``values``; the old one over 40 slots of a
    5-slot window, so its ring recycles."""
    old, new = FrozenHistogram(window_slots=5), StreamingHistogram()
    for index, value in enumerate(values):
        old.observe(value, slot=index // 13)
        new.observe(value)
    return old, new


def lifetime(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    return {key: value for key, value in snapshot.items()
            if key != "window"}


def assert_same(old: FrozenHistogram, new: StreamingHistogram,
                rng: np.random.Generator) -> None:
    assert new.count == old.count
    assert repr(new.sum) == repr(old.sum)
    assert repr(new.min) == repr(old.min)
    assert repr(new.max) == repr(old.max)
    qs = [0.0, 1.0, 50.0, 95.0, 99.0, 100.0] + list(
        rng.uniform(0.0, 100.0, size=20))
    for q in qs:
        assert repr(new.quantile(q)) == repr(old.quantile(q)), q
    snapshot = new.snapshot()
    assert "window" not in snapshot
    assert repr(snapshot) == repr(lifetime(old.snapshot()))
    registry = MetricsRegistry()
    registry._histograms[("lat", ())] = new
    assert registry.to_prometheus().splitlines() \
        == frozen_prometheus("lat", old)


# ----------------------------------------------------------------------
# The A/B
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(6))
def test_same_statistics_on_seeded_streams(seed):
    old, new = feed(stream(seed))
    assert_same(old, new, np.random.default_rng(seed))


@pytest.mark.parametrize("seed", range(3))
def test_export_restore_round_trip_matches(seed):
    values = stream(100 + seed)
    half = len(values) // 2
    old, new = feed(values[:half])
    old = FrozenHistogram.from_state(old.export_state())
    new = StreamingHistogram.from_state(new.export_state())
    rng = np.random.default_rng(seed)
    assert_same(old, new, rng)
    for index, value in enumerate(values[half:]):
        old.observe(value, slot=100 + index // 13)
        new.observe(value)
    assert_same(old, new, rng)


def test_empty_histograms_match():
    old, new = feed([])
    assert_same(old, new, np.random.default_rng(0))


def test_single_zero_matches():
    old, new = feed([0.0])
    assert_same(old, new, np.random.default_rng(0))


def test_geometry_is_the_old_default():
    assert list(BUCKET_BOUNDS) == FrozenHistogram()._bounds

"""Metrics: slot-indexed counters, gauges and histograms.

The tracer (:mod:`repro.telemetry.tracer`) answers "where did the
milliseconds go" with spans; the decision journal
(:mod:`repro.telemetry.audit`) records *what* was decided.  This
module is the one store of *counts*: a traced or profiled sweep run
counts into a fresh registry, and a **live, unbounded**
:class:`~repro.service.loop.AdmissionService` keeps flat-memory series
that can be scraped at any instant:

* **counters** - monotonic totals (``registry.inc("service_shed_total")``,
  ``registry.inc("rounding_rounds", passes)``) keyed by name + labels;
* **gauges** - last-write-wins instantaneous values
  (``registry.set_gauge("engine_pending", depth)``);
* **histograms** - :class:`StreamingHistogram`: fixed log-scale
  buckets (bounded memory at any arrival count) plus a **ring-buffer
  sliding window keyed by slot index**, never by wall clock, so the
  registry's behaviour is a pure function of the observation sequence.

**Determinism contract.**  The registry itself never reads a clock and
never draws randomness; recording is strictly passive.  Attaching a
:class:`MetricsRegistry` to a run therefore cannot perturb journals,
records, or checkpoints (the inertness property test pins this), and
two runs of the same seed produce identical *deterministic* series.
The host-measured series (:func:`host_measured`: per-slot tick latency
in ``*_seconds`` histograms, ``service_alloc_*`` allocation gauges) are
advisory, exactly like ``runtime_s`` in the run ledger.  Wall-clock
*reads* stay confined to the exposition layer
(:mod:`repro.service.http`), which is DET010 allowlisted for that
reason.

The module-level *current registry* defaults to :data:`NULL_REGISTRY`,
a no-op mirroring :data:`~repro.telemetry.tracer.NULL_TRACER` and
:data:`~repro.telemetry.audit.NULL_JOURNAL`: uninstrumented runs pay
one attribute lookup and one no-op call per site.

Registry state round-trips through
:meth:`MetricsRegistry.export_state` /
:meth:`~MetricsRegistry.restore_state`, and the admission service
includes it in every :class:`~repro.service.checkpoint.ServiceCheckpoint`
- a resumed service reports **continuous** (non-resetting) series.  The
host-measured series are left out of the export, so a checkpoint's
bytes depend only on the run, profiled or not; they restart on resume.
"""

from __future__ import annotations

import bisect
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from ..exceptions import ConfigurationError

#: Quantiles reported by every histogram snapshot (percent).
SNAPSHOT_QUANTILES = (50.0, 95.0, 99.0)

#: Label set in canonical (sorted tuple) form.
LabelKey = Tuple[Tuple[str, Any], ...]


def label_key(labels: Mapping[str, Any]) -> LabelKey:
    """A label set in canonical form."""
    return tuple(sorted(labels.items()))


def host_measured(series: str) -> bool:
    """Whether a series (a bare name or a ``name{...}`` id) measures
    the executing host rather than the run: wall-clock ``*_seconds``
    and the ``--profile-mem`` allocation gauges ``service_alloc_*``.

    Checkpoints leave these out, and deterministic comparisons skip
    them.
    """
    name = series.partition("{")[0]
    return name.endswith("_seconds") or name.startswith("service_alloc_")


def series_name(name: str, labels: LabelKey) -> str:
    """Canonical flat series id: ``name{k="v",...}`` (sorted keys)."""
    if not labels:
        return name
    body = ",".join(f'{key}="{value}"' for key, value in labels)
    return f"{name}{{{body}}}"


class StreamingHistogram:
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
    def from_state(cls, state: Dict[str, Any]) -> "StreamingHistogram":
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
        return (f"StreamingHistogram(count={self.count}, "
                f"buckets={self.num_buckets}, "
                f"window={self.window_slots})")


class NullRegistry:
    """The zero-overhead default: every operation is a no-op."""

    enabled = False

    def advance_slot(self, slot: int) -> None:
        """Discard a slot advance."""

    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        """Discard a counter increment."""

    def set_gauge(self, name: str, value: float, **labels) -> None:
        """Discard a gauge write."""

    def observe(self, name: str, value: float,
                slot: Optional[int] = None, **labels) -> None:
        """Discard a histogram observation."""

    def counter(self, name: str, **labels) -> float:
        """A null registry has no counters."""
        return 0.0

    def gauge(self, name: str, **labels) -> Optional[float]:
        """A null registry has no gauges."""
        return None

    def histogram(self, name: str, **labels):
        """A null registry has no histograms."""
        return None

    def snapshot(self) -> Dict[str, Any]:
        """A null registry snapshots to an empty shell."""
        return {"slot": 0, "counters": {}, "gauges": {},
                "histograms": {}}

    def to_prometheus(self) -> str:
        """A null registry exposes nothing."""
        return ""

    def export_state(self) -> None:
        """A null registry carries no state."""
        return None

    def restore_state(self, state) -> None:
        """Nothing to restore into."""

    def __repr__(self) -> str:
        return "NullRegistry()"


class MetricsRegistry:
    """Deterministic, flat-memory metric store for a live service.

    All three families are keyed by ``(name, sorted labels)``.
    Histograms are created lazily on first :meth:`observe` with the
    registry's default geometry; call :meth:`register_histogram` first
    to customize one.

    The registry tracks a *current slot* (:meth:`advance_slot`, fed by
    the admission service's tick loop) so histogram observations made
    without an explicit slot land in the right sliding-window cell.

    Args:
        histogram_window_slots: default sliding-window length for
            lazily created histograms.
    """

    enabled = True

    def __init__(self, histogram_window_slots: int = 256) -> None:
        if histogram_window_slots < 1:
            raise ConfigurationError(
                f"histogram_window_slots must be >= 1, got "
                f"{histogram_window_slots}")
        self.histogram_window_slots = int(histogram_window_slots)
        self.slot = 0
        self._counters: Dict[Tuple[str, LabelKey], float] = {}
        self._gauges: Dict[Tuple[str, LabelKey], float] = {}
        self._histograms: Dict[Tuple[str, LabelKey],
                               StreamingHistogram] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def advance_slot(self, slot: int) -> None:
        """Move the registry's current slot forward (never back)."""
        if slot > self.slot:
            self.slot = slot

    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        """Add ``value`` to the monotonic counter ``name`` + labels."""
        key = (name, label_key(labels))
        self._counters[key] = self._counters.get(key, 0.0) + float(value)

    def set_gauge(self, name: str, value: float, **labels) -> None:
        """Set the instantaneous value of a gauge."""
        self._gauges[(name, label_key(labels))] = float(value)

    def register_histogram(self, name: str, lowest: float = 1e-6,
                           growth: float = 2.0 ** 0.5,
                           num_buckets: int = 48,
                           window_slots: Optional[int] = None,
                           **labels) -> StreamingHistogram:
        """Create (or return) a histogram with explicit geometry."""
        key = (name, label_key(labels))
        existing = self._histograms.get(key)
        if existing is not None:
            return existing
        hist = StreamingHistogram(
            lowest=lowest, growth=growth, num_buckets=num_buckets,
            window_slots=(self.histogram_window_slots
                          if window_slots is None else window_slots))
        self._histograms[key] = hist
        return hist

    def observe(self, name: str, value: float,
                slot: Optional[int] = None, **labels) -> None:
        """Record one histogram observation (current slot by default)."""
        key = (name, label_key(labels))
        hist = self._histograms.get(key)
        if hist is None:
            hist = self.register_histogram(name, **labels)
        hist.observe(value, self.slot if slot is None else slot)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels) -> float:
        """Current value of one counter (0.0 when never incremented)."""
        return self._counters.get((name, label_key(labels)), 0.0)

    def gauge(self, name: str, **labels) -> Optional[float]:
        """Current value of one gauge (None when never set)."""
        return self._gauges.get((name, label_key(labels)))

    def histogram(self, name: str,
                  **labels) -> Optional[StreamingHistogram]:
        """One histogram (None when never observed)."""
        return self._histograms.get((name, label_key(labels)))

    def snapshot(self) -> Dict[str, Any]:
        """The whole registry as a canonical JSON-able dict.

        Series are flattened to ``name{k="v"}`` ids and emitted in
        sorted order, so two registries with the same contents snapshot
        to identical bytes.
        """
        counters = {series_name(name, labels): self._counters[key]
                    for key in sorted(self._counters)
                    for name, labels in (key,)}
        gauges = {series_name(name, labels): self._gauges[key]
                  for key in sorted(self._gauges)
                  for name, labels in (key,)}
        histograms = {
            series_name(name, labels): self._histograms[key].snapshot()
            for key in sorted(self._histograms)
            for name, labels in (key,)}
        return {"slot": self.slot, "counters": counters,
                "gauges": gauges, "histograms": histograms}

    def to_prometheus(self) -> str:
        """Prometheus text exposition (format 0.0.4) of the registry.

        Counters and gauges render one sample per series; histograms
        render cumulative ``_bucket{le=...}`` samples plus ``_sum`` and
        ``_count``, the standard Prometheus histogram shape.
        """
        lines: List[str] = []
        seen_types: set = set()

        def type_line(name: str, family: str) -> None:
            if name not in seen_types:
                seen_types.add(name)
                lines.append(f"# TYPE {name} {family}")

        for key in sorted(self._counters):
            name, labels = key
            type_line(name, "counter")
            lines.append(f"{series_name(name, labels)} "
                         f"{self._counters[key]:g}")
        for key in sorted(self._gauges):
            name, labels = key
            type_line(name, "gauge")
            lines.append(f"{series_name(name, labels)} "
                         f"{self._gauges[key]:g}")
        for key in sorted(self._histograms):
            name, labels = key
            hist = self._histograms[key]
            type_line(name, "histogram")
            cumulative = 0
            for i, bucket_count in enumerate(hist._total):
                cumulative += bucket_count
                upper = (hist._bounds[i] if i < len(hist._bounds)
                         else float("inf"))
                le = "+Inf" if upper == float("inf") else f"{upper:g}"
                bucket_labels = labels + (("le", le),)
                lines.append(
                    f"{series_name(name + '_bucket', bucket_labels)} "
                    f"{cumulative}")
            lines.append(f"{series_name(name + '_sum', labels)} "
                         f"{hist.sum:g}")
            lines.append(f"{series_name(name + '_count', labels)} "
                         f"{hist.count}")
        return "\n".join(lines) + ("\n" if lines else "")

    # ------------------------------------------------------------------
    # Checkpoint round-trip
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, Any]:
        """Snapshot the registry's deterministic series for a service
        checkpoint: every series but the :func:`host_measured` ones."""
        def run_keys(series):
            return [key for key in sorted(series)
                    if not host_measured(key[0])]

        return {
            "slot": self.slot,
            "histogram_window_slots": self.histogram_window_slots,
            "counters": {key: self._counters[key]
                         for key in run_keys(self._counters)},
            "gauges": {key: self._gauges[key]
                       for key in run_keys(self._gauges)},
            "histograms": {key: self._histograms[key].export_state()
                           for key in run_keys(self._histograms)},
        }

    def restore_state(self, state: Optional[Dict[str, Any]]) -> None:
        """Install a snapshot produced by :meth:`export_state`.

        ``None`` (the null registry's export) leaves the registry
        untouched.
        """
        if state is None:
            return
        self.slot = int(state["slot"])
        self.histogram_window_slots = int(
            state.get("histogram_window_slots",
                      self.histogram_window_slots))
        self._counters = dict(state["counters"])
        self._gauges = dict(state["gauges"])
        self._histograms = {
            key: StreamingHistogram.from_state(hist_state)
            for key, hist_state in state["histograms"].items()}

    def clear(self) -> None:
        """Drop everything recorded so far (slot included)."""
        self.slot = 0
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def __repr__(self) -> str:
        return (f"MetricsRegistry(slot={self.slot}, "
                f"counters={len(self._counters)}, "
                f"gauges={len(self._gauges)}, "
                f"histograms={len(self._histograms)})")


#: The shared no-op registry (also the initial current registry).
NULL_REGISTRY = NullRegistry()

_current = NULL_REGISTRY


def get_metrics():
    """The process-local current registry (:data:`NULL_REGISTRY`
    default)."""
    return _current


def set_metrics(registry: Optional[MetricsRegistry]):
    """Install ``registry`` as current (None restores the null one).

    Returns:
        The registry now current.
    """
    global _current
    _current = registry if registry is not None else NULL_REGISTRY
    return _current


@contextmanager
def use_metrics(registry: Optional[MetricsRegistry]) -> Iterator[Any]:
    """Temporarily install a registry; always restores the previous."""
    previous = _current
    set_metrics(registry)
    try:
        yield get_metrics()
    finally:
        set_metrics(previous)

"""Meters for the quantities the paper's figures plot.

Figures 3-6 report three series per algorithm: **total reward**,
**average latency of a request**, and **running time**.  The meters
here accumulate those from per-request events so both the offline and
online paths share one definition of each metric.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from ..core.latency import meets_deadline
from ..exceptions import ConfigurationError


class RewardMeter:
    """Accumulates per-request rewards."""

    def __init__(self) -> None:
        self._rewards: List[float] = []

    def record(self, reward: float) -> None:
        """Record one request's earned reward (0 for failures)."""
        if reward < 0:
            raise ConfigurationError(f"reward must be >= 0, got {reward}")
        self._rewards.append(float(reward))

    @property
    def total(self) -> float:
        """Total reward."""
        return float(sum(self._rewards))

    @property
    def num_requests(self) -> int:
        """Requests recorded."""
        return len(self._rewards)

    @property
    def num_rewarded(self) -> int:
        """Requests with positive reward."""
        return sum(1 for r in self._rewards if r > 0)

    def mean(self) -> float:
        """Mean reward per recorded request (0 when empty)."""
        if not self._rewards:
            return 0.0
        return self.total / len(self._rewards)


class LatencyMeter:
    """Accumulates experienced latencies of admitted requests."""

    def __init__(self) -> None:
        self._latencies_ms: List[float] = []
        self._deadline_hits = 0

    def record(self, latency_ms: float, deadline_ms: float) -> None:
        """Record one admitted request's experienced latency."""
        if latency_ms < 0:
            raise ConfigurationError(
                f"latency must be >= 0, got {latency_ms}")
        self._latencies_ms.append(float(latency_ms))
        if meets_deadline(latency_ms, deadline_ms):
            self._deadline_hits += 1

    @property
    def count(self) -> int:
        """Latencies recorded."""
        return len(self._latencies_ms)

    def average_ms(self) -> float:
        """Mean latency (0 when empty)."""
        if not self._latencies_ms:
            return 0.0
        return float(np.mean(self._latencies_ms))

    def percentile_ms(self, q: float) -> float:
        """The q-th percentile latency (0 when empty)."""
        if not 0 <= q <= 100:
            raise ConfigurationError(f"percentile must be in [0, 100]: {q}")
        if not self._latencies_ms:
            return 0.0
        return float(np.percentile(self._latencies_ms, q))

    def deadline_hit_rate(self) -> float:
        """Fraction of recorded requests meeting their deadline."""
        if not self._latencies_ms:
            return 0.0
        return self._deadline_hits / len(self._latencies_ms)


class RuntimeMeter:
    """Wall-clock running-time accumulator (Fig. 3(c))."""

    def __init__(self) -> None:
        self._total_s = 0.0
        self._started: Optional[float] = None

    def __enter__(self) -> "RuntimeMeter":
        if self._started is not None:
            # Re-entering silently would reset the start stamp and
            # drop the time accrued since the outer __enter__.
            raise ConfigurationError(
                "RuntimeMeter.__enter__ while already started; the "
                "meter is not re-entrant")
        self._started = time.perf_counter()  # repro: noqa DET001 -- advisory runtime metric
        return self

    def __exit__(self, *exc) -> None:
        if self._started is None:
            # Not an assert: those vanish under ``python -O``, and a
            # mismatched __exit__ must fail loudly either way.
            raise ConfigurationError(
                "RuntimeMeter.__exit__ without a matching __enter__")
        self._total_s += time.perf_counter() - self._started  # repro: noqa DET001 -- advisory runtime metric
        self._started = None

    def add(self, seconds: float) -> None:
        """Add externally measured time."""
        if seconds < 0:
            raise ConfigurationError(f"time must be >= 0, got {seconds}")
        self._total_s += seconds

    @property
    def total_s(self) -> float:
        """Total measured seconds."""
        return self._total_s


def jains_fairness_index(values) -> float:
    """Jain's fairness index ``(sum x)^2 / (n * sum x^2)``.

    1.0 = perfectly equal; 1/n = maximally unfair.  Used on per-request
    waiting times to quantify the scheduling starvation that Section V
    sets out to avoid (a starving minority drives the index down).
    An all-zero (ideal) vector is perfectly equal and scores 1.0; any
    other input is evaluated exactly - no epsilon shift, which would
    distort the index whenever legitimate values sit near its scale.

    Args:
        values: non-negative per-request values (e.g. waiting ms).

    Returns:
        The index in (0, 1]; 1.0 for empty input.
    """
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        return 1.0
    if np.any(data < 0):
        raise ConfigurationError("fairness values must be >= 0")
    if not data.any():
        return 1.0
    return float(data.sum() ** 2
                 / (data.size * (data ** 2).sum()))


def summarize(reward: RewardMeter, latency: LatencyMeter,
              runtime: RuntimeMeter) -> Dict[str, float]:
    """One row of the figures' data: the three plotted series."""
    return {
        "total_reward": reward.total,
        "avg_latency_ms": latency.average_ms(),
        "runtime_s": runtime.total_s,
    }

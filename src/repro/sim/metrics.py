"""Jain's fairness index over per-request values.

The figures' series (total reward, average latency, running time) come
from :class:`~repro.core.assignment.ScheduleResult`; this module keeps
only the fairness measure of the starvation ablation
(``benchmarks/test_ablation_fairness.py``).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError


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

"""Machine-speed reference for the end-to-end benchmark.

The benchmark runs on a shared host whose speed drifts: the same op,
repeated for minutes in one process, takes up to twice as long in some
stretches as in others, and CPU time drifts with wall time, so no
per-run statistic of raw times repeats from run to run.  A fixed
reference chunk that does not touch the program is therefore timed
between ops, at most every :data:`SAMPLE_EVERY_S` seconds, and each
timed interval is reported at *reference speed*::

    scaled = raw * NOMINAL_S / median(reference times around the interval)

so a scaled time is what the interval would have taken on a machine on
which the chunk takes :data:`NOMINAL_S`.  The chunk mixes the kinds of
work the program does: an interpreter loop, building, sorting and
grouping small records, allocating small objects, a little numpy and a
small HiGHS LP solve.
"""

from __future__ import annotations

import bisect
import gc
import math
import statistics
import time
from typing import Callable, List

import numpy as np
from scipy.optimize import linprog

#: Scale of the reported times (seconds): about the time
#: :func:`reference_chunk` takes on the VM whose numbers the README
#: records, in its faster stretches.
NOMINAL_S = 0.005
#: Least time between two reference samples.
SAMPLE_EVERY_S = 0.2
#: Samples this close to an interval (either side) set its speed ...
WINDOW_S = 0.5
#: ... and never fewer than this many, the nearest ones in time.
MIN_SAMPLES = 3

_LP_ROWS, _LP_COLUMNS = 20, 30
_LP_A = np.random.default_rng(0).random((_LP_ROWS, _LP_COLUMNS))
_LP_C = -np.random.default_rng(1).random(_LP_COLUMNS)
_LP_B = np.full(_LP_ROWS, 3.0)


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y

    def cost(self, k: int) -> float:
        return self.x * k + self.y


def reference_chunk() -> float:
    """A fixed piece of work, about :data:`NOMINAL_S` long.

    Runs with the garbage collector paused and frees all it allocates,
    so it neither pays for nor shifts the program's collections.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        total = 0
        for i in range(6000):
            total += i * i % 7
        records = [{"id": i, "w": (i * 7919) % 1009 / 1009.0,
                    "s": (i * 31) % 17} for i in range(300)]
        records.sort(key=lambda record: record["w"])
        groups: dict = {}
        for record in records:
            if record["s"] in (1, 3, 5, 7):
                total += math.sqrt(record["w"]) * record["s"]
            groups.setdefault(record["s"], []).append(record["id"])
        points = [{"id": i, "cost": [_Point(i, 1.0).cost(2), i + 1.0],
                   "key": (i, "a")} for i in range(1500)]
        total += len(points)
        gram = _LP_A @ _LP_A.T
        total += int(np.argsort(gram.ravel())[0])
        linprog(_LP_C, A_ub=_LP_A, b_ub=_LP_B, bounds=(0, 1), method="highs")
        return total
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Times the reference chunk and scales intervals to reference speed.

    Args:
        clock: time source (seconds); tests pass a fake one.
        chunk: the reference work; tests pass a stub.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 chunk: Callable[[], object] = reference_chunk) -> None:
        self.clock = clock
        self.chunk = chunk
        #: Start and duration of every sample, in time order.
        self.starts: List[float] = []
        self.seconds: List[float] = []
        self.last = -math.inf

    def warm_up(self) -> None:
        """Run the chunk untimed, so first-call costs stay out of samples."""
        for _ in range(3):
            self.chunk()

    def sample(self) -> None:
        began = self.clock()
        self.chunk()
        self.last = self.clock()
        self.starts.append(began)
        self.seconds.append(self.last - began)

    def maybe_sample(self) -> None:
        """Sample unless the last sample is under SAMPLE_EVERY_S old."""
        if self.clock() - self.last >= SAMPLE_EVERY_S:
            self.sample()

    def speed(self, start: float, end: float) -> float:
        """NOMINAL_S over the median reference time around ``[start, end]``.

        Above 1 when the machine ran faster than the reference machine.
        """
        low = bisect.bisect_left(self.starts, start - WINDOW_S)
        high = bisect.bisect_right(self.starts, end + WINDOW_S)
        near = self.seconds[low:high]
        if len(near) < MIN_SAMPLES:
            middle = (start + end) / 2.0
            order = sorted(range(len(self.starts)),
                           key=lambda i: abs(self.starts[i] - middle))
            near = [self.seconds[i] for i in order[:MIN_SAMPLES]]
        return NOMINAL_S / statistics.median(near)

    def scale(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, at reference speed."""
        return seconds * self.speed(start, start + seconds)

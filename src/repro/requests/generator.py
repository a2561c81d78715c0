"""Workload generators: batch and slotted-arrival AR request sets.

The offline experiments (Fig. 3, Fig. 5) use a batch of non-preemptive
requests all present at time 0; the online experiments (Fig. 4, Fig. 6)
spread arrivals over a monitoring horizon of ``T`` time slots.  Both
draw per-request parameters from the Section VI-A defaults captured in
:class:`~repro.config.RequestConfig`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..config import RequestConfig
from ..exceptions import ConfigurationError
from ..network.topology import MECNetwork
from ..rng import RngLike, ensure_rng
from .distributions import RateGrid, decaying_distribution_on_grid
from .request import ARRequest
from .tasks import standard_ar_pipeline

_WORD32 = np.uint64(0xFFFFFFFF)


def lemire_rejects(words: np.ndarray, n: int) -> np.ndarray:
    """Whether numpy's bounded ``integers(0, n)`` rejects each 32-bit word.

    numpy draws a bounded integer below ``2**32`` with Lemire's method:
    it multiplies a 32-bit word by ``n`` and rejects the word, drawing
    another, iff ``(w * n) mod 2**32 < 2**32 mod n``.

    Args:
        words: 32-bit words, as a ``uint64`` array.
        n: the number of values, ``2 <= n < 2**32``.
    """
    return (words * np.uint64(n)) & _WORD32 < np.uint64(2 ** 32 % n)


class RequestGenerator:
    """Draws AR requests consistent with the paper's parameter settings.

    Args:
        config: workload parameters (validated at construction).
        network: the MEC network - requests attach to a station drawn
            uniformly at random (users are spread over the coverage
            area, each served by its closest base station).
        rng: seed or generator for all draws.
    """

    def __init__(self, config: RequestConfig, network: MECNetwork,
                 rng: RngLike = None) -> None:
        config.validate()
        self._config = config
        self._rng = ensure_rng(rng)
        # Everything below is the same for every request: build and
        # validate it once, then share it read-only.
        self._grid = RateGrid.decaying(config.data_rate_range_mbps,
                                       config.num_rate_levels,
                                       config.rate_decay)
        station_ids = np.array(network.station_ids)
        station_ids.flags.writeable = False
        self._station_ids = station_ids
        #: Raw words one :meth:`skip_one` draws: the station and the
        #: task count share one (a low and a high 32-bit half), then
        #: one per double.
        self._skip_stride = 1 + 2 + self._grid.rates.size
        #: ``(stations, task counts)`` when :meth:`skip` may block-draw:
        #: a PCG64 stream and two bounded draws of 2 to 2**32 - 1
        #: values each (one value draws nothing; more takes 64 bits).
        bounds = (station_ids.size,
                  config.tasks_range[1] + 1 - config.tasks_range[0])
        self._skip_bounds = (
            bounds if type(self._rng.bit_generator) is np.random.PCG64
            and all(2 <= n < 2 ** 32 for n in bounds) else None)

    @property
    def config(self) -> RequestConfig:
        """The workload parameters."""
        return self._config

    @property
    def rng(self) -> np.random.Generator:
        """The generator's random stream (checkpointable state)."""
        return self._rng

    def generate_one(self, request_id: int, arrival_slot: int = 0,
                     serving_station: Optional[int] = None) -> ARRequest:
        """Draw one request.

        Args:
            request_id: id to assign.
            arrival_slot: arrival time slot ``a_j``.
            serving_station: attachment station; drawn uniformly when
                ``None``.
        """
        cfg = self._config
        rng = self._rng
        if serving_station is None:
            # The draw rng.choice(ids) makes, without its argument checks.
            station_ids = self._station_ids
            serving_station = int(
                station_ids[rng.integers(0, station_ids.size)])
        num_tasks = int(rng.integers(cfg.tasks_range[0],
                                     cfg.tasks_range[1] + 1))
        lo, hi = cfg.reward_unit_range
        unit_price = lo + (hi - lo) * rng.random()  # unchecked uniform
        distribution = decaying_distribution_on_grid(
            self._grid, cfg.data_rate_range_mbps, unit_price, rng)
        return ARRequest(
            request_id=request_id,
            serving_station=serving_station,
            pipeline=standard_ar_pipeline(num_tasks),
            distribution=distribution,
            deadline_ms=cfg.deadline_ms,
            arrival_slot=arrival_slot,
            stream_duration_slots=cfg.stream_duration_slots,
            c_unit_mhz_per_mbps=cfg.c_unit_mhz_per_mbps,
        )

    def skip_one(self) -> None:
        """Make :meth:`generate_one`'s draws and build nothing.

        Leaves the random stream exactly where ``generate_one()`` with a
        drawn station would, for a request the caller discards unseen.
        Every draw added to :meth:`generate_one` must be added here.
        """
        cfg = self._config
        rng = self._rng
        rng.integers(0, self._station_ids.size)
        rng.integers(cfg.tasks_range[0], cfg.tasks_range[1] + 1)
        # The unit price, the billed rate and one jitter per level:
        # one block draw returns the same doubles as the three calls.
        rng.random(2 + self._grid.rates.size)

    def skip(self, count: int) -> None:
        """Make ``count`` × :meth:`skip_one`'s draws, in one block.

        On a PCG64 stream with no buffered 32-bit half, ``count``
        requests that draw no rejected word take ``count × stride`` raw
        words: the first word of each feeds the station (low half) and
        task count (high half) draws, the rest its doubles.  So all but
        the last request come from one ``random_raw`` block, checked
        word by word with :func:`lemire_rejects`, and the last is one
        :meth:`skip_one`, which leaves the buffered half where the loop
        would.  Otherwise (a word that could be rejected, a buffered
        half on entry, a bound outside ``2 .. 2**32 - 1``, another bit
        generator) the state is restored and ``skip_one`` runs
        ``count`` times.  Either way the stream ends exactly where
        ``count`` × :meth:`skip_one` leaves it.
        """
        bounds = self._skip_bounds
        if count > 1 and bounds is not None:
            bit_generator = self._rng.bit_generator
            saved = bit_generator.state
            if not saved["has_uint32"]:
                stride = self._skip_stride
                first = bit_generator.random_raw((count - 1) * stride)[::stride]
                if not (lemire_rejects(first & _WORD32, bounds[0]).any()
                        or lemire_rejects(first >> np.uint64(32),
                                          bounds[1]).any()):
                    self.skip_one()
                    return
                bit_generator.state = saved
        for _ in range(count):
            self.skip_one()

    def generate_batch(self, num_requests: Optional[int] = None
                       ) -> List[ARRequest]:
        """Draw a batch workload, all arriving at slot 0."""
        n = self._config.num_requests if num_requests is None else num_requests
        if n < 0:
            raise ConfigurationError(f"num_requests must be >= 0, got {n}")
        return [self.generate_one(request_id=j) for j in range(n)]

    def generate_arrivals(self, num_requests: Optional[int] = None,
                          horizon_slots: int = 200) -> List[ARRequest]:
        """Draw a slotted workload with uniform arrivals over a horizon.

        Arrival slots are sorted ascending so the list can be consumed
        sequentially by the online engine.
        """
        n = self._config.num_requests if num_requests is None else num_requests
        if n < 0:
            raise ConfigurationError(f"num_requests must be >= 0, got {n}")
        if horizon_slots < 1:
            raise ConfigurationError(
                f"horizon must be >= 1 slot, got {horizon_slots}")
        slots = np.sort(self._rng.integers(0, horizon_slots, size=n))
        return [self.generate_one(request_id=j, arrival_slot=int(slots[j]))
                for j in range(n)]


def slotted_arrivals(requests: Sequence[ARRequest],
                     horizon_slots: int) -> List[List[ARRequest]]:
    """Bucket requests by arrival slot.

    Args:
        requests: any iterable of requests.
        horizon_slots: length of the monitoring period ``T``; requests
            arriving after the horizon are dropped (they cannot be
            scheduled inside the monitored window).

    Returns:
        ``buckets`` with ``buckets[t]`` = requests arriving at slot t.
    """
    if horizon_slots < 1:
        raise ConfigurationError(
            f"horizon must be >= 1 slot, got {horizon_slots}")
    buckets: List[List[ARRequest]] = [[] for _ in range(horizon_slots)]
    for request in requests:
        if 0 <= request.arrival_slot < horizon_slots:
            buckets[request.arrival_slot].append(request)
    return buckets

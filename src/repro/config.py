"""Experiment configuration with the paper's default parameters.

Section VI-A of the paper fixes the simulation defaults; this module
captures them in a single validated dataclass so every algorithm,
simulator, and benchmark shares one source of truth.

Paper defaults (Section VI-A):

* 20 base stations, GT-ITM style topology.
* Computing capacity per station drawn from [3000, 3600] MHz.
* Resource slot size ``C_l`` = 1000 MHz.
* Data rate of each request drawn from [30, 50] MB/s; 3-5 tasks per
  request (the four-stage AR pipeline of [5] by default).
* ``C_unit`` = 20 MHz per MB/s of stream rate.
* Maximum response delay 200 ms; time slot length 0.05 s.
* Reward per unit data rate in [12, 15] dollars.
* Up to 150 requests by default; figures sweep 100-300.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Tuple

from .exceptions import ConfigurationError


@dataclass(frozen=True)
class NetworkConfig:
    """Parameters of the MEC network substrate.

    Attributes:
        num_base_stations: number of 5G base stations ``|BS|``.
        capacity_range_mhz: uniform range for per-station computing
            capacity ``C(bs_i)``.
        slot_size_mhz: resource-slot capacity ``C_l``.
        waxman_alpha: Waxman model edge-probability scale (GT-ITM uses
            the Waxman model for flat random graphs).
        waxman_beta: Waxman model distance decay.
        link_delay_range_ms: uniform range for the per-link transmission
            delay of one ``rho_unit`` of data.
    """

    num_base_stations: int = 20
    capacity_range_mhz: Tuple[float, float] = (3000.0, 3600.0)
    slot_size_mhz: float = 1000.0
    waxman_alpha: float = 0.6
    waxman_beta: float = 0.4
    link_delay_range_ms: Tuple[float, float] = (2.0, 5.0)

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent values."""
        if self.num_base_stations < 1:
            raise ConfigurationError(
                f"need at least one base station, got {self.num_base_stations}")
        lo, hi = self.capacity_range_mhz
        if not 0 < lo <= hi:
            raise ConfigurationError(
                f"invalid capacity range {self.capacity_range_mhz}")
        if self.slot_size_mhz <= 0:
            raise ConfigurationError(
                f"slot size must be positive, got {self.slot_size_mhz}")
        if self.slot_size_mhz > hi:
            raise ConfigurationError(
                "slot size exceeds the maximum station capacity; every "
                "station must contain at least one resource slot")
        if not 0 < self.waxman_alpha <= 1 or not 0 < self.waxman_beta <= 1:
            raise ConfigurationError(
                "Waxman parameters must lie in (0, 1]")
        dlo, dhi = self.link_delay_range_ms
        if not 0 <= dlo <= dhi:
            raise ConfigurationError(
                f"invalid link delay range {self.link_delay_range_ms}")


@dataclass(frozen=True)
class RequestConfig:
    """Parameters of the AR request workload.

    Attributes:
        num_requests: default workload size ``|R|``.
        data_rate_range_mbps: support of the data-rate distribution
            (MB/s), paper default [30, 50].
        num_rate_levels: size of the discrete set ``DR`` of possible
            data rates.
        rate_decay: geometric decay factor of the probability of larger
            data rates ("the probability of requests with large data
            rates is usually small", Section IV-A).
        tasks_range: (min, max) number of pipeline tasks per request.
        c_unit_mhz_per_mbps: ``C_unit`` - MHz consumed per MB/s.
        reward_unit_range: per-request unit price range ($ per MB/s).
        deadline_ms: latency requirement ``D_hat`` (200 ms).
        proc_delay_range_ms: uniform range for the per-station delay of
            processing one ``rho_unit`` by one task.
        stream_duration_slots: how many time slots a request's stream
            lasts in the online (preemptive) setting.
    """

    num_requests: int = 150
    data_rate_range_mbps: Tuple[float, float] = (30.0, 50.0)
    num_rate_levels: int = 5
    rate_decay: float = 0.6
    tasks_range: Tuple[int, int] = (3, 5)
    c_unit_mhz_per_mbps: float = 20.0
    reward_unit_range: Tuple[float, float] = (12.0, 15.0)
    deadline_ms: float = 200.0
    proc_delay_range_ms: Tuple[float, float] = (5.0, 15.0)
    stream_duration_slots: int = 40

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent values."""
        if self.num_requests < 0:
            raise ConfigurationError(
                f"num_requests must be >= 0, got {self.num_requests}")
        lo, hi = self.data_rate_range_mbps
        if not 0 < lo <= hi:
            raise ConfigurationError(
                f"invalid data rate range {self.data_rate_range_mbps}")
        if self.num_rate_levels < 1:
            raise ConfigurationError(
                f"need at least one rate level, got {self.num_rate_levels}")
        if not 0 < self.rate_decay <= 1:
            raise ConfigurationError(
                f"rate_decay must lie in (0, 1], got {self.rate_decay}")
        tlo, thi = self.tasks_range
        if not 1 <= tlo <= thi:
            raise ConfigurationError(f"invalid tasks range {self.tasks_range}")
        if not 0 < self.c_unit_mhz_per_mbps < math.inf:
            raise ConfigurationError(
                "C_unit must be finite and positive, got "
                f"{self.c_unit_mhz_per_mbps}")
        rlo, rhi = self.reward_unit_range
        if not 0 <= rlo <= rhi < math.inf:
            raise ConfigurationError(
                f"invalid reward range {self.reward_unit_range}")
        # An infinite deadline is legal (no request ever misses it).
        if not self.deadline_ms > 0:
            raise ConfigurationError(
                f"deadline must be positive, got {self.deadline_ms}")
        plo, phi = self.proc_delay_range_ms
        if not 0 <= plo <= phi:
            raise ConfigurationError(
                f"invalid processing delay range {self.proc_delay_range_ms}")
        if self.stream_duration_slots < 1:
            raise ConfigurationError(
                "stream_duration_slots must be >= 1, got "
                f"{self.stream_duration_slots}")


@dataclass(frozen=True)
class OnlineConfig:
    """Parameters of the dynamic (preemptive) setting and its bandit.

    Attributes:
        horizon_slots: monitoring period ``T`` in time slots.
        slot_length_ms: time slot length (0.05 s = 50 ms).
        threshold_range_mhz: range ``[C^th_min, C^th_max]`` of the
            minimum per-request resource share.
        num_arms: ``kappa`` - number of discretized threshold arms.
        confidence_scale: multiplier inside the UCB/LCB confidence
            radius ``r_t(a) = scale * sqrt(2 log T / n_a)``.
    """

    horizon_slots: int = 100
    slot_length_ms: float = 50.0
    threshold_range_mhz: Tuple[float, float] = (200.0, 1000.0)
    num_arms: int = 9
    confidence_scale: float = 1.0

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent values."""
        if self.horizon_slots < 1:
            raise ConfigurationError(
                f"horizon must be >= 1 slot, got {self.horizon_slots}")
        if self.slot_length_ms <= 0:
            raise ConfigurationError(
                f"slot length must be positive, got {self.slot_length_ms}")
        lo, hi = self.threshold_range_mhz
        if not 0 < lo <= hi:
            raise ConfigurationError(
                f"invalid threshold range {self.threshold_range_mhz}")
        if self.num_arms < 1:
            raise ConfigurationError(
                f"need at least one arm, got {self.num_arms}")
        if self.confidence_scale <= 0:
            raise ConfigurationError(
                "confidence_scale must be positive, got "
                f"{self.confidence_scale}")


@dataclass(frozen=True)
class SimulationConfig:
    """Top-level configuration bundling all substrates.

    Use :func:`paper_default_config` for the Section VI-A defaults, and
    :meth:`SimulationConfig.with_overrides` (or :func:`dataclasses.replace`
    on the sub-configs) to build sweep variants.
    """

    network: NetworkConfig = field(default_factory=NetworkConfig)
    requests: RequestConfig = field(default_factory=RequestConfig)
    online: OnlineConfig = field(default_factory=OnlineConfig)
    seed: int = 0

    def validate(self) -> "SimulationConfig":
        """Validate all sub-configs and return self for chaining."""
        self.network.validate()
        self.requests.validate()
        self.online.validate()
        return self

    def with_overrides(self, **kwargs) -> "SimulationConfig":
        """Return a copy with top-level fields replaced.

        Nested overrides use dotted helpers::

            cfg.with_overrides(network=replace(cfg.network,
                                               num_base_stations=50))
        """
        return replace(self, **kwargs).validate()


def paper_default_config(seed: int = 0) -> SimulationConfig:
    """The Section VI-A default parameter set, validated."""
    return SimulationConfig(seed=seed).validate()

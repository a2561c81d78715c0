"""Joint (data-rate, reward) distributions over the discrete set ``DR``.

Section III-B/C: the actual data rate of an AR request is unknown until
it is scheduled; only a distribution over a finite set ``DR`` of
possible rates is known, and for each rate ``rho`` there is a pair
``(pi_{j,rho}, RD_{j,rho})`` - the probability of that rate and the
reward the provider earns if the request realizes it.

Crucially the paper does *not* assume rewards proportional to demand:
each request carries its own reward column, and algorithms only ever
see the distribution (plus realized values *after* scheduling).

This module also provides the truncated expectations
``E[min(rho, c)]`` that appear in the LP constraint (10) and in LP-PT's
constraint (23).
"""

from __future__ import annotations

from typing import Any, Dict, Sequence, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from ..rng import RngLike, ensure_rng

_PROB_TOL = 1e-9

#: Relative magnitude of the per-level reward jitter (Section VI-A:
#: "rewards of implementing requests with the same data rate vary").
DEFAULT_PRICE_JITTER = 0.05


class RateGrid:
    """A validated support ``DR`` and its rate probabilities.

    Both arrays are read-only, so one grid can back the distribution of
    every request drawn from the same workload parameters.

    Args:
        rates_mbps: the support (MB/s), positive and strictly
            increasing.
        probabilities: ``pi_rho`` for each rate; non-negative (up to a
            rounding tolerance) and summing to 1.  Stored clipped at 0
            and renormalized.

    Attributes:
        rates: the support as a read-only float array.
        probabilities: the normalized probabilities, read-only.
        expected_rate: ``E[rho]`` over the grid, computed once.
    """

    __slots__ = ("rates", "probabilities", "expected_rate")

    def __init__(self, rates_mbps: Sequence[float],
                 probabilities: Sequence[float]) -> None:
        rates = np.array(rates_mbps, dtype=float)
        probs = np.asarray(probabilities, dtype=float)
        if rates.ndim != 1 or rates.size == 0:
            raise ConfigurationError("rates must be a non-empty 1-D sequence")
        if rates.shape != probs.shape:
            raise ConfigurationError(
                "rates and probabilities must have equal length, "
                f"got {rates.size}, {probs.size}")
        if np.any(rates <= 0):
            raise ConfigurationError("all rates must be positive")
        if np.any(np.diff(rates) <= 0):
            raise ConfigurationError("rates must be strictly increasing")
        if np.any(probs < -_PROB_TOL):
            raise ConfigurationError("probabilities must be non-negative")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-6:
            raise ConfigurationError(
                f"probabilities must sum to 1, got {total}")
        probs = np.clip(probs, 0.0, None) / total
        rates.flags.writeable = False
        probs.flags.writeable = False
        self.rates = rates
        self.probabilities = probs
        self.expected_rate = float(probs @ rates)

    @classmethod
    def decaying(cls, rate_range_mbps: Tuple[float, float], num_levels: int,
                 decay: float) -> "RateGrid":
        """The Section VI grid: evenly spaced rates, geometric decay.

        Args:
            rate_range_mbps: (min, max) of the grid; a single level sits
                at the midpoint.
            num_levels: size of the grid ``|DR|``.
            decay: geometric decay factor in (0, 1]; 1 gives a uniform
                distribution over rates.
        """
        lo, hi = rate_range_mbps
        if not 0 < lo <= hi:
            raise ConfigurationError(f"invalid rate range {rate_range_mbps}")
        if num_levels < 1:
            raise ConfigurationError(
                f"need at least one level, got {num_levels}")
        if not 0 < decay <= 1:
            raise ConfigurationError(f"decay must lie in (0, 1], got {decay}")
        if num_levels == 1:
            rates = np.array([(lo + hi) / 2.0])
        else:
            rates = np.linspace(lo, hi, num_levels)
        weights = decay ** np.arange(num_levels, dtype=float)
        return cls(rates, weights / weights.sum())


class RateRewardDistribution:
    """A discrete joint distribution over (data rate, reward) pairs.

    Args:
        rates_mbps: the support ``DR`` (MB/s), strictly increasing.
        probabilities: ``pi_{j,rho}`` for each rate; must sum to 1.
        rewards: ``RD_{j,rho}`` for each rate (dollars).

    All three sequences must have equal length >= 1.  Distributions
    built by :meth:`on_grid` share their grid's arrays.

    ``E[rho]`` depends on the grid alone, so it is copied from the grid
    instead of recomputed per call; :meth:`reward_prefixes` is computed
    on first use.  Both are derived, not state: pickles hold only the
    three arrays (a checkpoint's bytes do not depend on the caches) and
    loading re-derives them.
    """

    def __init__(self, rates_mbps: Sequence[float],
                 probabilities: Sequence[float],
                 rewards: Sequence[float]) -> None:
        self._attach(RateGrid(rates_mbps, probabilities),
                     np.asarray(rewards, dtype=float))

    @classmethod
    def on_grid(cls, grid: RateGrid,
                rewards: np.ndarray) -> "RateRewardDistribution":
        """Trusted constructor: rewards over an already validated grid.

        The grid is not re-validated and its read-only arrays are shared,
        not copied; only the rewards are checked.

        Args:
            grid: the shared support and probabilities.
            rewards: a float array, one reward per grid level; kept
                without a copy.
        """
        distribution = cls.__new__(cls)
        distribution._attach(grid, rewards)
        return distribution

    def _attach(self, grid: RateGrid, rewards: np.ndarray) -> None:
        if rewards.shape != grid.rates.shape:
            raise ConfigurationError(
                f"need one reward per rate, got {rewards.size} rewards "
                f"for {grid.rates.size} rates")
        if rewards.min() < 0:
            raise ConfigurationError("rewards must be non-negative")
        self._rates = grid.rates
        self._probs = grid.probabilities
        self._rewards = rewards
        self._expected_rate = grid.expected_rate

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        del state["_expected_rate"]
        state.pop("_reward_prefixes", None)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._expected_rate = float(self._probs @ self._rates)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def rates_mbps(self) -> np.ndarray:
        """The support ``DR`` (read-only view)."""
        view = self._rates.view()
        view.flags.writeable = False
        return view

    @property
    def probabilities(self) -> np.ndarray:
        """``pi_{j,rho}`` per rate (read-only view)."""
        view = self._probs.view()
        view.flags.writeable = False
        return view

    @property
    def rewards(self) -> np.ndarray:
        """``RD_{j,rho}`` per rate (read-only view)."""
        view = self._rewards.view()
        view.flags.writeable = False
        return view

    @property
    def support_key(self) -> Tuple[int, int]:
        """Identity of the support and probability arrays.

        Distributions drawn on one :class:`RateGrid` share the key, so a
        value that depends on ``(rates, probabilities)`` alone - such as
        ``E[min(rho, c)]`` - can be computed once per key.  The key is
        an object identity: compare it only among live distributions.
        Unpickled distributions share arrays only with the others of
        the same pickle, never with the grid they were drawn on.
        """
        return (id(self._rates), id(self._probs))

    @property
    def num_levels(self) -> int:
        """``|DR|``."""
        return int(self._rates.size)

    @property
    def max_rate_mbps(self) -> float:
        """Largest rate in the support."""
        return float(self._rates[-1])

    @property
    def min_rate_mbps(self) -> float:
        """Smallest rate in the support."""
        return float(self._rates[0])

    # ------------------------------------------------------------------
    # Expectations
    # ------------------------------------------------------------------
    def expected_rate(self) -> float:
        """``E[rho_j]`` - the expected data rate."""
        return self._expected_rate

    def expected_reward(self) -> float:
        """``E[RD_j] = sum_rho pi_rho * RD_rho``."""
        return float(self._probs @ self._rewards)

    def expected_truncated_rate(self, cap_mbps: float) -> float:
        """``E[min(rho_j, cap)]`` - the truncation of constraint (10)."""
        if cap_mbps < 0:
            raise ConfigurationError(
                f"cap must be non-negative, got {cap_mbps}")
        return float(self._probs @ np.minimum(self._rates, cap_mbps))

    def expected_reward_within(self, max_rate_mbps: float) -> float:
        """Expected reward counting only rates ``<= max_rate_mbps``.

        This is the paper's ``ER_{jil}`` of Eq. (8) expressed in rate
        space: a starting slot ``l`` at station ``bs_i`` earns
        ``RD_{j,rho}`` only for realizations whose demand fits into the
        remaining capacity ``C(bs_i) - l * C_l``, i.e. whose rate is at
        most ``(C(bs_i) - l * C_l) / C_unit``.
        """
        if max_rate_mbps < 0:
            return 0.0
        mask = self._rates <= max_rate_mbps + _PROB_TOL
        return float(self._probs[mask] @ self._rewards[mask])

    def reward_prefixes(self) -> np.ndarray:
        """Entry ``k`` is the expected reward over the ``k`` smallest
        rates, ``k = 0..|DR|`` (read-only).

        Each entry is the one dot :meth:`expected_reward_within` takes
        for a cap that admits exactly ``k`` rates, so ``ER_{jil}`` of
        Eq. (8) is an entry of this array.  Built on first use.
        """
        prefixes = self.__dict__.get("_reward_prefixes")
        if prefixes is None:
            probs, rewards = self._probs, self._rewards
            prefixes = np.array([probs[:k] @ rewards[:k]
                                 for k in range(probs.size + 1)],
                                dtype=float)
            prefixes.flags.writeable = False
            self._reward_prefixes = prefixes
        return prefixes

    def probability_within(self, max_rate_mbps: float) -> float:
        """``P[rho_j <= max_rate_mbps]``."""
        if max_rate_mbps < 0:
            return 0.0
        mask = self._rates <= max_rate_mbps + _PROB_TOL
        return float(self._probs[mask].sum())

    def reward_of_rate(self, rate_mbps: float) -> float:
        """The reward ``RD_{j,rho}`` attached to an exact support rate.

        Raises:
            ConfigurationError: if `rate_mbps` is not in the support.
        """
        idx = np.flatnonzero(np.isclose(self._rates, rate_mbps))
        if idx.size == 0:
            raise ConfigurationError(
                f"rate {rate_mbps} is not in the support {self._rates}")
        return float(self._rewards[int(idx[0])])

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, rng: RngLike = None) -> Tuple[float, float]:
        """Draw one (rate, reward) realization.

        Returns:
            ``(rho, RD_rho)`` - the realized data rate and its reward.
        """
        rng = ensure_rng(rng)
        idx = int(rng.choice(self.num_levels, p=self._probs))
        return float(self._rates[idx]), float(self._rewards[idx])

    def __repr__(self) -> str:
        return (f"RateRewardDistribution(levels={self.num_levels}, "
                f"rates=[{self.min_rate_mbps:.1f}..{self.max_rate_mbps:.1f}]"
                f" MB/s, E[rate]={self.expected_rate():.2f})")


def make_decaying_distribution(
        rate_range_mbps: Tuple[float, float],
        num_levels: int,
        decay: float,
        unit_price: float,
        rng: RngLike = None,
        price_jitter: float = DEFAULT_PRICE_JITTER
) -> RateRewardDistribution:
    """Build a request's (rate, reward) distribution the way Section VI does.

    Rates form an evenly spaced grid over `rate_range_mbps`;
    probabilities decay geometrically with the rate level (large rates
    are rare, per the paper's observation citing [10]).  Rewards are
    drawn by :func:`decaying_distribution_on_grid`.

    Args:
        rate_range_mbps: (min, max) support of the rate grid.
        num_levels: size of the grid ``|DR|``.
        decay: geometric decay factor in (0, 1]; 1 gives a uniform
            distribution over rates.
        unit_price: dollars per MB/s (paper: drawn from [12, 15]).
        rng: randomness for the billed rate and per-level jitter.
        price_jitter: relative magnitude of the per-level reward jitter.

    Returns:
        A validated :class:`RateRewardDistribution`.
    """
    grid = RateGrid.decaying(rate_range_mbps, num_levels, decay)
    if unit_price < 0:
        raise ConfigurationError(
            f"unit price must be >= 0, got {unit_price}")
    if not 0 <= price_jitter < 1:
        raise ConfigurationError(
            f"price_jitter must lie in [0, 1), got {price_jitter}")
    return decaying_distribution_on_grid(
        grid, rate_range_mbps, unit_price, ensure_rng(rng), price_jitter)


def decaying_distribution_on_grid(
        grid: RateGrid,
        rate_range_mbps: Tuple[float, float],
        unit_price: float,
        rng: np.random.Generator,
        price_jitter: float = DEFAULT_PRICE_JITTER
) -> RateRewardDistribution:
    """Draw one request's rewards over a shared, validated grid.

    Rewards follow the paper's **demand-independent** model (Sections I
    and III-C: "the rewards and data rates of requests are
    independent"): every level of a request earns roughly the same
    reward ``unit_price * billed_rate``, where the *billed* rate is one
    independent draw from the rate range (the provider's pricing is set
    per request - by contract, time period, and cost structure - not by
    the realized sampling rate), perturbed per level by a small jitter
    ("rewards of implementing requests with the same data rate vary").
    Requests therefore differ substantially in value per unit of
    computing resource, which is exactly the structure the expected-
    reward-aware algorithms exploit and the baselines ignore.

    Draws the billed rate, then the per-level jitter vector.  The
    caller vouches for `unit_price` >= 0 and `price_jitter` in [0, 1).

    Args:
        grid: the shared support and probabilities.
        rate_range_mbps: (min, max) range of the billed rate.
        unit_price: dollars per MB/s.
        rng: randomness for the billed rate and per-level jitter.
        price_jitter: relative magnitude of the per-level reward jitter.
    """
    lo, hi = rate_range_mbps
    billed_rate = lo + (hi - lo) * rng.random()  # unchecked uniform
    # rewards = unit_price * billed_rate * (1 + jitter * (2u - 1)),
    # evaluated in place: the same float operations in the same order.
    rewards = rng.random(grid.rates.size)
    rewards *= 2.0
    rewards -= 1.0
    rewards *= price_jitter
    rewards += 1.0
    rewards *= unit_price * billed_rate
    return RateRewardDistribution.on_grid(grid, rewards)

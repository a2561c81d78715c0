"""Successive elimination over a finite arm set (Algorithm 3, lines 5-9).

Every arm starts *active*.  Each round the policy plays active arms
(round-robin over the least-played active arms so confidence intervals
shrink uniformly), maintains per-arm empirical means with confidence
radius ``r_t(a) = scale * sqrt(2 log T / n_a)``, and **deactivates** any
arm ``a`` dominated by another arm ``a'`` in the sense
``UCB_t(a) < LCB_t(a')``.  The exploitation choice - "the active arm
with the maximum reward" (Algorithm 3 line 9) - is
:meth:`SuccessiveElimination.best_active_arm`.

With the radius above, standard analysis (Slivkins [25], Sec. 1.3)
gives regret ``O(sqrt(K T log T))`` against the best fixed arm, the
``R_S(T)`` term of Theorem 3.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from ..exceptions import BanditError, ConfigurationError


class SuccessiveElimination:
    """Successive-elimination policy over ``num_arms`` arms.

    Args:
        num_arms: size of the arm set ``Z'``.
        horizon: the time horizon ``T`` entering the confidence radius;
            when unknown, pass an upper bound (radius is conservative).
        confidence_scale: multiplier on the radius; 1.0 is the textbook
            value for rewards in [0, 1].
    """

    def __init__(self, num_arms: int, horizon: int,
                 confidence_scale: float = 1.0) -> None:
        if num_arms < 1:
            raise ConfigurationError(
                f"need at least one arm, got {num_arms}")
        if horizon < 1:
            raise ConfigurationError(
                f"horizon must be >= 1, got {horizon}")
        if confidence_scale <= 0:
            raise ConfigurationError(
                f"confidence_scale must be positive, got {confidence_scale}")
        self._num_arms = num_arms
        self._horizon = horizon
        self._scale = confidence_scale
        self._counts = np.zeros(num_arms, dtype=int)
        self._sums = np.zeros(num_arms, dtype=float)
        self._active = np.ones(num_arms, dtype=bool)
        self._total_plays = 0

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def num_arms(self) -> int:
        """Size of the arm set."""
        return self._num_arms

    @property
    def total_plays(self) -> int:
        """Total rewards recorded so far."""
        return self._total_plays

    def active_arms(self) -> List[int]:
        """Indices of still-active arms."""
        return [int(a) for a in np.flatnonzero(self._active)]

    def is_active(self, arm: int) -> bool:
        """Whether one arm is still active."""
        self._check_arm(arm)
        return bool(self._active[arm])

    def count(self, arm: int) -> int:
        """Times an arm has been played."""
        self._check_arm(arm)
        return int(self._counts[arm])

    def mean(self, arm: int) -> float:
        """Empirical mean reward ``ER_t(a)`` (0.0 before any play)."""
        self._check_arm(arm)
        if self._counts[arm] == 0:
            return 0.0
        return float(self._sums[arm] / self._counts[arm])

    def radius(self, arm: int) -> float:
        """Confidence radius ``r_t(a)``; infinite before any play."""
        self._check_arm(arm)
        n = self._counts[arm]
        if n == 0:
            return math.inf
        return self._scale * math.sqrt(
            2.0 * math.log(max(self._horizon, 2)) / n)

    def ucb(self, arm: int) -> float:
        """``UCB_t(a) = ER_t(a) + r_t(a)``."""
        return self.mean(arm) + self.radius(arm)

    def lcb(self, arm: int) -> float:
        """``LCB_t(a) = ER_t(a) - r_t(a)``."""
        return self.mean(arm) - self.radius(arm)

    # ------------------------------------------------------------------
    # Policy
    # ------------------------------------------------------------------
    def select_arm(self) -> int:
        """Next arm to *explore*: the least-played active arm.

        Playing active arms in possibly multiple rounds (Algorithm 3
        line 5) reduces to always topping up the arm with the fewest
        samples; ties break toward the lowest index.
        """
        active = self.active_arms()
        if not active:
            raise BanditError("every arm has been eliminated")
        return min(active, key=lambda a: (self._counts[a], a))

    def best_active_arm(self) -> int:
        """The active arm with the maximum empirical reward (line 9).

        Unplayed arms (mean 0) rank below any played arm with positive
        mean; ties break toward the lowest index.
        """
        active = self.active_arms()
        if not active:
            raise BanditError("every arm has been eliminated")
        return max(active, key=lambda a: (self.mean(a), -a))

    def record(self, arm: int, reward: float) -> None:
        """Record an observed reward for an arm and run eliminations.

        Rewards outside [0, 1] are accepted (the caller may normalize);
        the confidence radius is calibrated for [0, 1].

        Raises:
            BanditError: when recording to an eliminated arm.
        """
        self._check_arm(arm)
        if not self._active[arm]:
            raise BanditError(f"arm {arm} has been eliminated")
        self._counts[arm] += 1
        self._sums[arm] += float(reward)
        self._total_plays += 1
        self._eliminate_dominated()

    def _eliminate_dominated(self) -> None:
        """Deactivate arms with ``UCB_t(a) < LCB_t(a')`` for some a'.

        Never eliminates the last active arm (the paper keeps at least
        one arm as the running threshold).
        """
        active = self.active_arms()
        if len(active) <= 1:
            return
        best_lcb = max(self.lcb(a) for a in active)
        survivors = [a for a in active if self.ucb(a) >= best_lcb]
        if not survivors:
            # Numerically impossible for the maximizer itself, but be
            # safe: keep the best empirical arm.
            survivors = [self.best_active_arm()]
        for arm in set(active) - set(survivors):
            self._active[arm] = False

    def _check_arm(self, arm: int) -> None:
        if not 0 <= arm < self._num_arms:
            raise ConfigurationError(
                f"arm index {arm} out of range [0, {self._num_arms})")

    def __repr__(self) -> str:
        return (f"SuccessiveElimination(arms={self._num_arms}, "
                f"active={len(self.active_arms())}, "
                f"plays={self._total_plays})")

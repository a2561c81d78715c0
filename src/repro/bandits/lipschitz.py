"""Discretized Lipschitz bandit over a continuous interval.

Composes an :class:`~repro.bandits.arms.ArmGrid` with any finite-arm
policy (successive elimination by default, per Algorithm 3) so the
caller works in *value space* (threshold MHz in, threshold MHz out)
while the policy works in index space.  Also computes the Theorem 3
regret bound ``O(sqrt(kappa T log T) + T * eta * epsilon)``.
"""

from __future__ import annotations

import math
from typing import Optional, Protocol

from ..exceptions import ConfigurationError
from ..telemetry.metrics import get_metrics
from .arms import ArmGrid
from .successive_elimination import SuccessiveElimination


class FiniteArmPolicy(Protocol):
    """The policy surface shared by SuccessiveElimination and UCB1."""

    def select_arm(self) -> int: ...

    def best_active_arm(self) -> int: ...

    def record(self, arm: int, reward: float) -> None: ...

    def mean(self, arm: int) -> float: ...


class LipschitzBandit:
    """A continuous-arm bandit solved by discretize-then-eliminate.

    Args:
        low: left endpoint of the arm interval ``Z``.
        high: right endpoint of ``Z``.
        num_arms: ``kappa`` grid points.
        horizon: horizon ``T`` used by the default policy's radius.
        policy: optional pre-built finite-arm policy; defaults to
            :class:`SuccessiveElimination` over the grid.
        explore_fraction: fraction of the horizon spent pulling the
            policy's exploration choice before committing to the best
            active arm each step (exploration never fully stops; this
            only biases the schedule - successive elimination keeps
            converging either way).
    """

    def __init__(self, low: float, high: float, num_arms: int,
                 horizon: int,
                 policy: Optional[FiniteArmPolicy] = None,
                 explore_fraction: float = 0.3,
                 confidence_scale: float = 1.0) -> None:
        if not 0 <= explore_fraction <= 1:
            raise ConfigurationError(
                f"explore_fraction must lie in [0, 1], got "
                f"{explore_fraction}")
        self._grid = ArmGrid(low, high, num_arms)
        self._policy: FiniteArmPolicy = policy or SuccessiveElimination(
            num_arms=self._grid.num_arms, horizon=horizon,
            confidence_scale=confidence_scale)
        self._horizon = horizon
        self._explore_budget = int(math.ceil(explore_fraction * horizon))
        self._steps = 0
        self._last_arm: Optional[int] = None

    @property
    def grid(self) -> ArmGrid:
        """The discretization."""
        return self._grid

    @property
    def policy(self) -> FiniteArmPolicy:
        """The underlying finite-arm policy."""
        return self._policy

    @property
    def steps(self) -> int:
        """Number of select/record cycles completed."""
        return self._steps

    def select_value(self) -> float:
        """Choose the next threshold value to play.

        Explores (least-played active arm) during the exploration
        budget, then exploits (best active arm).  The chosen arm is
        remembered so :meth:`record` can attribute the reward.
        """
        if self._steps < self._explore_budget:
            arm = self._policy.select_arm()
            get_metrics().inc("bandit_explore_steps")
        else:
            arm = self._policy.best_active_arm()
            get_metrics().inc("bandit_exploit_steps")
        self._last_arm = arm
        return self._grid.value(arm)

    def record(self, reward: float) -> None:
        """Attribute a reward to the most recently selected arm."""
        if self._last_arm is None:
            raise ConfigurationError(
                "record() called before select_value()")
        self._policy.record(self._last_arm, reward)
        self._steps += 1
        self._last_arm = None

    def best_value(self) -> float:
        """Current exploitation choice in value space."""
        return self._grid.value(self._policy.best_active_arm())

    def regret_bound(self, lipschitz_eta: float) -> float:
        """Theorem 3: ``sqrt(kappa T log T) + T * eta * epsilon``.

        Returned without the hidden constant (the bound is stated in
        O-notation); useful for plotting the bound's *shape* against
        measured regret.
        """
        kappa = self._grid.num_arms
        t = max(self._horizon, 2)
        return (math.sqrt(kappa * t * math.log(t))
                + t * self._grid.discretization_error_bound(lipschitz_eta))

    def __repr__(self) -> str:
        return (f"LipschitzBandit({self._grid!r}, steps={self._steps}/"
                f"{self._horizon})")

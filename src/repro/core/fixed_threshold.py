"""Fixed-threshold round-robin: the comparator of Theorem 3.

Theorem 3 bounds DynamicRR's regret against the best *fixed* threshold
arm.  :class:`FixedThresholdRR` is exactly DynamicRR with the bandit
replaced by a constant ``C^th`` - same ``R_t`` selection, same LP-PT,
same rounding, same admission - so running it over a grid of thresholds
measures ``ER^*(Z')`` on the real system, and

    regret(T) = best fixed total reward - DynamicRR total reward

is the empirical quantity Theorem 3 bounds.  See
``benchmarks/test_ablation_regret.py`` (synthetic curve) and
``benchmarks/test_ablation_system_regret.py`` (this, end to end).
"""

from __future__ import annotations

from typing import Optional

from ..config import OnlineConfig
from ..exceptions import ConfigurationError
from .dynamic_rr import DynamicRR


class FixedThresholdRR(DynamicRR):
    """DynamicRR with the learning switched off.

    Args:
        threshold_mhz: the constant ``C^th`` to run with.
        online_config: threshold-range metadata (the constant must lie
            inside it); other bandit fields are ignored.
        **kwargs: forwarded to :class:`DynamicRR` (rounding scale,
            rng, ...).
    """

    def __init__(self, threshold_mhz: float,
                 online_config: Optional[OnlineConfig] = None,
                 **kwargs) -> None:
        super().__init__(online_config=online_config, **kwargs)
        lo, hi = self.config.threshold_range_mhz
        if not lo <= threshold_mhz <= hi:
            raise ConfigurationError(
                f"threshold {threshold_mhz} outside configured range "
                f"[{lo}, {hi}]")
        self.threshold_mhz = float(threshold_mhz)
        self.name = f"FixedRR({threshold_mhz:.0f})"

    def begin(self, engine) -> None:
        """Set up like DynamicRR, then pin the bandit to one arm."""
        super().begin(engine)
        # Degenerate the grid: a single-arm Lipschitz bandit returning
        # the constant threshold keeps the select/record protocol (and
        # the journal's ARM_SELECTED rounds) intact with zero learning.
        from ..bandits.lipschitz import LipschitzBandit
        self._bandit = LipschitzBandit(
            low=self.threshold_mhz, high=self.threshold_mhz,
            num_arms=1, horizon=engine.clock.horizon_slots,
            explore_fraction=0.0,
            confidence_scale=self.config.confidence_scale)


def best_fixed_threshold(instance, workload_factory, thresholds,
                         horizon_slots: int,
                         rng_seed: int = 0):
    """Sweep fixed thresholds; return ``(best_threshold, best_reward,
    rewards_by_threshold)``.

    Args:
        instance: the problem instance.
        workload_factory: zero-argument callable returning a *fresh*
            workload (realization state must not leak between runs).
        thresholds: candidate ``C^th`` values (must lie inside the
            configured threshold range).
        horizon_slots: monitoring period.
        rng_seed: engine/policy seed (shared across candidates for a
            paired comparison).
    """
    from ..sim.online_engine import OnlineEngine

    if not thresholds:
        raise ConfigurationError("need at least one threshold")
    rewards = {}
    for threshold in thresholds:
        policy = FixedThresholdRR(threshold_mhz=float(threshold),
                                  rng=rng_seed)
        engine = OnlineEngine(instance, workload_factory(),
                              horizon_slots=horizon_slots, rng=rng_seed)
        rewards[float(threshold)] = engine.run(policy).total_reward
    best = max(rewards, key=lambda t: rewards[t])
    return best, rewards[best], rewards

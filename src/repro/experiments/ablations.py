"""Library-level studies behind the report's theorem checks.

:mod:`repro.experiments.report` runs these: the empirical Theorem 1
ratio, the end-to-end Theorem 3 regret, and the competitive ratio
against the clairvoyant bound.  Each driver returns plain data,
leaving presentation to the caller.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Sequence, Tuple

from ..config import SimulationConfig
from ..core.appro import Appro
from ..core.clairvoyant import clairvoyant_bound, competitive_ratio
from ..core.dynamic_rr import DynamicRR
from ..core.fixed_threshold import best_fixed_threshold
from ..core.ilp_rm import solve_ilp_rm
from ..core.instance import ProblemInstance
from ..exceptions import ConfigurationError
from ..sim.engine import run_offline
from ..sim.online_engine import OnlineEngine


def approximation_ratio_study(num_requests: int = 10,
                              seeds: Sequence[int] = tuple(range(6)),
                              max_rounds: int = 1,
                              num_stations: int = 6
                              ) -> Tuple[float, Dict[int, float]]:
    """Empirical Appro / ILP-RM optimum ratios (Theorem 1).

    Returns:
        ``(mean_ratio, ratios_by_seed)``.
    """
    ratios: Dict[int, float] = {}
    for seed in seeds:
        config = SimulationConfig(seed=seed)
        config = replace(config, network=replace(
            config.network, num_base_stations=num_stations)).validate()
        instance = ProblemInstance.build(config, seed=seed)
        workload = instance.new_workload(num_requests, seed=seed)
        opt, _ = solve_ilp_rm(instance, workload)
        if opt.objective <= 0:
            continue
        workload = instance.new_workload(num_requests, seed=seed)
        result = run_offline(Appro(max_rounds=max_rounds), instance,
                             workload, seed=seed)
        ratios[seed] = result.total_reward / opt.objective
    if not ratios:
        raise ConfigurationError("every instance had zero optimum")
    mean = sum(ratios.values()) / len(ratios)
    return mean, ratios


def system_regret_study(thresholds: Sequence[float] = (200.0, 400.0,
                                                       600.0, 800.0,
                                                       1000.0),
                        num_requests: int = 250,
                        horizon_slots: int = 80,
                        seed: int = 0) -> Dict[str, float]:
    """End-to-end Theorem 3 measurement for one seed.

    Returns a dict with ``best_threshold``, ``best_fixed_reward``,
    ``dynamic_reward``, and ``relative_regret``.
    """
    instance = ProblemInstance.build(SimulationConfig(seed=seed),
                                     seed=seed)

    def workload():
        return instance.new_workload(num_requests, seed=seed,
                                     horizon_slots=horizon_slots)

    best_arm, best_reward, _rewards = best_fixed_threshold(
        instance, workload, thresholds, horizon_slots=horizon_slots,
        rng_seed=seed)
    engine = OnlineEngine(instance, workload(),
                          horizon_slots=horizon_slots, rng=seed)
    dynamic = engine.run(DynamicRR(rng=seed)).total_reward
    regret = ((best_reward - dynamic) / best_reward
              if best_reward > 0 else 0.0)
    return {
        "best_threshold": best_arm,
        "best_fixed_reward": best_reward,
        "dynamic_reward": dynamic,
        "relative_regret": regret,
    }


def clairvoyant_study(num_requests: int = 250,
                      horizon_slots: int = 80,
                      seed: int = 0,
                      policy_factory=DynamicRR) -> Dict[str, float]:
    """Competitive ratio of one online policy vs the clairvoyant bound."""
    instance = ProblemInstance.build(SimulationConfig(seed=seed),
                                     seed=seed)
    workload = instance.new_workload(num_requests, seed=seed,
                                     horizon_slots=horizon_slots)
    engine = OnlineEngine(instance, workload,
                          horizon_slots=horizon_slots, rng=seed)
    try:
        policy = policy_factory(rng=seed)
    except TypeError:
        policy = policy_factory()
    result = engine.run(policy)
    bound = clairvoyant_bound(instance, workload,
                              horizon_slots=horizon_slots, rng=seed)
    return {
        "online_reward": result.total_reward,
        "clairvoyant_bound": bound.upper_bound,
        "competitive_ratio": competitive_ratio(result.total_reward,
                                               bound),
    }

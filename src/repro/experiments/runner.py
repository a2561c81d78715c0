"""Seed-replicated sweep runners for offline and online experiments.

Both runners follow the same shape: for every swept value, build the
configuration, and for every seed and algorithm emit one picklable
:class:`~repro.experiments.executor.RunSpec`.  The spec list is then
executed by :mod:`~repro.experiments.executor` - serially by default,
or on a process pool with ``workers > 1`` - and the resulting
:class:`~repro.sim.results.RunRecord` rows are merged into a
:class:`~repro.sim.results.SweepResult` in canonical
(x, seed, algorithm) order, identical for every backend.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from ..config import SimulationConfig
from ..sim.engine import OfflineAlgorithm
from ..sim.online_engine import OnlinePolicy
from ..sim.results import SweepResult
from .executor import OFFLINE, ONLINE, RunSpec, execute_sweep

#: Builds the configuration for one swept value and seed.
ConfigFactory = Callable[[float, int], SimulationConfig]
#: Builds a fresh offline algorithm (stateless reuse is fine too).
OfflineFactory = Callable[[], OfflineAlgorithm]
#: Builds a fresh online policy (must be fresh per run - policies carry
#: bandit state).
OnlineFactory = Callable[[], OnlinePolicy]


def build_offline_specs(algorithm_factories: Sequence[OfflineFactory],
                        x_values: Sequence[float],
                        make_config: ConfigFactory,
                        num_requests_of: Callable[[float], int],
                        num_seeds: int = 3) -> List[RunSpec]:
    """Decompose an offline sweep into specs in canonical order."""
    specs: List[RunSpec] = []
    for x in x_values:
        for seed in range(num_seeds):
            config = make_config(x, seed)
            for factory in algorithm_factories:
                specs.append(RunSpec(
                    mode=OFFLINE, factory=factory, x=x, seed=seed,
                    config=config,
                    num_requests=num_requests_of(x)).validate())
    return specs


def build_online_specs(policy_factories: Sequence[OnlineFactory],
                       x_values: Sequence[float],
                       make_config: ConfigFactory,
                       num_requests_of: Callable[[float], int],
                       horizon_slots: int,
                       num_seeds: int = 3) -> List[RunSpec]:
    """Decompose an online sweep into specs in canonical order."""
    specs: List[RunSpec] = []
    for x in x_values:
        for seed in range(num_seeds):
            config = make_config(x, seed)
            for factory in policy_factories:
                specs.append(RunSpec(
                    mode=ONLINE, factory=factory, x=x, seed=seed,
                    config=config,
                    num_requests=num_requests_of(x),
                    horizon_slots=horizon_slots,
                    slot_length_ms=config.online.slot_length_ms,
                ).validate())
    return specs


def run_offline_sweep(algorithm_factories: Sequence[OfflineFactory],
                      x_values: Sequence[float],
                      make_config: ConfigFactory,
                      num_requests_of: Callable[[float], int],
                      num_seeds: int = 3,
                      x_label: str = "x",
                      workers: Optional[int] = 1,
                      **observe: Any) -> SweepResult:
    """Run a batch-algorithm sweep (Figs. 3 and 5).

    Args:
        algorithm_factories: one factory per algorithm.  With
            ``workers > 1`` each factory must be picklable (a
            module-level class or function).
        x_values: swept parameter values.
        make_config: (x, seed) -> configuration.
        num_requests_of: x -> workload size |R| for that point.
        num_seeds: replications per point.
        x_label: axis label for the result.
        workers: process count (1 = serial, 0 = one per CPU).  Records
            are identical for every worker count.
        observe: the ``trace`` / ``journal`` / ``profile`` /
            ``profile_mem`` / ``progress`` knobs of
            :func:`~repro.experiments.executor.execute_specs`
            (observation only; metrics are unchanged either way).

    Returns:
        A populated :class:`SweepResult`.
    """
    specs = build_offline_specs(algorithm_factories, x_values,
                                make_config, num_requests_of,
                                num_seeds=num_seeds)
    return execute_sweep(specs, x_label, workers=workers, **observe)


def run_online_sweep(policy_factories: Sequence[OnlineFactory],
                     x_values: Sequence[float],
                     make_config: ConfigFactory,
                     num_requests_of: Callable[[float], int],
                     horizon_slots: int,
                     num_seeds: int = 3,
                     x_label: str = "x",
                     workers: Optional[int] = 1,
                     **observe: Any) -> SweepResult:
    """Run an online-policy sweep (Figs. 4 and 6).

    Every policy sees the same arrival sequence per (x, seed); requests
    are re-drawn fresh for each policy so realization state never leaks
    between runs.  Accepts the same ``workers`` and observation knobs
    as :func:`run_offline_sweep`, with the same determinism guarantee.
    """
    specs = build_online_specs(policy_factories, x_values, make_config,
                               num_requests_of, horizon_slots,
                               num_seeds=num_seeds)
    return execute_sweep(specs, x_label, workers=workers, **observe)

#!/usr/bin/env python3
"""Online learning demo: watch DynamicRR tune its threshold C^th.

Streams a bursty arrival pattern through the slotted online engine
under algorithm DynamicRR (Algorithm 3) and reports:

* the successive-elimination state of the threshold bandit (which arms
  survived, how often each was played),
* the reward/latency outcome against the online baselines on the same
  arrivals,
* the empirical regret curve of the threshold bandit, rebuilt from
  DynamicRR's decision journal: each round's arm from its
  ``ARM_SELECTED`` event, its reward from that slot's ``START``
  rewards (raw reward units).

Run:
    python examples/online_adaptation.py [seed]
"""

import sys

from repro import (DynamicRR, GreedyOnline, HeuKktOnline, OcorpOnline,
                   OnlineEngine, ProblemInstance, SimulationConfig)
from repro.bandits.regret import RegretTracker
from repro.experiments.report import bandit_rounds
from repro.telemetry.audit import Journal, use_journal

HORIZON = 150
NUM_REQUESTS = 350


def main(seed: int = 5) -> None:
    config = SimulationConfig(seed=seed)
    instance = ProblemInstance.build(config)

    print(f"Monitoring period T = {HORIZON} slots "
          f"({HORIZON * config.online.slot_length_ms / 1000:.1f} s), "
          f"{NUM_REQUESTS} arrivals\n")

    print(f"{'policy':>10} {'reward $':>10} {'admitted':>9} "
          f"{'avg latency':>12}")
    results = {}
    dynamic_policy = None
    journal = Journal()
    for factory in (DynamicRR, GreedyOnline, OcorpOnline,
                    HeuKktOnline):
        policy = factory()
        workload = instance.new_workload(NUM_REQUESTS, seed=seed,
                                         horizon_slots=HORIZON)
        engine = OnlineEngine(instance, workload, horizon_slots=HORIZON,
                              rng=seed)
        if isinstance(policy, DynamicRR):
            dynamic_policy = policy
            with use_journal(journal):
                result = engine.run(policy)
        else:
            result = engine.run(policy)
        results[result.algorithm] = result
        print(f"{result.algorithm:>10} {result.total_reward:>10.0f} "
              f"{result.num_admitted:>9} "
              f"{result.average_latency_ms():>9.1f} ms")

    assert dynamic_policy is not None
    bandit = dynamic_policy.bandit
    grid = bandit.grid
    policy_state = bandit.policy
    print("\nThreshold bandit state after the run "
          f"(kappa={grid.num_arms}, eps={grid.epsilon:.0f} MHz):")
    for arm in range(grid.num_arms):
        active = "active" if arm in policy_state.active_arms() \
            else "eliminated"
        print(f"  C^th={grid.value(arm):6.0f} MHz  "
              f"plays={policy_state.count(arm):3d}  "
              f"mean={policy_state.mean(arm):.3f}  [{active}]")
    print(f"\nExploitation choice: C^th = "
          f"{dynamic_policy.current_threshold_mhz():.0f} MHz")

    tracker = RegretTracker()
    for rounds in bandit_rounds(journal.events()).values():
        for _slot, arm, _threshold, reward, _eliminated in rounds:
            tracker.record(arm, reward)
    curve = tracker.regret_curve()
    if curve.size:
        marks = [int(curve.size * f) - 1 for f in (0.25, 0.5, 0.75, 1.0)]
        print("Empirical regret (vs best played arm, reward $): "
              + ", ".join(f"t={m + 1}:{curve[m]:.1f}" for m in marks))
        print("Theorem 3 shape bound at T: "
              f"{bandit.regret_bound(lipschitz_eta=0.001):.1f} "
              "(normalized rewards, up to constants)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 5)

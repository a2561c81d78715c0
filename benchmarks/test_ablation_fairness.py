"""Ablation: scheduling-starvation fairness (the motivation of Alg. 3).

Section V motivates DynamicRR with *temporal fairness*: applying the
offline machinery slot by slot "may increase the waiting time of
requests with low rewards" - starvation.  This bench measures Jain's
fairness index over per-request waiting times (1.0 = perfectly fair)
for the online algorithms on a bursty arrival pattern, where starvation
actually has room to appear.
"""


from repro.baselines import GreedyOnline, HeuKktOnline, OcorpOnline
from repro.config import SimulationConfig
from repro.core.dynamic_rr import DynamicRR
from repro.core.instance import ProblemInstance
from repro.requests.arrivals import assign_arrival_slots, burst_arrivals
from repro.sim.metrics import jains_fairness_index
from repro.sim.online_engine import OnlineEngine

SEEDS = (0, 1)
HORIZON = 80
NUM_REQUESTS = 220


def run_policy(factory):
    """Mean fairness and total reward; ``factory(seed)`` builds a policy."""
    fairness, rewards = [], 0.0
    for seed in SEEDS:
        instance = ProblemInstance.build(SimulationConfig(seed=seed))
        base = instance.new_workload(NUM_REQUESTS, seed=seed)
        slots = burst_arrivals(NUM_REQUESTS, HORIZON, burst_start=20,
                               burst_length=8, burst_fraction=0.5,
                               rng=seed)
        workload = assign_arrival_slots(base, slots)
        engine = OnlineEngine(instance, workload, horizon_slots=HORIZON,
                              rng=seed)
        result = engine.run(factory(seed))
        fairness.append(jains_fairness_index(
            result.waiting_distribution_ms()))
        rewards += result.total_reward
    return sum(fairness) / len(fairness), rewards


def test_waiting_fairness(benchmark):
    out = {}

    def run():
        for name, factory in (
                ("DynamicRR", lambda seed: DynamicRR(rng=seed)),
                ("Greedy", lambda _seed: GreedyOnline()),
                ("OCORP", lambda _seed: OcorpOnline()),
                ("HeuKKT", lambda _seed: HeuKktOnline())):
            out[name] = run_policy(factory)
        return out

    benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("Waiting-time fairness under a burst "
          "(Jain's index, 1.0 = fair):")
    for name, (fairness, reward) in out.items():
        print(f"  {name:10s} fairness={fairness:.3f}  "
              f"reward={reward:10.1f}")

    # DynamicRR must not starve: its waiting fairness stays within a
    # modest band of the best policy while it earns the most reward.
    best_fairness = max(f for f, _r in out.values())
    dyn_fairness, dyn_reward = out["DynamicRR"]
    assert dyn_fairness >= 0.5 * best_fairness
    assert dyn_reward >= 0.95 * max(r for _f, r in out.values())

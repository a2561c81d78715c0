"""Ablation: DynamicRR vs the clairvoyant offline bound.

Theorem 3 bounds regret against the best *fixed threshold*; here the
comparator is much stronger - a clairvoyant scheduler knowing every
arrival and realized rate, bounded by the reward of every request that
can meet its deadline at all.  The measured competitive ratio
contextualizes the online rewards; the baselines trail further behind
the bound.
"""

from statistics import fmean

from repro.baselines import HeuKktOnline, OcorpOnline
from repro.core.dynamic_rr import DynamicRR
from repro.experiments.ablations import clairvoyant_study

SEEDS = (0, 1)
HORIZON = 80
NUM_REQUESTS = 250
POLICIES = {"DynamicRR": DynamicRR, "OCORP": OcorpOnline,
            "HeuKKT": HeuKktOnline}


def test_competitive_ratio_vs_clairvoyant(benchmark):
    out = {}

    def run():
        for name, factory in POLICIES.items():
            out[name] = fmean(
                clairvoyant_study(NUM_REQUESTS, HORIZON, seed,
                                  factory)["competitive_ratio"]
                for seed in SEEDS)
        return out

    benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("Empirical competitive ratio vs clairvoyant bound:")
    for name, ratio in out.items():
        print(f"  {name:10s} {ratio:.3f}")

    # Ratios are genuine fractions of a strictly stronger comparator.
    assert 0.0 < out["DynamicRR"] <= 1.0 + 1e-9
    # DynamicRR must be the closest online policy to the bound.
    assert out["DynamicRR"] >= out["OCORP"]
    assert out["DynamicRR"] >= out["HeuKKT"]
    # And not embarrassingly far from it at saturation.
    assert out["DynamicRR"] >= 0.35

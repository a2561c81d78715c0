#!/usr/bin/env python3
"""Failure injection: DynamicRR routing around a base-station outage.

The paper motivates MEC offloading with "network uncertainties" beyond
demand uncertainty.  This example knocks three base stations out for
the middle third of the monitoring period and shows how DynamicRR's
per-slot LP-PT placement routes around the hole, with the run's
decision journal charting the episode.

Run:
    python examples/failure_injection.py [seed]
"""

import sys

from repro import DynamicRR, OnlineEngine, ProblemInstance, \
    SimulationConfig
from repro.sim.events import AuditRole, EventKind
from repro.sim.timeline import kind_totals, strip_chart
from repro.telemetry.audit import Journal, use_journal

HORIZON = 120
NUM_REQUESTS = 300
DEAD_STATIONS = (0, 1, 2)
#: What the chart shows: request lifecycles and station availability
#: (the per-slot rounding and bandit decisions would drown them out).
CHARTED_ROLES = (AuditRole.LIFECYCLE, AuditRole.STATION)


def run(instance, workload, outages, seed):
    journal = Journal()
    with use_journal(journal):
        engine = OnlineEngine(instance, workload, horizon_slots=HORIZON,
                              rng=seed, outages=outages)
        result = engine.run(DynamicRR(rng=seed))
    return journal.events(), result


def main(seed: int = 9) -> None:
    config = SimulationConfig(seed=seed)
    instance = ProblemInstance.build(config)
    window = (HORIZON // 3, 2 * HORIZON // 3)
    outages = {sid: window for sid in DEAD_STATIONS}

    workload = instance.new_workload(NUM_REQUESTS, seed=seed,
                                     horizon_slots=HORIZON)
    _, healthy = run(instance, workload, None, seed)
    workload = instance.new_workload(NUM_REQUESTS, seed=seed,
                                     horizon_slots=HORIZON)
    journal, degraded = run(instance, workload, outages, seed)

    lost_capacity = sum(
        instance.network.station(sid).capacity_mhz
        for sid in DEAD_STATIONS) / instance.network.total_capacity_mhz()
    print(f"Outage: stations {DEAD_STATIONS} down for slots "
          f"{window[0]}..{window[1]} "
          f"({lost_capacity:.0%} of capacity)\n")
    print(f"{'scenario':>10} {'reward $':>10} {'admitted':>9} "
          f"{'avg latency':>12}")
    for label, result in (("healthy", healthy), ("degraded", degraded)):
        print(f"{label:>10} {result.total_reward:>10.0f} "
              f"{result.num_admitted:>9} "
              f"{result.average_latency_ms():>9.1f} ms")
    delta = 1.0 - degraded.total_reward / healthy.total_reward
    print(f"\nReward lost to the outage: {delta:.1%} "
          f"(vs {lost_capacity:.0%} capacity lost for a third of the "
          f"horizon)")

    placed_on_dead = sum(
        1 for e in journal
        if e["kind"] == EventKind.START.value
        and e["station"] in DEAD_STATIONS
        and window[0] <= e["slot"] <= window[1])
    print(f"Requests started on dead stations during the outage: "
          f"{placed_on_dead}")

    charted = {kind.value for kind in EventKind
               if kind.spec.role in CHARTED_ROLES}
    events = [e for e in journal if e["kind"] in charted]
    print("\nEvent density over the degraded run:")
    print(strip_chart(events, horizon_slots=HORIZON, width=60))
    totals = {kind: n for kind, n in kind_totals(events).items()
              if kind in charted}
    print(f"\nTotals: {totals}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 9)

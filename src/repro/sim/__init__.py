"""Simulation engines and metrics.

* :mod:`~repro.sim.clock` - the slotted clock (0.05 s slots).
* :mod:`~repro.sim.engine` - offline executor: runs a batch algorithm
  on a fresh workload copy and collects its result.
* :mod:`~repro.sim.online_engine` - the slotted, preemptive engine of
  the dynamic problem: arrivals, waiting, round-robin sharing,
  completions, deadline checks.
* :mod:`~repro.sim.events` - the event kinds and records the engines
  emit into the decision journal.
* :mod:`~repro.sim.timeline` - narration, strip charts and kind
  totals of journal records.
* :mod:`~repro.sim.metrics` - Jain's fairness index.
* :mod:`~repro.sim.results` - per-run and per-sweep aggregation.
"""

from .clock import SlotClock
from .engine import run_offline
from .online_engine import OnlineEngine, OnlinePolicy, Placement
from .metrics import jains_fairness_index
from .results import RunRecord, SweepResult, aggregate_records
from .timeline import kind_totals, narrate, strip_chart

__all__ = [
    "SlotClock",
    "run_offline",
    "OnlineEngine",
    "OnlinePolicy",
    "Placement",
    "jains_fairness_index",
    "narrate",
    "strip_chart",
    "kind_totals",
    "RunRecord",
    "SweepResult",
    "aggregate_records",
]

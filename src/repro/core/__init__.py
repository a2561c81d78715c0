"""The paper's primary contribution: offloading algorithms.

* :class:`~repro.core.instance.ProblemInstance` - bundles the MEC
  network, path table, latency model, and workload into the object all
  algorithms consume.
* :mod:`~repro.core.ilp_rm` - the exact **ILP-RM** (Eqs. 3-6).
* :mod:`~repro.core.lp_relaxation` - the slot-indexed **LP** relaxation
  (Eqs. 8-12) and the per-slot **LP-PT** (Eqs. 22-23).
* :mod:`~repro.core.rounding` - randomized ``y/4`` rounding and the
  slot-by-slot admission of Algorithm 1.
* :mod:`~repro.core.appro` - algorithm **Appro** (Algorithm 1).
* :mod:`~repro.core.heu` - algorithm **Heu** (Algorithm 2).
* :mod:`~repro.core.threshold` - the ``R_t`` selection rule of
  Algorithm 3 (sort by expected rate, fill until the share drops below
  ``C^th``).
* :mod:`~repro.core.dynamic_rr` - algorithm **DynamicRR** (Algorithm 3).
"""

from .instance import ProblemInstance
from .latency import LatencyModel
from .assignment import OffloadDecision, ScheduleResult, SlotAssignment
from .ilp_rm import build_ilp_rm, solve_ilp_rm
from .lp_relaxation import LpIndex, build_lp_relaxation, build_lp_pt
from .appro import Appro
from .heu import Heu
from .dynamic_rr import DynamicRR
from .fixed_threshold import FixedThresholdRR, best_fixed_threshold
from .clairvoyant import ClairvoyantResult, clairvoyant_bound, \
    competitive_ratio

__all__ = [
    "ProblemInstance",
    "LatencyModel",
    "SlotAssignment",
    "OffloadDecision",
    "ScheduleResult",
    "build_ilp_rm",
    "solve_ilp_rm",
    "LpIndex",
    "build_lp_relaxation",
    "build_lp_pt",
    "Appro",
    "Heu",
    "DynamicRR",
    "FixedThresholdRR",
    "best_fixed_threshold",
    "ClairvoyantResult",
    "clairvoyant_bound",
    "competitive_ratio",
]

"""AR request workload substrate.

Models Section III-B/C/D of the paper: AR processing pipelines (a
sequence of tasks), uncertain data rates over a discrete set ``DR``,
joint (data-rate, reward) distributions, latency requirements, and the
request generators / synthetic traces used by the evaluation.
"""

from .tasks import ARTask, TaskPipeline, standard_ar_pipeline
from .distributions import (RateGrid, RateRewardDistribution,
                            decaying_distribution_on_grid,
                            make_decaying_distribution)
from .request import ARRequest
from .generator import RequestGenerator, slotted_arrivals
from .arrivals import (PoissonArrivalStream, assign_arrival_slots,
                       burst_arrivals, diurnal_arrivals, poisson_arrivals)
from .traces import FrameTrace, TraceSynthesizer, rate_distribution_from_traces

__all__ = [
    "ARTask",
    "TaskPipeline",
    "standard_ar_pipeline",
    "RateGrid",
    "RateRewardDistribution",
    "decaying_distribution_on_grid",
    "make_decaying_distribution",
    "ARRequest",
    "RequestGenerator",
    "slotted_arrivals",
    "poisson_arrivals",
    "diurnal_arrivals",
    "burst_arrivals",
    "assign_arrival_slots",
    "PoissonArrivalStream",
    "FrameTrace",
    "TraceSynthesizer",
    "rate_distribution_from_traces",
]

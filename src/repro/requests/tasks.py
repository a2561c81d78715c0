"""AR processing pipelines: sequences of dependent tasks.

Section III-B models each AR request ``r_j`` as a sequence of tasks
``{M_{j,1}, ..., M_{j,K_j}}``; each task consumes the output matrix of
its predecessor.  The evaluation (Section VI-A) uses the four-stage
pipeline of Braud et al. [5]:

=================  ==================
task               output size
=================  ==================
render object      100 KB
track objects      64 KB
update world model 64 KB
recognize objects  64 KB
=================  ==================

Rendering is the most computing-intensive task, which we model with a
per-task compute weight; the per-station processing delay of a task is
its weight times the station's base per-``rho_unit`` delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Sequence, Tuple

from ..exceptions import ConfigurationError
from ..units import kb_to_mb


@dataclass(frozen=True)
class ARTask:
    """One stage ``M_{j,k}`` of an AR processing pipeline.

    Attributes:
        name: human-readable stage name.
        output_kb: size of the output matrix handed to the successor.
        compute_weight: relative computing intensity; the processing
            delay ``d^pro_{jki}`` of this task at a station scales with
            this weight (rendering is the heaviest stage).
    """

    name: str
    output_kb: float
    compute_weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("task name must be non-empty")
        if self.output_kb <= 0:
            raise ConfigurationError(
                f"output size must be positive, got {self.output_kb}")
        if self.compute_weight <= 0:
            raise ConfigurationError(
                f"compute weight must be positive, got {self.compute_weight}")

    @property
    def output_mb(self) -> float:
        """Output matrix size in MB."""
        return kb_to_mb(self.output_kb)


class TaskPipeline:
    """An ordered sequence of :class:`ARTask` stages.

    Pipelines are immutable, so one instance can be shared by every
    request with the same stages (see :func:`standard_ar_pipeline`).

    Args:
        tasks: the stages, predecessor first.
    """

    def __init__(self, tasks: Sequence[ARTask]) -> None:
        if not tasks:
            raise ConfigurationError("a pipeline needs at least one task")
        self._tasks: Tuple[ARTask, ...] = tuple(tasks)
        self._total_compute_weight = float(
            sum(task.compute_weight for task in self._tasks))

    def __setstate__(self, state: Dict[str, Any]) -> None:
        # The stages are the state; the total is derived, so pickles
        # written before it was stored load the same way.
        self.__init__(state["_tasks"])

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[ARTask]:
        return iter(self._tasks)

    def __getitem__(self, index: int) -> ARTask:
        return self._tasks[index]

    @property
    def tasks(self) -> Tuple[ARTask, ...]:
        """The stages in order."""
        return self._tasks

    @property
    def total_compute_weight(self) -> float:
        """Sum of the stages' compute weights.

        The total per-``rho_unit`` processing delay of the pipeline at a
        station is this weight times the station's base task delay, i.e.
        ``sum_k d^pro_{jki}`` in Eq. (2).
        """
        return self._total_compute_weight

    @property
    def total_output_mb(self) -> float:
        """Sum of all stage output sizes (MB)."""
        return float(sum(task.output_mb for task in self._tasks))

    def split(self, head_len: int) -> Tuple["TaskPipeline", "TaskPipeline"]:
        """Split into a head and tail pipeline after `head_len` stages.

        Used by the Heu algorithm when part of an overflowing request's
        pipeline migrates to a neighbouring station.

        Raises:
            ConfigurationError: unless ``0 < head_len < len(self)``.
        """
        if not 0 < head_len < len(self):
            raise ConfigurationError(
                f"head_len must be in (0, {len(self)}), got {head_len}")
        return (TaskPipeline(self._tasks[:head_len]),
                TaskPipeline(self._tasks[head_len:]))

    def heaviest_index(self) -> int:
        """Index of the stage with the largest compute weight.

        Ties break toward the earliest stage, matching the paper's
        observation that rendering - which comes first in [5]'s pipeline
        listing - is the most computing-intensive task.
        """
        best = 0
        for k, task in enumerate(self._tasks):
            if task.compute_weight > self._tasks[best].compute_weight:
                best = k
        return best


#: The four canonical stages of Braud et al. [5], with rendering carrying
#: the dominant compute weight.
STANDARD_STAGES: Tuple[ARTask, ...] = (
    ARTask(name="render_object", output_kb=100.0, compute_weight=2.0),
    ARTask(name="track_objects", output_kb=64.0, compute_weight=1.0),
    ARTask(name="update_world_model", output_kb=64.0, compute_weight=1.0),
    ARTask(name="recognize_objects", output_kb=64.0, compute_weight=1.0),
)


def _build_standard_pipeline(num_tasks: int) -> TaskPipeline:
    stages: List[ARTask] = list(STANDARD_STAGES[:num_tasks])
    extra = num_tasks - len(STANDARD_STAGES)
    for k in range(max(0, extra)):
        stages.append(ARTask(
            name=f"refine_stage_{k + 1}",
            output_kb=64.0,
            compute_weight=0.5,
        ))
    return TaskPipeline(stages)


#: The standard pipelines of 1..8 stages, built once and shared.
_STANDARD_PIPELINES: Tuple[TaskPipeline, ...] = tuple(
    _build_standard_pipeline(n) for n in range(1, 9))


def standard_ar_pipeline(num_tasks: int = 4) -> TaskPipeline:
    """The shared pipeline built from the canonical stages of [5].

    Args:
        num_tasks: number of stages, 1..8.  Up to 4 takes a prefix of
            the canonical four; 5-8 appends lighter refinement stages
            (the paper draws 3-5 tasks per request).

    Returns:
        The one :class:`TaskPipeline` with `num_tasks` stages; every
        call with the same count returns the same instance.
    """
    if not 1 <= num_tasks <= 8:
        raise ConfigurationError(
            f"num_tasks must be in [1, 8], got {num_tasks}")
    return _STANDARD_PIPELINES[num_tasks - 1]

"""Process-parallel execution layer for experiment sweeps.

Every figure of the paper is a (algorithm x swept-value x seed) grid of
independent runs.  This module decomposes such a grid into picklable
:class:`RunSpec` task descriptors and executes them through one of two
interchangeable backends:

* :class:`SerialBackend` - runs specs in-process, in order (the
  reference semantics and the right choice for tiny sweeps, where
  process startup dominates);
* :class:`ProcessBackend` - fans specs out over a
  :class:`concurrent.futures.ProcessPoolExecutor` with chunked
  dispatch.

**Determinism guarantee.**  A :class:`RunSpec` is self-contained: the
worker rebuilds the problem instance, workload, and algorithm from the
spec's ``(config, seed)`` alone, and every random draw inside a run
comes from :class:`~repro.rng.RngForks` streams named from that seed.
No state is shared between tasks, so the execution schedule (worker
count, chunking, completion order) cannot change any draw, and results
are merged back in the canonical spec order.  Serial and parallel
executions of the same spec list therefore produce *identical*
:class:`~repro.sim.results.RunRecord` sequences, bit for bit.
"""

from __future__ import annotations

import dataclasses
import inspect
import os
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..config import SimulationConfig
from ..core.instance import ProblemInstance
from ..exceptions import ConfigurationError
from ..rng import RngForks
from ..sim.engine import run_offline
from ..sim.online_engine import OnlineEngine
from ..sim.results import RunRecord, SweepResult
from ..telemetry import ProgressReporter, profiling
from ..telemetry.audit import Journal, use_journal
from ..telemetry.metrics import MetricsRegistry, use_metrics

#: ``progress`` knob: off, on (executor builds a stderr reporter), or
#: a caller-configured reporter.
ProgressKnob = Union[bool, ProgressReporter, None]

#: ``RunSpec.mode`` for batch (Figs. 3/5) runs.
OFFLINE = "offline"
#: ``RunSpec.mode`` for slotted (Figs. 4/6) runs.
ONLINE = "online"


@dataclass(frozen=True)
class RunSpec:
    """One self-contained (algorithm, x, seed) run of a sweep.

    The spec must be picklable to cross a process boundary: ``factory``
    should be a module-level class or function (the figure drivers pass
    algorithm classes), and ``config`` is a frozen dataclass.

    Attributes:
        mode: :data:`OFFLINE` or :data:`ONLINE`.
        factory: zero-argument callable building a fresh algorithm or
            policy (fresh per run - policies carry bandit state).
        x: value of the swept parameter (recorded, not interpreted).
        seed: replication seed; drives instance, workload, and
            algorithm randomness.
        config: full simulation configuration for this point.
        num_requests: workload size ``|R|``.
        horizon_slots: online monitoring period (required for
            :data:`ONLINE` mode).
        slot_length_ms: online slot length.
        trace: run under a fresh :class:`~repro.telemetry.Tracer` and
            attach the events to the record's ``trace`` field.  Purely
            additive: metrics are identical with tracing on or off.
        journal: run under a fresh decision
            :class:`~repro.telemetry.audit.Journal` and attach the
            events to the record's ``journal`` field.  Purely
            additive: metrics are identical with journaling on or off.
        profile: run under a fresh tracer + metrics registry +
            ``cProfile`` and attach a
            :class:`~repro.telemetry.profiling.ProfileDigest` (span
            attribution + domain counters) and picklable cProfile
            stats to the record.  Purely additive: metrics, traces,
            and journals are byte-identical with profiling on or off.
        profile_mem: additionally capture ``tracemalloc`` top
            allocation sites onto the record.  Purely additive, like
            ``profile``.
    """

    mode: str
    factory: Callable[[], object]
    x: float
    seed: int
    config: SimulationConfig
    num_requests: int
    horizon_slots: Optional[int] = None
    slot_length_ms: float = 50.0
    trace: bool = False
    journal: bool = False
    profile: bool = False
    profile_mem: bool = False

    def validate(self) -> "RunSpec":
        """Raise on inconsistent specs; return self for chaining."""
        if self.mode not in (OFFLINE, ONLINE):
            raise ConfigurationError(f"unknown RunSpec mode {self.mode!r}")
        if self.mode == ONLINE and self.horizon_slots is None:
            raise ConfigurationError(
                "online RunSpec needs horizon_slots")
        if self.num_requests < 1:
            raise ConfigurationError(
                f"need >= 1 request, got {self.num_requests}")
        return self


def run_metrics(result) -> Dict[str, float]:
    """The metric row every sweep records from a ``ScheduleResult``."""
    return {
        "total_reward": result.total_reward,
        "avg_latency_ms": result.average_latency_ms(),
        "runtime_s": result.runtime_s,
        "num_admitted": float(result.num_admitted),
        "num_rewarded": float(result.num_rewarded),
    }


def _fresh_algorithm(factory: Callable[[], object], seed: int):
    """Build an algorithm/policy, seeding its internal randomness.

    Factories exposing an unbound ``rng`` parameter (e.g.
    ``DynamicRR``) would otherwise fall back to OS entropy, making the
    run irreproducible - serially or in parallel.  The stream is named
    from the run seed alone, so every backend derives the same one.
    Factories with ``rng`` already bound (e.g. ``functools.partial``)
    or without the parameter are called as-is.
    """
    try:
        params = inspect.signature(factory).parameters
    except (TypeError, ValueError):
        return factory()
    bound = getattr(factory, "keywords", None) or {}
    if "rng" in params and "rng" not in bound:
        return factory(rng=RngForks(seed).child("algorithm_rng"))
    return factory()


def execute_run(spec: RunSpec) -> RunRecord:
    """Execute one spec and return its measurement.

    Rebuilds everything from ``(config, seed)`` so the call is
    deterministic regardless of which process runs it or what ran
    before it.  With ``spec.trace`` the run executes under a fresh
    :class:`~repro.telemetry.Tracer` (installed only for its
    duration) and the record carries the trace events; with
    ``spec.journal`` it likewise executes under a fresh decision
    :class:`~repro.telemetry.audit.Journal` and carries the audit
    events home.

    A traced or profiled run also executes under a fresh
    :class:`~repro.telemetry.metrics.MetricsRegistry`, whose counters
    (event counts, solver counters like ``simplex_iterations_total``)
    join the trace as counter events.  With ``spec.profile`` the run
    additionally executes under ``cProfile``; the record carries a
    :class:`~repro.telemetry.profiling.ProfileDigest` plus picklable
    cProfile stats.  ``spec.profile_mem`` captures ``tracemalloc`` top
    allocation sites.  The capture is
    :class:`~repro.telemetry.profiling.Capture`, the same one a
    profiled service run uses.  All of it is observation only: the
    metrics, trace, and journal of a profiled run are byte-identical
    to an unprofiled one.
    """
    spec.validate()
    if not (spec.trace or spec.journal or spec.profile
            or spec.profile_mem):
        return _execute_untraced(spec)
    journal = Journal() if spec.journal else None
    registry = MetricsRegistry() if (spec.trace or spec.profile) \
        else None
    capture = profiling.Capture(trace=spec.trace, profile=spec.profile,
                                profile_mem=spec.profile_mem,
                                registry=registry)
    with ExitStack() as stack:
        if journal is not None:
            stack.enter_context(use_journal(journal))
        if registry is not None:
            stack.enter_context(use_metrics(registry))
        with capture:
            record = _execute_untraced(spec)
    return dataclasses.replace(
        record,
        trace=tuple(capture.events) if spec.trace else None,
        journal=tuple(journal.events()) if journal is not None else None,
        profile=(capture.digest.to_dict()
                 if capture.digest is not None else None),
        profile_stats=capture.stats,
        profile_mem=(tuple(capture.memory)
                     if capture.memory is not None else None))


def _execute_untraced(spec: RunSpec) -> RunRecord:
    """The run itself, recording through whatever tracer is current."""
    instance = ProblemInstance.build(spec.config, seed=spec.seed)
    algorithm = _fresh_algorithm(spec.factory, spec.seed)
    if spec.mode == OFFLINE:
        workload = instance.new_workload(
            num_requests=spec.num_requests, seed=spec.seed)
        result = run_offline(algorithm, instance, workload,
                             seed=spec.seed)
    else:
        workload = instance.new_workload(
            num_requests=spec.num_requests, seed=spec.seed,
            horizon_slots=spec.horizon_slots)
        engine = OnlineEngine(
            instance, workload, horizon_slots=spec.horizon_slots,
            slot_length_ms=spec.slot_length_ms, rng=spec.seed)
        result = engine.run(algorithm)
    return RunRecord(algorithm=result.algorithm, x=spec.x,
                     seed=spec.seed, metrics=run_metrics(result))


def _execute_chunk(specs: Sequence[RunSpec]) -> List[RunRecord]:
    """Execute one dispatched chunk in a worker (picklable target)."""
    return [execute_run(spec) for spec in specs]


def workers_type(value: str) -> int:
    """argparse type for a ``--workers`` option: non-negative int."""
    import argparse

    count = int(value)
    if count < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (0 = one per CPU), got {count}")
    return count


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a worker-count knob.

    ``None`` and ``1`` mean serial; ``0`` means one worker per CPU;
    any other positive value is taken literally.
    """
    if workers is None:
        return 1
    if workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise ConfigurationError(
            f"workers must be >= 0, got {workers}")
    return workers


def default_chunk_size(num_specs: int, workers: int) -> int:
    """Chunk so each worker sees ~4 chunks (amortizes IPC without
    starving the pool at the tail of the sweep)."""
    return max(1, num_specs // (workers * 4))


class SerialBackend:
    """Run specs one after another in the calling process."""

    name = "serial"

    def map(self, specs: Sequence[RunSpec],
            progress: Optional[ProgressReporter] = None
            ) -> List[RunRecord]:
        """Execute all specs, preserving order.

        ``progress`` (when given) is advanced once per completed spec;
        it observes execution and cannot affect any record.
        """
        records: List[RunRecord] = []
        for spec in specs:
            records.append(execute_run(spec))
            if progress is not None:
                progress.advance(1)
        return records


class ProcessBackend:
    """Run specs on a process pool with chunked dispatch.

    Args:
        workers: pool size (>= 2 - use :class:`SerialBackend` for 1).
    """

    name = "process"

    def __init__(self, workers: int) -> None:
        if workers < 2:
            raise ConfigurationError(
                f"ProcessBackend needs >= 2 workers, got {workers}")
        self.workers = workers

    def map(self, specs: Sequence[RunSpec],
            progress: Optional[ProgressReporter] = None
            ) -> List[RunRecord]:
        """Execute all specs on the pool, preserving spec order.

        The specs go out as :func:`default_chunk_size` chunks, one
        future each; ``progress`` (when given) advances as each chunk
        *completes*.  Completion order is nondeterministic, but the
        results are assembled in canonical spec order, so records are
        identical for every worker count - every run is self-contained.
        """
        if not specs:
            return []
        # Imported here: a serial run never loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor, as_completed

        chunk = default_chunk_size(len(specs), self.workers)
        chunks = [list(specs[i:i + chunk])
                  for i in range(0, len(specs), chunk)]
        results: List[Optional[List[RunRecord]]] = [None] * len(chunks)
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            futures = {pool.submit(_execute_chunk, part): index
                       for index, part in enumerate(chunks)}
            for future in as_completed(futures):
                index = futures[future]
                results[index] = future.result()
                if progress is not None:
                    progress.advance(len(chunks[index]))
        return [record for part in results for record in part]


def make_backend(workers: Optional[int] = 1):
    """Pick the backend matching a resolved worker count."""
    resolved = resolve_workers(workers)
    if resolved <= 1:
        return SerialBackend()
    return ProcessBackend(resolved)


def resolve_progress(progress: ProgressKnob) -> Optional[ProgressReporter]:
    """Normalize the ``progress`` knob to a reporter or None.

    ``True`` builds a default stderr reporter; a
    :class:`~repro.telemetry.ProgressReporter` instance passes
    through; falsy values disable progress.
    """
    if isinstance(progress, ProgressReporter):
        return progress
    if progress:
        return ProgressReporter()
    return None


def execute_specs(specs: Sequence[RunSpec],
                  workers: Optional[int] = 1,
                  trace: bool = False,
                  journal: bool = False,
                  profile: bool = False,
                  profile_mem: bool = False,
                  progress: ProgressKnob = None) -> List[RunRecord]:
    """Execute a spec list and return records in canonical spec order.

    Args:
        specs: the runs.
        workers: process count (1 = serial, 0 = one per CPU).
        trace: force tracing on for every spec; each run (wherever it
            executes) records its own trace, carried home on its
            record in canonical spec order.
        journal: force decision journaling on for every spec; each run
            records its own audit journal, carried home on its record
            in canonical spec order (merge with
            :func:`~repro.telemetry.audit.collect_sweep_journal`).
        profile: force profiling on for every spec; each run carries a
            :class:`~repro.telemetry.profiling.ProfileDigest` +
            cProfile stats home in canonical spec order (merge with
            :func:`~repro.telemetry.profiling.collect_sweep_profiles`).
            Observation only: records are byte-identical with
            profiling on or off.
        profile_mem: force allocation-site capture on for every spec.
        progress: live heartbeat - ``True`` for the default stderr
            reporter or a pre-configured
            :class:`~repro.telemetry.ProgressReporter`.  Observation
            only: records are byte-identical with progress on or off.
    """
    forced = {name: True for name, on in (
        ("trace", trace), ("journal", journal), ("profile", profile),
        ("profile_mem", profile_mem)) if on}
    if forced:
        specs = [dataclasses.replace(spec, **forced) for spec in specs]
    for spec in specs:
        spec.validate()
    reporter = resolve_progress(progress)
    if reporter is not None:
        reporter.start(len(specs))
    records = make_backend(workers).map(specs, progress=reporter)
    if reporter is not None:
        reporter.finish()
    return records


def execute_sweep(specs: Sequence[RunSpec], x_label: str,
                  **options: Any) -> SweepResult:
    """Execute a spec list and bundle the records into a sweep.

    ``options`` are the keywords of :func:`execute_specs`.
    """
    sweep = SweepResult(x_label)
    sweep.extend(execute_specs(specs, **options))
    return sweep

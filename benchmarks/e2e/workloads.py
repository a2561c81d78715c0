"""The four end-to-end workloads of the benchmark.

Every workload is a closed loop with one client, the benchmark process:
each op starts when the previous one returns.  Inputs are built from the
seed alone, outside the timed region; the program receives only the
generated configs.  Work is grouped in *units* that always run whole,
so the mix of ops does not depend on how fast the machine is:

* ``fig3-offline``: one unit is one seed, run by ``Appro`` then ``Heu``
  (two ops, each one ``execute_run`` at |R| = 300).
* ``fig4-online``: one unit is one ``DynamicRR`` run (|R| = 300,
  100 slots of 50 ms).
* ``service-greedy`` / ``service-dynamicrr``: one unit is one complete
  service lifetime in virtual time, from construction to drain; every
  ``tick()`` is an op.  A fixed arrival count per episode keeps the
  checkpoint sizes, and so the tick-time tail, independent of speed.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import astuple, dataclass
from functools import partial
from typing import Any, Callable, Dict, Iterator, Optional

from repro.core.appro import Appro
from repro.core.dynamic_rr import DynamicRR
from repro.core.heu import Heu
from repro.experiments import executor
from repro.experiments.executor import OFFLINE, ONLINE, RunSpec
from repro.experiments.settings import base_config
from repro.service.loadgen import build_config
from repro.service.loop import AdmissionService, SlotReport
from repro.sim.results import RunRecord
from repro.telemetry.metrics import MetricsRegistry

#: Workload size |R| of both figure workloads (the paper's largest
#: Fig. 3 point and the Fig. 4 scale).
FIG_REQUESTS = 300
#: Fig. 4 monitoring period T, in 50 ms slots.
FIG4_HORIZON_SLOTS = 100
#: Bounded pending queue of both service workloads (the CI setting).
QUEUE_LIMIT = 64
#: Checkpoint cadence of the durable service workload.
CHECKPOINT_EVERY = 64
#: Warm-up units use seeds this far above the run's seed, outside any
#: measured set.
WARMUP_SEED_OFFSET = 1_000_000


@dataclass
class Op:
    """One timed call.

    Attributes:
        unit: the unit's key in ``expected.json``.
        index: tick index within a service episode (None for a run).
        call: the timed call; returns the op's output.
        check: conservation check of the output; returns a problem
            description or None.
        requests: requests the output says the op processed.
    """

    unit: str
    index: Optional[int]
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    requests: Callable[[Any], int]

    @property
    def op_id(self) -> str:
        return self.unit if self.index is None else f"{self.unit}:{self.index}"


def short_digest(values: Any) -> str:
    """An 8-hex-digit digest of ``repr(values)`` (floats in full)."""
    return hashlib.blake2b(repr(values).encode("utf-8"),
                           digest_size=4).hexdigest()


def digest(output: Any) -> str:
    """Digest of an op's output.

    A run digests ``RunRecord.metrics`` without the wall-clock
    ``runtime_s``; a tick digests the count and reward fields of its
    ``SlotReport`` and ``SlotOutcome``.
    """
    if isinstance(output, RunRecord):
        return short_digest((output.algorithm, sorted(
            (key, value) for key, value in output.metrics.items()
            if key != "runtime_s")))
    if isinstance(output, SlotReport):
        return short_digest((astuple(output.outcome), output.num_shed,
                             output.num_deferred, output.checkpointed,
                             output.admitted_total, output.deferred_total,
                             output.shed_total, output.dropped_total))
    raise TypeError(f"no digest for {type(output).__name__}")


def _execute(spec: RunSpec) -> RunRecord:
    # Looked up at call time, so a traced run calls the shim.
    return executor.execute_run(spec)


def _check_record(record: RunRecord) -> Optional[str]:
    metrics = record.metrics
    admitted = metrics["num_admitted"]
    rewarded = metrics["num_rewarded"]
    reward = metrics["total_reward"]
    if not 0 <= admitted <= FIG_REQUESTS:
        return f"admitted {admitted} of {FIG_REQUESTS} requests"
    if not 0 <= rewarded <= admitted:
        return f"rewarded {rewarded} but admitted {admitted}"
    if not (math.isfinite(reward) and reward >= 0):
        return f"total reward {reward}"
    return None


def _run_requests(record: RunRecord) -> int:
    return FIG_REQUESTS


class Workload:
    """A named stream of units (see the module docstring)."""

    name = ""
    #: One line on why the workload exists (``BENCHMARK.json``).
    why = ""
    #: The percentile reported as ``op_ms_tail``; fixed per workload,
    #: as high as still repeats from run to run.
    tail_percentile = 95
    #: Units of seeds 0, 1, ... whose digests ``expected.json`` holds.
    expected_units = 0

    def ops(self, seed: int, scratch: str) -> Iterator[Op]:
        """The ops of the unit with this seed, in order."""
        raise NotImplementedError


class Fig3Offline(Workload):
    name = "fig3-offline"
    why = ("batch LP path at the largest Fig. 3 point: LP build, HiGHS, "
           "marshalling and rounding; no engine, bandit, journal or "
           "service")
    # p75 rather than p90: it repeats better run to run, and leaves
    # 11-21 of the 44-84 runs of a default-length run beyond it.
    tail_percentile = 75
    expected_units = 56

    def ops(self, seed: int, scratch: str) -> Iterator[Op]:
        config = base_config(seed)
        for factory in (Appro, Heu):
            spec = RunSpec(mode=OFFLINE, factory=factory,
                           x=float(FIG_REQUESTS), seed=seed, config=config,
                           num_requests=FIG_REQUESTS)
            yield Op(unit=f"{seed}:{factory.name}", index=None,
                     call=partial(_execute, spec), check=_check_record,
                     requests=_run_requests)


class Fig4Online(Workload):
    name = "fig4-online"
    why = ("DynamicRR at paper scale: many small LP-PT solves with "
           "workspace reuse and warm starts, plus the bandit and engine "
           "step")
    # 16-28 runs in a default-length run: p60 leaves 6-11 beyond it.
    tail_percentile = 60
    expected_units = 36

    def ops(self, seed: int, scratch: str) -> Iterator[Op]:
        spec = RunSpec(mode=ONLINE, factory=DynamicRR,
                       x=float(FIG_REQUESTS), seed=seed,
                       config=base_config(seed),
                       num_requests=FIG_REQUESTS,
                       horizon_slots=FIG4_HORIZON_SLOTS)
        yield Op(unit=str(seed), index=None, call=partial(_execute, spec),
                 check=_check_record, requests=_run_requests)


def _tick_requests(report: SlotReport) -> int:
    return report.outcome.num_arrivals + report.num_shed


def _check_tick(service: AdmissionService,
                report: SlotReport) -> Optional[str]:
    counters = service.counters
    outcome = report.outcome
    if counters["arrivals"] != counters["accepted"] + counters["shed"]:
        return (f"arrivals {counters['arrivals']} != accepted "
                f"{counters['accepted']} + shed {counters['shed']}")
    settled = counters["started"] + counters["dropped"]
    if counters["accepted"] != settled + outcome.pending_after:
        return (f"accepted {counters['accepted']} != started + dropped "
                f"{settled} + pending {outcome.pending_after}")
    if service.done and (outcome.pending_after or outcome.active_after):
        return (f"drained with {outcome.pending_after} pending and "
                f"{outcome.active_after} active")
    return None


class ServiceWorkload(Workload):
    """Episodes of the admission service in virtual time.

    The tail is p95.  p99 of the durable workload falls among its
    checkpoint ticks (1.4% of ticks), whose fsync'd writes make it
    spread 14-20% from run to run; their cost shows in
    ``requests_per_s`` instead.

    Args:
        name: workload name.
        why: one-line reason (``BENCHMARK.json``).
        policy: service policy.
        arrivals: arrivals per episode.
        rate: mean arrivals per 50 ms slot.
        durable: journal every decision and checkpoint every
            :data:`CHECKPOINT_EVERY` slots into the scratch directory.
        expected_units: episodes whose digests ``expected.json`` holds.
    """

    def __init__(self, name: str, why: str, policy: str, arrivals: int,
                 rate: float, durable: bool, expected_units: int) -> None:
        self.name = name
        self.why = why
        self.policy = policy
        self.arrivals = arrivals
        self.rate = rate
        self.durable = durable
        self.expected_units = expected_units

    def ops(self, seed: int, scratch: str) -> Iterator[Op]:
        files: Dict[str, Any] = {}
        if self.durable:
            files = {
                "journal_path": os.path.join(scratch,
                                             f"journal-{seed}.jsonl"),
                "checkpoint_path": os.path.join(scratch,
                                                f"checkpoint-{seed}.pkl"),
                "checkpoint_every": CHECKPOINT_EVERY}
        config = build_config(self.arrivals, self.rate, policy=self.policy,
                              seed=seed, queue_limit=QUEUE_LIMIT, **files)
        service = AdmissionService(config, registry=MetricsRegistry())
        try:
            tick = 0
            while not service.done:
                yield Op(unit=str(seed), index=tick,
                         call=lambda: service.tick(),
                         check=partial(_check_tick, service),
                         requests=_tick_requests)
                tick += 1
        finally:
            service.close()
            for key in ("journal_path", "checkpoint_path"):
                if key in files and os.path.exists(files[key]):
                    os.remove(files[key])


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Fig3Offline(),
        Fig4Online(),
        ServiceWorkload(
            "service-greedy",
            "CI overload point, 80% of arrivals shed: generation, "
            "latency checks and the queue, never an LP solve",
            policy="greedy", arrivals=30_000, rate=64.0, durable=False,
            expected_units=8),
        ServiceWorkload(
            "service-dynamicrr",
            "durable service: journal and checkpoint writes beside "
            "LP-PT; checkpoint ticks cut its throughput",
            policy="dynamicrr", arrivals=2_300, rate=8.0, durable=True,
            expected_units=7),
    )
}


def expected_digest(expected: Dict[str, Any], workload: str,
                    op: Op) -> Optional[str]:
    """The committed digest of an op, or None when none is stored."""
    entry = expected.get(workload, {}).get(op.unit)
    if entry is None:
        return None
    if op.index is None:
        return entry
    return entry[op.index] if op.index < len(entry) else "(no such tick)"

"""The long-lived streaming admission loop.

:class:`AdmissionService` turns the batch-oriented
:class:`~repro.sim.online_engine.OnlineEngine` into a service: an
unbounded :class:`~repro.requests.arrivals.PoissonArrivalStream` feeds
per-slot batches through a **bounded pending queue**, every ingress
decision (ADMIT into the engine, ADMIT_DEFERRED when the request waits
past its arrival slot, SHED when the queue is full) is journaled as a
first-class event, and the whole mutable state checkpoints to disk at a
deterministic slot cadence.

Determinism contract: all randomness forks from ``config.sim.seed``
via :class:`~repro.rng.RngForks` named children, the engine is driven
by ``step()`` alone (no decision table, flat memory), and
checkpoint/restore reproduces the remaining slots exactly - the
decision journal of a killed-and-resumed run is byte-identical to an
uninterrupted run (see :mod:`repro.service.checkpoint`).

Every event the loop emits goes to the decision journal; a resume is
counted on ``/metrics`` (``service_resumes_total``) and never journaled.
The service's metrics registry is the one store of its tallies:
:attr:`AdmissionService.counters`, ``status()["counters"]`` and the
:class:`SlotReport` totals are views of its series
(:data:`TALLY_SERIES`), restored on resume with the rest of the
registry.

The synchronous core is :meth:`AdmissionService.tick` (one slot);
:meth:`AdmissionService.serve` drives it as an asyncio coroutine in
virtual time, yielding the event loop between slots so a host process
can multiplex the service with other work.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..baselines import GreedyOnline, RandomOnline
from ..config import SimulationConfig
from ..core.dynamic_rr import DynamicRR
from ..core.instance import ProblemInstance
from ..exceptions import ConfigurationError, PersistenceError
from ..requests.arrivals import PoissonArrivalStream, check_mean_per_slot
from ..requests.generator import RequestGenerator
from ..rng import RngForks
from ..sim.events import EventKind
from ..sim.online_engine import OnlineEngine, SlotOutcome
from ..telemetry.audit import Journal, emit, emit_many, use_journal
from ..telemetry.metrics import MetricsRegistry, use_metrics
from .checkpoint import (JournalCursor, ServiceCheckpoint,
                         read_checkpoint, truncate_journal,
                         write_checkpoint)

#: Policies the service can run (name -> needs an RNG fork).
SERVICE_POLICIES = ("greedy", "dynamicrr", "random")

#: Tally -> the registry counter holding it, in reporting order
#: (``arrivals`` is not stored: it is ``accepted + shed``).
TALLY_SERIES: Tuple[Tuple[str, str], ...] = (
    ("accepted", "engine_arrivals_total"),
    ("shed", "service_shed_total"),
    ("deferred", "service_deferred_total"),
    ("started", "engine_starts_total"),
    ("completed", "engine_completions_total"),
    ("dropped", "engine_drops_total"),
    ("reward", "engine_reward_total"),
    ("slots", "service_slots_total"),
)

#: Slot cadence of the allocation-watermark gauges (only published
#: while ``tracemalloc`` is tracing, i.e. under ``--profile-mem``).
_ALLOC_SAMPLE_SLOTS = 64


@dataclass(frozen=True)
class ServiceConfig:
    """Everything that defines one service run.

    A checkpoint stores this whole object; a resume rebuilds the
    runtime from it, so every field must stay picklable and
    deterministic.

    Attributes:
        sim: the simulation substrate (network, request parameters,
            seed - the root of every RNG fork).
        horizon_slots: hard upper bound on the slot count (the engine
            clock's horizon; pick generously for "unbounded" runs).
        mean_arrivals_per_slot: Poisson rate of the arrival stream, at
            most :data:`~repro.requests.arrivals.MAX_MEAN_PER_SLOT`.
        max_arrivals: stop generating after this many requests (None =
            truly unbounded; the service then runs to the horizon).
        policy: one of :data:`SERVICE_POLICIES`.
        queue_limit: bound on the engine's pending queue - arrivals
            beyond it are SHED at ingress (backpressure).
        journal_path: JSONL file for the streaming decision journal
            (None = no journaling, the throughput configuration).
        flush_every: journal flush chunk (bytes-identical for any
            value; only syscall batching changes).
        checkpoint_path: where checkpoints are written (None = never
            checkpoint; set together with ``checkpoint_every``).
        checkpoint_every: cut a checkpoint after every this many slots.
            The cadence is part of the deterministic timeline: the
            baseline run and a killed run must share it for the
            CHECKPOINT journal events to line up.
    """

    sim: SimulationConfig = field(default_factory=SimulationConfig)
    horizon_slots: int = 100_000
    mean_arrivals_per_slot: float = 4.0
    max_arrivals: Optional[int] = None
    policy: str = "greedy"
    queue_limit: int = 256
    journal_path: Optional[str] = None
    flush_every: int = 1024
    checkpoint_path: Optional[str] = None
    checkpoint_every: Optional[int] = None

    def validate(self) -> "ServiceConfig":
        """Raise :class:`ConfigurationError` on inconsistent values."""
        self.sim.validate()
        if self.horizon_slots < 1:
            raise ConfigurationError(
                f"horizon must be >= 1 slot, got {self.horizon_slots}")
        check_mean_per_slot("mean_arrivals_per_slot",
                            self.mean_arrivals_per_slot)
        if self.max_arrivals is not None and self.max_arrivals < 0:
            raise ConfigurationError(
                f"max_arrivals must be >= 0, got {self.max_arrivals}")
        if self.policy not in SERVICE_POLICIES:
            raise ConfigurationError(
                f"policy must be one of {SERVICE_POLICIES}, got "
                f"{self.policy!r}")
        if self.queue_limit < 1:
            raise ConfigurationError(
                f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.flush_every < 1:
            raise ConfigurationError(
                f"flush_every must be >= 1, got {self.flush_every}")
        if self.checkpoint_every is not None:
            if self.checkpoint_every < 1:
                raise ConfigurationError(
                    f"checkpoint_every must be >= 1, got "
                    f"{self.checkpoint_every}")
            if self.checkpoint_path is None:
                raise ConfigurationError(
                    "checkpoint_every needs a checkpoint_path")
        elif self.checkpoint_path is not None:
            raise ConfigurationError(
                "checkpoint_path needs a checkpoint_every")
        return self


@dataclass(frozen=True)
class SlotReport:
    """What one service slot did (the :meth:`AdmissionService.tick`
    result): the engine's outcome, the ingress decisions the service
    made around it, and the run's cumulative tallies so far (read from
    the registry) - so callers watching the loop never re-derive totals
    from the journal.
    """

    outcome: SlotOutcome
    num_shed: int
    num_deferred: int
    checkpointed: bool
    #: Cumulative counts including this slot.
    admitted_total: int = 0
    deferred_total: int = 0
    shed_total: int = 0
    dropped_total: int = 0


def _make_policy(config: ServiceConfig, forks: RngForks):
    """Build the configured policy with its own named RNG fork."""
    if config.policy == "dynamicrr":
        return DynamicRR(config.sim.online,
                         rng=forks.child("service.policy"))
    if config.policy == "random":
        return RandomOnline(rng=forks.child("service.policy"))
    return GreedyOnline()


class AdmissionService:
    """One streaming admission run (see the module docstring).

    Args:
        config: the run's definition (validated here).
        registry: the live metrics registry the run records into
            (default: a fresh :class:`MetricsRegistry`); it is the one
            store of the run's tallies.  :meth:`tick` installs it as
            current for the slot, so engine/policy/solver
            instrumentation all land in the same registry.

    Raises:
        ConfigurationError: when ``registry`` is a disabled (null)
            registry, which could hold no tallies.

    Use :meth:`resume` to rebuild a service from a checkpoint instead
    of constructing one directly.
    """

    def __init__(self, config: ServiceConfig,
                 registry: Optional[MetricsRegistry] = None,
                 _checkpoint: Optional[ServiceCheckpoint] = None) -> None:
        config.validate()
        if registry is None:
            registry = MetricsRegistry()
        elif not registry.enabled:
            raise ConfigurationError(
                "the admission service needs a live MetricsRegistry: "
                "its tallies are registry series")
        self.config = config
        self._metrics = registry
        forks = RngForks(config.sim.seed)
        self._instance = ProblemInstance.build(config.sim,
                                               seed=config.sim.seed)
        generator = RequestGenerator(config.sim.requests,
                                     self._instance.network,
                                     rng=forks.child("service.requests"))
        self._stream = PoissonArrivalStream(
            generator, config.mean_arrivals_per_slot,
            rng=forks.child("service.counts"),
            limit=config.max_arrivals)
        self._engine = OnlineEngine(
            self._instance, requests=[],
            horizon_slots=config.horizon_slots,
            rng=forks.child("service.engine"))
        self._policy = _make_policy(config, forks)
        self._journal: Optional[Journal] = None
        self.last_checkpoint_slot: Optional[int] = None
        #: The message of the PersistenceError a tick raised, if any: the
        #: journal or checkpoint on disk may have fallen behind, so the
        #: service reports itself degraded until it is resumed.
        self.persistence_error: Optional[str] = None
        self.done = False
        self._started = False
        if _checkpoint is not None:
            self._restore(_checkpoint)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def resume(cls, checkpoint_path: str,
               registry: Optional[MetricsRegistry] = None,
               ) -> "AdmissionService":
        """Rebuild a service from its checkpoint and continue.

        The decision journal file (when configured) is truncated back
        to the checkpoint's byte cursor and reopened in append mode, so
        the continued journal is byte-identical to an uninterrupted
        run's.  The checkpoint's metrics state is restored into
        ``registry`` (default: a fresh one) - the tallies and every
        other deterministic series continue from their pre-kill values
        instead of resetting - and ``service_resumes_total`` counts the
        resume.
        """
        checkpoint = read_checkpoint(checkpoint_path)
        return cls(checkpoint.config, registry=registry,
                   _checkpoint=checkpoint)

    def start(self) -> None:
        """Announce stations and initialize the policy (fresh run)."""
        if self._started:
            return
        self._started = True
        if self.config.journal_path is not None:
            self._journal = Journal(
                stream_path=self.config.journal_path,
                flush_every=self.config.flush_every)
        with use_journal(self._journal), use_metrics(self._metrics):
            self._engine.announce_stations()
            self._policy.begin(self._engine)

    def _restore(self, checkpoint: ServiceCheckpoint) -> None:
        """Install a checkpoint (the :meth:`resume` second half)."""
        self._started = True
        if self.config.journal_path is not None:
            truncate_journal(self.config.journal_path,
                             checkpoint.journal.byte_position)
            self._journal = Journal(
                stream_path=self.config.journal_path,
                flush_every=self.config.flush_every,
                append=True,
                already_recorded=checkpoint.journal.events_recorded)
        # begin() binds the engine and builds fresh learning state;
        # restore_state() then overwrites it with the checkpointed one.
        with use_metrics(self._metrics):
            self._policy.begin(self._engine)
        if checkpoint.policy_state is not None:
            self._policy.restore_state(checkpoint.policy_state)
        self._engine.restore_state(checkpoint.engine_state)
        self._stream.restore_state(checkpoint.stream_state)
        self._metrics.restore_state(checkpoint.metrics_state)
        self.last_checkpoint_slot = checkpoint.slot
        self._metrics.inc("service_resumes_total")

    # ------------------------------------------------------------------
    # The slot loop
    # ------------------------------------------------------------------
    def tick(self) -> SlotReport:
        """Execute one slot: pull arrivals, shed, step, defer, checkpoint.

        Ingress order is fixed (it is part of the journal's canonical
        byte stream): SHED decisions are journaled before the engine
        steps, ADMIT_DEFERRED after it (a request is deferred when it
        was accepted this slot but the policy left it pending), and the
        CHECKPOINT marker closes the slot.

        Raises:
            PersistenceError: when this slot's checkpoint or journal
                cannot be written; the previous checkpoint stays
                resumable and :attr:`persistence_error` keeps the
                message.
        """
        try:
            return self._tick()
        except PersistenceError as error:
            self.persistence_error = str(error)
            raise

    def _tick(self) -> SlotReport:
        if self.done:
            raise ConfigurationError("service already drained; "
                                     "construct a new one to run again")
        if not self._started:
            self.start()
        metrics = self._metrics
        began = time.perf_counter()  # repro: noqa DET010 -- advisory runtime metric
        # Arrivals past the queue's room are shed at ingress, so the
        # stream builds only the ones that fit.
        room = max(0, self.config.queue_limit
                   - self._engine.pending_count())
        slot, accepted, shed = self._stream.next_batch(room)
        self._engine.clock.advance_to(slot)
        with use_journal(self._journal), use_metrics(metrics):
            depth = float(self._engine.pending_count() + len(accepted))
            emit_many(EventKind.SHED, slot, shed,
                      lambda request_id: dict(request_id=request_id,
                                              value=depth))
            outcome = self._engine.step(self._policy, slot, accepted)
            deferred = (self._engine.still_pending(accepted)
                        if accepted else [])
            emit_many(EventKind.ADMIT_DEFERRED, slot, deferred,
                      lambda request: dict(
                          request_id=request.request_id,
                          value=float(outcome.pending_after)))
            # Count the slot before checkpointing so the checkpoint's
            # registry includes the slot it closes.
            metrics.inc("service_slots_total")
            metrics.observe("service_batch_size",
                            float(len(accepted) + len(shed)))
            checkpointed = self._maybe_checkpoint(slot)
        tick_seconds = time.perf_counter() - began  # repro: noqa DET010 -- advisory runtime metric
        metrics.observe("service_slot_latency_seconds", tick_seconds)
        # Allocation watermarks, published only while a profiler
        # (loadgen --profile-mem) has tracemalloc running; sampled
        # sparsely - the snapshot-free watermark read is cheap, but
        # there is no reason to touch it every slot.  Flat gauges
        # across a long run are the service's flat-RSS claim, live.
        # Nothing traces unless tracemalloc was imported.
        tracemalloc = (sys.modules.get("tracemalloc")
                       if slot % _ALLOC_SAMPLE_SLOTS == 0 else None)
        if tracemalloc is not None and tracemalloc.is_tracing():
            current_b, peak_b = tracemalloc.get_traced_memory()
            metrics.set_gauge("service_alloc_current_kb",
                              current_b / 1024.0)
            metrics.set_gauge("service_alloc_peak_kb", peak_b / 1024.0)
        if self._stream.exhausted and outcome.pending_after == 0 \
                and outcome.active_after == 0:
            self.done = True
        elif slot >= self.config.horizon_slots - 1:
            self.done = True
        tallies = self.counters
        return SlotReport(outcome=outcome, num_shed=len(shed),
                          num_deferred=len(deferred),
                          checkpointed=checkpointed,
                          admitted_total=int(tallies["accepted"]),
                          deferred_total=int(tallies["deferred"]),
                          shed_total=int(tallies["shed"]),
                          dropped_total=int(tallies["dropped"]))

    async def serve(self, max_slots: Optional[int] = None) -> int:
        """Drive :meth:`tick` as a coroutine until drained.

        Runs in virtual time (as fast as the machine allows) and
        yields the event loop after every slot, so the service
        coexists with other coroutines on the same loop.

        Returns:
            Slots processed by this call.
        """
        import asyncio  # only the coroutine driver needs an event loop

        processed = 0
        while not self.done:
            if max_slots is not None and processed >= max_slots:
                break
            self.tick()
            processed += 1
            await asyncio.sleep(0)
        return processed

    def close(self) -> None:
        """Settle leftovers and flush/close the journal (clean stop).

        A *crash* is the absence of this call: buffered journal events
        past the last checkpoint are lost, which is exactly what the
        resume path's truncation reconciles.
        """
        with use_journal(self._journal), use_metrics(self._metrics):
            if self._engine.pending_count() or self._engine.active_total():
                self._engine.finalize()
        if self._journal is not None:
            self._journal.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _maybe_checkpoint(self, slot: int) -> bool:
        every = self.config.checkpoint_every
        if every is None or (slot + 1) % every != 0:
            return False
        # Count the checkpoint *before* exporting the registry, so the
        # checkpoint includes its own write and a resumed series
        # continues exactly (no off-by-one against an uninterrupted run).
        emit(EventKind.CHECKPOINT, slot)
        cursor = JournalCursor()
        if self._journal is not None:
            cursor = JournalCursor(
                events_recorded=self._journal.total_recorded,
                byte_position=self._journal.byte_position())
        policy_state = None
        if hasattr(self._policy, "export_state"):
            policy_state = self._policy.export_state()
        checkpoint = ServiceCheckpoint(
            config=self.config,
            slot=slot,
            engine_state=self._engine.export_state(),
            policy_state=policy_state,
            stream_state=self._stream.export_state(),
            journal=cursor,
            metrics_state=self._metrics.export_state(),
        )
        write_checkpoint(self.config.checkpoint_path, checkpoint)
        self.last_checkpoint_slot = slot
        return True

    # Introspection -----------------------------------------------------
    @property
    def engine(self) -> OnlineEngine:
        """The underlying engine (live occupancy views)."""
        return self._engine

    @property
    def journal(self) -> Optional[Journal]:
        """The streaming decision journal (None when unjournaled)."""
        return self._journal

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry the run records into (the store of its tallies)."""
        return self._metrics

    @property
    def counters(self) -> Dict[str, float]:
        """The run's cumulative tallies, read from the registry: a new
        dict of ``arrivals`` and the :data:`TALLY_SERIES` keys."""
        counter = self._metrics.counter
        tallies = {key: counter(series) for key, series in TALLY_SERIES}
        return {"arrivals": tallies["accepted"] + tallies["shed"],
                **tallies}

    def status(self) -> Dict[str, object]:
        """A JSON-able live-state summary (the `/metrics?format=json`
        and ops-console payload)."""
        return {
            "policy": self.config.policy,
            "slot": self._engine.clock.current_slot,
            "done": self.done,
            "pending": self._engine.pending_count(),
            "active": self._engine.active_total(),
            "queue_limit": self.config.queue_limit,
            "last_checkpoint_slot": self.last_checkpoint_slot,
            "checkpoint_every": self.config.checkpoint_every,
            "counters": self.counters,
        }

    def __repr__(self) -> str:
        pending = self._engine.pending_count()
        checkpoint = ("never" if self.last_checkpoint_slot is None
                      else f"@{self.last_checkpoint_slot}")
        return (f"AdmissionService(policy={self.config.policy!r}, "
                f"slot={self._engine.clock.current_slot}, "
                f"pending={pending}/{self.config.queue_limit}, "
                f"active={self._engine.active_total()}, "
                f"shed={int(self.counters['shed'])}, "
                f"checkpoint={checkpoint}, "
                f"done={self.done})")

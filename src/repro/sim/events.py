"""Event records emitted by the simulation engines and algorithms.

These are plain observation records - the audit trail of every
scheduling decision.  The decision journal
(:mod:`repro.telemetry.audit`) is their one store: it keeps each
event as its :meth:`Event.to_record` dict and serializes them to JSONL
so two runs can be diffed event by event (``python -m
repro.experiments trace-diff``).  The invariant monitor checks those
records (no request completes twice, completions follow starts,
capacity never oversubscribed beyond the sharing model), and
:mod:`repro.sim.timeline` renders them to narrate a simulation.

Every :class:`EventKind` member declares its :class:`EventSpec`: the
strip-chart glyph, the role the invariant monitor gives it, the
registry counter series it increments, and the span that owns that
counter.  Code never records an event directly; it calls
:func:`repro.telemetry.audit.emit` (or ``emit_many``), which
increments the kind's counter and journals the event when a journal is
enabled.  Each event counter therefore equals the journal's count of
its kind by construction, whether or not a journal is attached.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple


class AuditRole(enum.Enum):
    """How the invariant monitor treats a kind."""

    #: Advances a request's ARRIVAL -> START -> COMPLETE/DROP lifecycle.
    LIFECYCLE = "lifecycle"
    #: Algorithm 1 decision whose ``slot`` is a resource-slot index,
    #: not a time slot (the slot-order invariant skips it).
    RESOURCE_SLOT = "resource-slot"
    #: Station availability (capacity announcements and outages).
    STATION = "station"
    #: Bandit arm plays and eliminations.
    BANDIT = "bandit"
    #: Admission-service ingress and durability decisions.
    SERVICE = "service"
    #: Operational stream only, never the decision journal.
    OPS_ONLY = "ops-only"


@dataclass(frozen=True)
class EventSpec:
    """What one event kind looks like to rendering, audit and metrics.

    Attributes:
        glyph: one-character strip-chart glyph.
        role: how the invariant monitor treats the kind.
        counter: registry counter incremented once per event.
        span: tracer span that owns the counter (None: no span).
        labels: fixed labels of the counter series.
    """

    glyph: str
    role: AuditRole
    counter: str
    span: Optional[str]
    labels: Tuple[Tuple[str, str], ...] = ()


_LIFE, _SLOT = AuditRole.LIFECYCLE, AuditRole.RESOURCE_SLOT
_STATION, _BANDIT = AuditRole.STATION, AuditRole.BANDIT
_SERVICE, _OPS = AuditRole.SERVICE, AuditRole.OPS_ONLY


class EventKind(enum.Enum):
    """What happened (the value), and its :class:`EventSpec`."""

    def __new__(cls, value: str, spec: EventSpec) -> "EventKind":
        member = object.__new__(cls)
        member._value_ = value
        member.spec = spec
        return member

    spec: EventSpec

    ARRIVAL = ("arrival", EventSpec(
        "a", _LIFE, "engine_arrivals_total", "slot_admission"))
    START = ("start", EventSpec(
        "S", _LIFE, "engine_starts_total", "slot_admission"))
    COMPLETE = ("complete", EventSpec(
        "C", _LIFE, "engine_completions_total", "slot_admission"))
    DROP = ("drop", EventSpec(
        "x", _LIFE, "engine_drops_total", "slot_admission"))
    #: Heu moved one task of an admitted request to another station.
    MIGRATE = ("migrate", EventSpec(
        "m", _SLOT, "migrations_total", "migration"))
    #: A rounded assignment failed the prefix test (Algorithm 1 line 6).
    REJECT_ROUNDING = ("reject_rounding", EventSpec(
        "r", _SLOT, "rounding_rejects_total", "rounding"))
    #: A rounded assignment passed the prefix test and reserved capacity.
    ADMIT = ("admit", EventSpec(
        "A", _SLOT, "rounding_admits_total", "rounding"))
    #: DynamicRR played a threshold arm this bandit round.
    ARM_SELECTED = ("arm_selected", EventSpec(
        "b", _BANDIT, "bandit_rounds_total", "bandit_round"))
    #: Successive elimination deactivated a threshold arm.
    ARM_ELIMINATED = ("arm_eliminated", EventSpec(
        "e", _BANDIT, "bandit_arms_eliminated_total", "bandit_round"))
    #: A station entered an injected outage window.
    STATION_DOWN = ("station_down", EventSpec(
        "D", _STATION, "station_transitions_total", "slot_admission",
        (("direction", "down"),)))
    #: A station (re)announced itself available (carries its capacity).
    STATION_UP = ("station_up", EventSpec(
        "U", _STATION, "station_transitions_total", "slot_admission",
        (("direction", "up"),)))
    #: The admission service accepted a request into the pending queue
    #: but did not place it in its arrival slot (it waits, and must
    #: later START or be SHED/dropped - the deferred_resolution
    #: invariant).  ``value`` carries the queue depth at deferral.
    ADMIT_DEFERRED = ("admit_deferred", EventSpec(
        "d", _SERVICE, "service_deferred_total", None))
    #: Bounded-queue backpressure rejected a request at ingress (it
    #: never entered the engine).  ``value`` carries the queue depth
    #: that triggered the shed.
    SHED = ("shed", EventSpec("!", _SERVICE, "service_shed_total", None))
    #: The admission service persisted a checkpoint after this slot.
    #: Emitted at a deterministic cadence, so an uninterrupted run and
    #: a kill/resume run journal identical CHECKPOINT events.
    CHECKPOINT = ("checkpoint", EventSpec(
        "k", _SERVICE, "service_checkpoints_total", None))
    #: The admission service restored from a checkpoint.  Recorded on
    #: the *operational* stream only (never the decision journal -
    #: resuming must not perturb journal byte-identity).
    RESUME = ("resume", EventSpec(
        "R", _OPS, "service_resumes_total", None))
    #: Periodic dump of the live metrics registry (counters/gauges/
    #: histogram summaries as canonical tuples in ``detail``).  Like
    #: RESUME, strictly operational: never the decision journal.
    METRICS_SNAPSHOT = ("metrics_snapshot", EventSpec(
        "M", _OPS, "service_metrics_snapshots_total", None))


#: ``request_id`` of events that concern no particular request
#: (station availability, bandit arms).
NO_REQUEST = -1


@dataclass(frozen=True)
class Event:
    """One timestamped event.

    Attributes:
        slot: time slot of the event (for REJECT_ROUNDING/ADMIT emitted
            during batch admission this is the *resource-slot* index of
            Algorithm 1, not a time slot).
        kind: event type.
        request_id: the affected request (:data:`NO_REQUEST` for
            station/arm events).
        station_id: station involved (START/COMPLETE/ADMIT, the
            *destination* of a MIGRATE, the subject of STATION_DOWN/UP;
            for DROP, the station that last hosted the request, if
            any - None when the request was never hosted).
        reward: reward earned (START/COMPLETE; 0 on deadline miss).
        latency_ms: experienced latency (START/COMPLETE only).
        src_station_id: MIGRATE only - the station the task left.
        task_index: MIGRATE only - index of the migrated pipeline task.
        arm: ARM_SELECTED/ARM_ELIMINATED only - the arm's grid index.
        value: generic numeric payload - the threshold MHz of an arm
            event, the capacity MHz of a STATION_UP.
        reserved_mhz: MHz of *committed* reservation (offline ADMIT,
            MIGRATE share).  The invariant monitor accumulates these
            per station against capacity.
        share_mhz: MHz of an *elastic* round-robin share (online START
            first-served share, share-capped online ADMIT).  Checked
            against station capacity per event, never accumulated.
        detail: structured justification payload.  MIGRATE: a tuple of
            ``(station_id, free_mhz, reason)`` triples for the closer
            candidate stations that were skipped (reason ``"capacity"``
            or ``"latency"``).  ARM_ELIMINATED: ``(ucb, best_lcb)`` at
            elimination time.
    """

    slot: int
    kind: EventKind
    request_id: int = NO_REQUEST
    station_id: Optional[int] = None
    reward: float = 0.0
    latency_ms: Optional[float] = None
    src_station_id: Optional[int] = None
    task_index: Optional[int] = None
    arm: Optional[int] = None
    value: Optional[float] = None
    reserved_mhz: Optional[float] = None
    share_mhz: Optional[float] = None
    detail: Optional[Tuple] = None

    def to_record(self) -> Dict[str, Any]:
        """The event as a canonical JSON-serializable dict.

        Keys with ``None`` values are omitted (and ``request`` when the
        event concerns no request), so the serialized journal stays
        compact and two journals compare field by field.  ``detail``
        tuples become nested lists - the form a JSONL round-trip
        produces - so in-memory and re-read journals are equal.
        """
        record: Dict[str, Any] = {"kind": self.kind.value,
                                  "slot": self.slot}
        if self.request_id != NO_REQUEST:
            record["request"] = self.request_id
        if self.station_id is not None:
            record["station"] = self.station_id
        if self.kind in (EventKind.START, EventKind.COMPLETE,
                         EventKind.ADMIT):
            record["reward"] = self.reward
        if self.latency_ms is not None:
            record["latency_ms"] = self.latency_ms
        if self.src_station_id is not None:
            record["src"] = self.src_station_id
        if self.task_index is not None:
            record["task"] = self.task_index
        if self.arm is not None:
            record["arm"] = self.arm
        if self.value is not None:
            record["value"] = self.value
        if self.reserved_mhz is not None:
            record["reserved_mhz"] = self.reserved_mhz
        if self.share_mhz is not None:
            record["share_mhz"] = self.share_mhz
        if self.detail is not None:
            record["detail"] = _jsonable(self.detail)
        return record


def _jsonable(value):
    """Tuples (recursively) as lists, matching a JSONL round-trip."""
    if isinstance(value, (tuple, list)):
        return [_jsonable(item) for item in value]
    return value

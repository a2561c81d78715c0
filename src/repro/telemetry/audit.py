"""Decision audit journal and online invariant monitor.

The paper's guarantees are *invariants*: Appro never oversubscribes a
resource slot (Theorem 1's admission check), Heu migrations always land
on the closest feasible neighbour (Theorem 2), DynamicRR's successive
elimination only discards arms whose confidence intervals separate
(Theorem 3).  This module makes every scheduling decision a
first-class, journaled, checkable event:

* :func:`emit` / :func:`emit_many` are the one emission point of every
  :class:`~repro.sim.events.EventKind`: each call increments the kind's
  registry counter and journals the event when a journal is enabled;
* :class:`Journal` collects the canonical decision stream of one run -
  lifecycle events from the engines plus algorithm-level decisions
  (migrations, rounding rejections/admissions, bandit arm plays and
  eliminations, station outages) - as JSON-serializable dicts with no
  wall-clock content, so two executions of the same deterministic run
  produce byte-identical journals;
* :class:`NullJournal` is the zero-overhead default (mirroring
  :data:`~repro.telemetry.tracer.NULL_TRACER`): unjournaled runs pay
  one attribute lookup and a no-op call per emission point;
* :class:`InvariantMonitor` consumes the stream *during* the run
  (attach it to a journal) or post-hoc and checks ~10 invariants, in
  ``strict`` mode (raise :class:`~repro.exceptions.InvariantViolation`
  on first failure) or ``collect`` mode (accumulate
  :class:`Violation` findings for a report).

Journals ride home per-:class:`~repro.experiments.executor.RunSpec` on
``RunRecord.journal`` (like ``.trace``) and
:func:`collect_sweep_journal` merges them deterministically across the
process pool, so serial/parallel byte-identity is a checkable,
localizable property (``python -m repro.experiments trace-diff``).
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterator, List, Mapping,
                    Optional, Sequence, Tuple)

from ..exceptions import (ConfigurationError, InvariantViolation,
                          PersistenceError)
from .export import collect_sweep_trace
from .metrics import get_metrics

#: Pseudo station id of the remote cloud path (mirrors
#: ``repro.sim.online_engine.CLOUD_STATION`` without importing it -
#: the cloud has unbounded capacity, so capacity/outage checks skip it).
_CLOUD = -1


class NullJournal:
    """The zero-overhead default: every operation is a no-op."""

    enabled = False

    def record(self, event) -> None:
        """Discard an event."""

    def attach(self, observer) -> None:
        """Discard an observer (nothing will ever be delivered)."""

    def events(self) -> List[Dict[str, Any]]:
        """A null journal never has events."""
        return []

    def __enter__(self) -> "NullJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        """Nothing to close."""

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "NullJournal()"


class Journal:
    """Canonical, ordered decision stream of one run.

    Events are stored as plain dicts (see
    :meth:`repro.sim.events.Event.to_record`) in emission order, which
    is deterministic for a deterministic run - the journal contains no
    wall-clock fields at all, so its serialized form is directly
    comparable between executions.

    Observers attached with :meth:`attach` (typically an
    :class:`InvariantMonitor`) see each event synchronously as it is
    recorded; a strict monitor therefore fails the run at the exact
    decision that broke an invariant.

    **Streaming mode** (opt-in, for the long-lived admission service):
    pass ``stream_path`` and events are flushed to disk as JSONL in
    chunks of ``flush_every``, after which they leave memory - the
    journal stays flat no matter how long the run.  The on-disk format
    is byte-identical to :func:`repro.telemetry.export.write_jsonl`
    (``json.dumps(event, sort_keys=True)`` per line), so streamed
    journals diff directly with ``trace-diff``.  In streaming mode
    :meth:`events` returns only the *unflushed* tail.  ``append=True``
    reopens an existing journal file to continue it after a checkpoint
    restore; pass ``already_recorded`` so indices delivered to
    observers keep counting from the right place.

    Args:
        stream_path: JSONL file to stream events to (None = in-memory).
        flush_every: flush to disk every this many buffered events
            (the analysis-safe knob: any value produces the same bytes,
            only syscall batching changes).
        append: reopen ``stream_path`` and append instead of truncating.
        already_recorded: events already in the reopened file.

    Raises:
        PersistenceError: ``stream_path`` cannot be opened.
    """

    enabled = True

    def __init__(self, stream_path: Optional[str] = None,
                 flush_every: int = 1024, append: bool = False,
                 already_recorded: int = 0) -> None:
        if flush_every < 1:
            raise ConfigurationError(
                f"flush_every must be >= 1, got {flush_every}")
        if already_recorded < 0:
            raise ConfigurationError(
                f"already_recorded must be >= 0, got {already_recorded}")
        if append and stream_path is None:
            raise ConfigurationError(
                "append=True requires a stream_path")
        self._events: List[Dict[str, Any]] = []
        self._observers: List[Any] = []
        self._stream_path = stream_path
        self._flush_every = int(flush_every)
        self._total = int(already_recorded) if append else 0
        self._handle = None
        if stream_path is not None:
            try:
                self._handle = open(stream_path, "ab" if append else "wb")
                self._handle.seek(0, os.SEEK_END)
                self._bytes = self._handle.tell()
            except OSError as error:
                raise PersistenceError(
                    f"could not open journal {stream_path}: {error}"
                ) from error
        else:
            self._bytes = 0

    @property
    def streaming(self) -> bool:
        """True when events are flushed to a JSONL file."""
        return self._handle is not None

    @property
    def total_recorded(self) -> int:
        """Events recorded over the journal's lifetime (incl. flushed)."""
        return self._total

    def attach(self, observer) -> None:
        """Deliver every future event to ``observer.observe(event, i)``."""
        self._observers.append(observer)

    def record(self, event) -> None:
        """Append one event (an ``Event`` or a pre-built dict)."""
        record = event.to_record() if hasattr(event, "to_record") \
            else dict(event)
        index = self._total
        self._total += 1
        self._events.append(record)
        for observer in self._observers:
            observer.observe(record, index)
        if self._handle is not None \
                and len(self._events) >= self._flush_every:
            self.flush()

    def flush(self) -> None:
        """Write buffered events to the stream file and drop them.

        No-op for in-memory journals.  Lines match
        :func:`~repro.telemetry.export.write_jsonl` byte for byte.

        Raises:
            PersistenceError: the write failed (e.g. ENOSPC, EACCES).
                The buffered events and :meth:`byte_position` are left
                as they were; the file may end in a torn line, which a
                checkpoint resume truncates away.
        """
        if self._handle is None or not self._events:
            return
        chunk = "".join(json.dumps(event, sort_keys=True) + "\n"
                        for event in self._events)
        data = chunk.encode("utf-8")
        try:
            self._handle.write(data)
            self._handle.flush()
        except OSError as error:
            raise PersistenceError(
                f"could not write journal {self._stream_path}: {error}"
            ) from error
        self._bytes += len(data)
        self._events.clear()

    def byte_position(self) -> int:
        """Flush, then return the stream file's byte length.

        A checkpoint stores this so a resumed service can truncate a
        journal that ran past the checkpoint back to the exact byte.
        """
        self.flush()
        return self._bytes

    def close(self) -> None:
        """Flush and close the stream file (no-op in-memory)."""
        if self._handle is not None:
            self.flush()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        """Flush and close - *also* when the block raised.

        A streaming journal used as a context manager therefore leaves
        a parseable JSONL prefix of everything recorded before the
        crash: each line is complete (whole-line writes, flushed), so
        ``trace-diff`` and checkpoint resume-truncation accept the
        file as-is.
        """
        self.close()

    def events(self) -> List[Dict[str, Any]]:
        """The journal as a list of event dicts (shallow copies).

        In streaming mode this is only the unflushed tail - read the
        stream file for the full history.
        """
        return [dict(event) for event in self._events]

    def clear(self) -> None:
        """Drop unflushed events (observers stay attached)."""
        self._total -= len(self._events)
        self._events.clear()

    def __len__(self) -> int:
        return self._total

    def __repr__(self) -> str:
        if self.streaming:
            return (f"Journal(stream={self._stream_path!r}, "
                    f"events={self._total}, buffered={len(self._events)})")
        return f"Journal(events={len(self._events)})"


#: The shared no-op journal (also the initial current journal).
NULL_JOURNAL = NullJournal()

_current = NULL_JOURNAL


def get_journal():
    """The process-local current journal (:data:`NULL_JOURNAL` default)."""
    return _current


def set_journal(journal: Optional[Journal]):
    """Install ``journal`` as current (None restores the null journal).

    Returns:
        The journal now current.
    """
    global _current
    _current = journal if journal is not None else NULL_JOURNAL
    return _current


@contextmanager
def use_journal(journal: Optional[Journal]) -> Iterator[Any]:
    """Temporarily install a journal; always restores the previous one."""
    previous = _current
    set_journal(journal)
    try:
        yield get_journal()
    finally:
        set_journal(previous)


# ----------------------------------------------------------------------
# Emission
# ----------------------------------------------------------------------

def _events():
    """:mod:`repro.sim.events`, imported on first use.

    ``repro.sim`` imports this module, so a module-level import would
    be circular.
    """
    from ..sim import events

    return events


def emit(kind, slot: int, **fields) -> None:
    """Count one ``kind`` event and journal it when a journal is on.

    The counter is the kind's own :class:`~repro.sim.events.EventSpec`
    series in the current metrics registry, and the journal is the
    current one, so every event counter equals the journal's count of
    its kind, with or without a journal.  The
    :class:`~repro.sim.events.Event` is built only for an enabled
    journal.

    Args:
        kind: the :class:`~repro.sim.events.EventKind`.
        slot: the event's slot.
        **fields: the remaining :class:`~repro.sim.events.Event` fields.
    """
    spec = kind.spec
    get_metrics().inc(spec.counter, **dict(spec.labels))
    journal = _current
    if journal.enabled:
        journal.record(_events().Event(slot=slot, kind=kind, **fields))


def emit_many(kind, slot: int, items: Sequence[Any],
              fields_of: Callable[[Any], Dict[str, Any]]) -> None:
    """Count ``len(items)`` ``kind`` events with one increment.

    When the current journal is enabled, records one event per item,
    in order, with the fields ``fields_of(item)``; ``fields_of`` is
    never called otherwise.  Nothing happens for an empty ``items``.
    """
    if not items:
        return
    spec = kind.spec
    get_metrics().inc(spec.counter, len(items), **dict(spec.labels))
    journal = _current
    if journal.enabled:
        event = _events().Event
        for item in items:
            journal.record(event(slot=slot, kind=kind, **fields_of(item)))


# ----------------------------------------------------------------------
# Invariant monitor
# ----------------------------------------------------------------------

#: Checked invariant -> what it asserts.  The monitor's report and the
#: "Invariant audit" section enumerate exactly these names.
INVARIANTS: Dict[str, str] = {
    "slot_order": "time-slot events occur in non-decreasing slot "
                  "order within a run",
    "lifecycle": "requests follow ARRIVAL -> START -> COMPLETE/DROP",
    "double_terminal": "no request completes or drops twice",
    "capacity": "reserved/shared MHz never exceed station capacity "
                "under its sharing model",
    "reward_consistency": "a COMPLETE carries the reward settled at "
                          "its START",
    "reward_accounting": "journaled rewards and admissions match the "
                         "ScheduleResult",
    "migration_target": "migrations land on the closest feasible "
                        "neighbour (Theorem 2)",
    "arm_replay": "eliminated bandit arms are never replayed",
    "arm_separation": "arms are eliminated only when confidence "
                      "intervals separate (Theorem 3)",
    "station_outage": "no request starts on a station that is down",
    "deferred_resolution": "every ADMIT_DEFERRED request is later "
                           "started, shed, or dropped (never lost)",
}


def _roles() -> Dict[str, str]:
    """Event kind value -> its :class:`~repro.sim.events.AuditRole` value."""
    return {kind.value: kind.spec.role.value for kind in _events().EventKind}


@dataclass(frozen=True)
class Violation:
    """One invariant failure located in a journal.

    Attributes:
        invariant: name of the broken invariant (a key of
            :data:`INVARIANTS`).
        message: human-readable finding.
        index: position of the offending event in the stream (-1 for
            end-of-run accounting checks).
        event: the offending event dict (None for accounting checks).
    """

    invariant: str
    message: str
    index: int = -1
    event: Optional[Mapping[str, Any]] = None

    def __str__(self) -> str:
        where = f" at event {self.index}" if self.index >= 0 else ""
        return f"[{self.invariant}]{where}: {self.message}"


class InvariantMonitor:
    """Checks the paper's invariants over a decision stream.

    Attach to a :class:`Journal` to check *online* (during the run), or
    replay a recorded journal through :meth:`observe` /
    :meth:`check_events` post-hoc.  Call :meth:`finish` with the run's
    result (or its metric row) to close the books with the reward
    accounting check.

    Args:
        mode: ``"strict"`` raises
            :class:`~repro.exceptions.InvariantViolation` on the first
            failure; ``"collect"`` accumulates findings in
            :attr:`violations`.
        capacities: optional station id -> capacity MHz override.  By
            default capacities are learned from the journal's own
            ``STATION_UP`` announcements.
        tol: absolute slack for float comparisons.
    """

    def __init__(self, mode: str = "collect",
                 capacities: Optional[Mapping[int, float]] = None,
                 tol: float = 1e-6) -> None:
        if mode not in ("strict", "collect"):
            raise ConfigurationError(
                f"mode must be 'strict' or 'collect', got {mode!r}")
        if tol < 0:
            raise ConfigurationError(f"tol must be >= 0, got {tol}")
        self.mode = mode
        self.tol = tol
        self.violations: List[Violation] = []
        #: Invariant name -> number of times it was evaluated.
        self.checks: Dict[str, int] = {name: 0 for name in INVARIANTS}
        self._capacity: Dict[int, float] = dict(capacities or {})
        self._last_slot: Optional[int] = None
        self._state: Dict[int, str] = {}       # request -> lifecycle
        self._start_reward: Dict[int, float] = {}
        self._reserved: Dict[int, float] = {}  # station -> committed MHz
        self._down: set = set()                # stations currently down
        self._eliminated: set = set()          # dead bandit arms
        self._deferred: set = set()            # unresolved deferrals
        self._role = _roles()
        self._num_events = 0

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        """True when no invariant has failed so far."""
        return not self.violations

    def report(self) -> str:
        """Human-readable audit summary (one line per invariant)."""
        lines = [f"invariant audit: {self._num_events} events, "
                 f"{len(self.violations)} violation(s)"]
        for name in INVARIANTS:
            fails = sum(1 for v in self.violations
                        if v.invariant == name)
            mark = "FAIL" if fails else "ok"
            lines.append(f"  {name:<18} {self.checks[name]:>6} checks  "
                         f"{mark}")
        for violation in self.violations:
            lines.append(f"  ! {violation}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Checking
    # ------------------------------------------------------------------
    def observe(self, event: Mapping[str, Any], index: int = -1) -> None:
        """Check one event (the :class:`Journal` observer surface)."""
        if index < 0:
            index = self._num_events
        self._num_events += 1
        kind = event.get("kind")
        role = self._role.get(kind)
        if role != "resource-slot":
            self._check_slot_order(event, index)
        if role == "lifecycle":
            self._check_lifecycle(event, index)
        if kind == "station_up":
            station = event.get("station")
            if station is not None:
                self._down.discard(station)
                value = event.get("value")
                if value is not None and station not in self._capacity:
                    self._capacity[station] = float(value)
        elif kind == "station_down":
            if event.get("station") is not None:
                self._down.add(event["station"])
        elif kind == "migrate":
            self._check_migration(event, index)
        elif kind == "admit_deferred":
            request = event.get("request")
            if request is not None:
                self.checks["deferred_resolution"] += 1
                self._deferred.add(request)
        elif kind == "shed":
            self._check_shed(event, index)
        elif kind == "arm_selected":
            self._check_arm_replay(event, index)
        elif kind == "arm_eliminated":
            self._check_elimination(event, index)
        if kind == "start":
            self._check_station_up(event, index)
        if kind in ("start", "admit", "drop"):
            # Any of these resolves a pending deferral.
            self._deferred.discard(event.get("request"))
        self._check_capacity(event, index)

    def check_events(self, events: Sequence[Mapping[str, Any]]
                     ) -> "InvariantMonitor":
        """Replay a recorded journal; returns self for chaining."""
        for index, event in enumerate(events):
            self.observe(event, index)
        return self

    def finish(self, result=None) -> "InvariantMonitor":
        """Close the books: reward accounting against the run's result.

        Args:
            result: a :class:`~repro.core.assignment.ScheduleResult`,
                or any mapping with ``total_reward`` /
                ``num_admitted`` entries (e.g. a
                :class:`~repro.sim.results.RunRecord` metric row).
                ``None`` skips the accounting check (the
                deferred-resolution check still runs).
        """
        self.checks["deferred_resolution"] += 1
        if self._deferred:
            sample = sorted(self._deferred)[:10]
            self._fail(Violation(
                "deferred_resolution",
                f"{len(self._deferred)} deferred request(s) never "
                f"resolved by START/ADMIT, SHED, or DROP: {sample}"))
        if result is None:
            return self
        if isinstance(result, Mapping):
            total = result.get("total_reward")
            admitted = result.get("num_admitted")
        else:
            total = getattr(result, "total_reward", None)
            admitted = getattr(result, "num_admitted", None)
        journaled = sum(self._start_reward.values())
        starts = len(self._start_reward)
        if total is not None:
            self.checks["reward_accounting"] += 1
            slack = self.tol * max(1.0, abs(float(total)))
            if abs(journaled - float(total)) > slack:
                self._fail(Violation(
                    "reward_accounting",
                    f"journaled START rewards sum to {journaled:.6g} "
                    f"but the result reports total_reward "
                    f"{float(total):.6g}"))
        if admitted is not None:
            self.checks["reward_accounting"] += 1
            if starts != int(admitted):
                self._fail(Violation(
                    "reward_accounting",
                    f"{starts} journaled START event(s) but the result "
                    f"reports {int(admitted)} admitted request(s)"))
        return self

    # ------------------------------------------------------------------
    # Individual invariants
    # ------------------------------------------------------------------
    def _fail(self, violation: Violation) -> None:
        self.violations.append(violation)
        if self.mode == "strict":
            raise InvariantViolation(violation)

    def _check_slot_order(self, event, index) -> None:
        slot = event.get("slot")
        if slot is None:
            return
        self.checks["slot_order"] += 1
        if self._last_slot is not None and slot < self._last_slot:
            self._fail(Violation(
                "slot_order",
                f"slot went backwards: {self._last_slot} -> {slot}",
                index, event))
        else:
            self._last_slot = slot

    def _check_lifecycle(self, event, index) -> None:
        kind = event["kind"]
        request = event.get("request")
        if request is None:
            return
        state = self._state.get(request)
        self.checks["lifecycle"] += 1
        if kind == "arrival":
            if state is not None:
                self._fail(Violation(
                    "lifecycle",
                    f"request {request} arrived twice", index, event))
            self._state[request] = "arrived"
        elif kind == "start":
            if state != "arrived":
                self._fail(Violation(
                    "lifecycle",
                    f"request {request} started from state "
                    f"{state or 'unseen'} (expected 'arrived')",
                    index, event))
            self._state[request] = "active"
            self._start_reward[request] = float(event.get("reward", 0.0))
        elif kind in ("complete", "drop"):
            self.checks["double_terminal"] += 1
            if state == "done":
                self._fail(Violation(
                    "double_terminal",
                    f"request {request} reached a second terminal "
                    f"event ({kind})", index, event))
            elif kind == "complete" and state != "active":
                self._fail(Violation(
                    "lifecycle",
                    f"request {request} completed from state "
                    f"{state or 'unseen'} (expected 'active')",
                    index, event))
            elif kind == "drop" and state not in ("arrived", "active"):
                self._fail(Violation(
                    "lifecycle",
                    f"request {request} dropped from state "
                    f"{state or 'unseen'}", index, event))
            self._state[request] = "done"
            if kind == "complete":
                self._check_reward_consistency(event, index, request)

    def _check_reward_consistency(self, event, index, request) -> None:
        settled = self._start_reward.get(request)
        if settled is None:
            return  # the lifecycle check already flagged this
        self.checks["reward_consistency"] += 1
        reward = float(event.get("reward", 0.0))
        if abs(reward - settled) > self.tol * max(1.0, abs(settled)):
            self._fail(Violation(
                "reward_consistency",
                f"request {request} completed with reward {reward:.6g} "
                f"but settled {settled:.6g} at start", index, event))

    def _check_capacity(self, event, index) -> None:
        """Capacity per sharing model.

        Committed reservations (``reserved_mhz``: offline admissions,
        migration shares) accumulate per station and must never exceed
        capacity.  Elastic shares (``share_mhz``: online round-robin)
        are bounded by capacity individually - they are recomputed
        every slot, so sums across start times are not constrained.
        """
        kind = event.get("kind")
        reserved = event.get("reserved_mhz")
        share = event.get("share_mhz")
        station = event.get("station")
        if reserved is not None and station is not None \
                and station != _CLOUD:
            reserved = float(reserved)
            if kind == "migrate":
                src = event.get("src")
                if src is not None:
                    self._reserved[src] = \
                        self._reserved.get(src, 0.0) - reserved
            self._reserved[station] = \
                self._reserved.get(station, 0.0) + reserved
            capacity = self._capacity.get(station)
            if capacity is not None:
                self.checks["capacity"] += 1
                if self._reserved[station] > capacity + self.tol:
                    self._fail(Violation(
                        "capacity",
                        f"station {station} oversubscribed: "
                        f"{self._reserved[station]:.6g} MHz reserved "
                        f"of {capacity:.6g} MHz capacity",
                        index, event))
        if share is not None and station is not None \
                and station != _CLOUD:
            capacity = self._capacity.get(station)
            if capacity is not None:
                self.checks["capacity"] += 1
                if float(share) > capacity + self.tol:
                    self._fail(Violation(
                        "capacity",
                        f"share {float(share):.6g} MHz at station "
                        f"{station} exceeds its capacity "
                        f"{capacity:.6g} MHz", index, event))

    def _check_migration(self, event, index) -> None:
        """Theorem 2: the target is the closest feasible neighbour.

        The MIGRATE event carries, in ``detail``, the closer candidate
        stations (delay order from the donor's station) that were
        skipped, each with the free MHz observed at decision time and
        the skip reason.  A closer station with enough room that was
        not excluded for the donor's latency means the migration did
        not land on the closest feasible neighbour.
        """
        share = event.get("reserved_mhz")
        skipped = event.get("detail") or ()
        self.checks["migration_target"] += 1
        for entry in skipped:
            try:
                station, free, reason = entry
            except (TypeError, ValueError):
                self._fail(Violation(
                    "migration_target",
                    f"malformed skipped-candidate entry {entry!r}",
                    index, event))
                continue
            if reason not in ("capacity", "latency"):
                self._fail(Violation(
                    "migration_target",
                    f"unknown skip reason {reason!r} for station "
                    f"{station}", index, event))
            elif (reason == "capacity" and share is not None
                    and float(free) >= float(share) - self.tol):
                self._fail(Violation(
                    "migration_target",
                    f"station {station} was closer and had "
                    f"{float(free):.6g} MHz free for a "
                    f"{float(share):.6g} MHz share, yet the task "
                    f"migrated to station {event.get('station')}",
                    index, event))

    def _check_arm_replay(self, event, index) -> None:
        arm = event.get("arm")
        if arm is None:
            return
        self.checks["arm_replay"] += 1
        if arm in self._eliminated:
            self._fail(Violation(
                "arm_replay",
                f"arm {arm} was eliminated but replayed", index, event))

    def _check_elimination(self, event, index) -> None:
        arm = event.get("arm")
        if arm is None:
            return
        self.checks["arm_replay"] += 1
        if arm in self._eliminated:
            self._fail(Violation(
                "arm_replay",
                f"arm {arm} was eliminated twice", index, event))
        self._eliminated.add(arm)
        detail = event.get("detail")
        if detail is not None and len(detail) == 2:
            self.checks["arm_separation"] += 1
            ucb, best_lcb = float(detail[0]), float(detail[1])
            if ucb > best_lcb + self.tol:
                self._fail(Violation(
                    "arm_separation",
                    f"arm {arm} eliminated with UCB {ucb:.6g} >= best "
                    f"LCB {best_lcb:.6g} (intervals had not separated)",
                    index, event))

    def _check_shed(self, event, index) -> None:
        """A SHED is terminal: the request never enters the engine.

        Shares the double-terminal books with COMPLETE/DROP so a
        request cannot be shed after (or before) any other terminal
        event, and resolves any pending deferral.
        """
        request = event.get("request")
        if request is None:
            return
        self.checks["double_terminal"] += 1
        if self._state.get(request) == "done":
            self._fail(Violation(
                "double_terminal",
                f"request {request} was shed after a terminal event",
                index, event))
        self._state[request] = "done"
        self._deferred.discard(request)

    def _check_station_up(self, event, index) -> None:
        station = event.get("station")
        if station is None or station == _CLOUD:
            return
        self.checks["station_outage"] += 1
        if station in self._down:
            self._fail(Violation(
                "station_outage",
                f"request {event.get('request')} started on station "
                f"{station} during its outage", index, event))


# ----------------------------------------------------------------------
# Sweep-level plumbing
# ----------------------------------------------------------------------

def collect_sweep_journal(records: Sequence[Any]
                          ) -> List[Dict[str, Any]]:
    """Merge per-run journals of a sweep into one event stream.

    The journal twin of :func:`~repro.telemetry.export.collect_sweep_trace`:
    each record's ``journal`` events, annotated with the record's
    canonical position and identity, in the order given.
    """
    return collect_sweep_trace(records, stream="journal")


@dataclass
class AuditOutcome:
    """Aggregate result of auditing every journaled run of a sweep.

    Attributes:
        runs_audited: journaled runs that were checked.
        checks: invariant name -> total evaluations across runs.
        violations: every finding, tagged with its run's identity.
    """

    runs_audited: int
    checks: Dict[str, int]
    violations: List[Tuple[str, Violation]]

    @property
    def ok(self) -> bool:
        """True when at least one run was audited and none failed."""
        return self.runs_audited > 0 and not self.violations


def audit_records(records: Sequence[Any],
                  capacities: Optional[Mapping[int, float]] = None
                  ) -> AuditOutcome:
    """Run a collect-mode invariant audit over journaled sweep records.

    Each record with a journal is replayed through a fresh
    :class:`InvariantMonitor` (journals are per-run streams - lifecycle
    state must not leak between runs) and closed with the record's own
    metric row, so reward accounting is checked against exactly what
    the sweep measured.
    """
    checks = {name: 0 for name in INVARIANTS}
    violations: List[Tuple[str, Violation]] = []
    audited = 0
    for record in records:
        journal = getattr(record, "journal", None)
        if not journal:
            continue
        audited += 1
        monitor = InvariantMonitor(mode="collect",
                                   capacities=capacities)
        monitor.check_events(journal)
        monitor.finish(getattr(record, "metrics", None))
        for name, count in monitor.checks.items():
            checks[name] += count
        tag = (f"{record.algorithm} x={record.x:g} "
               f"seed={record.seed}")
        violations.extend((tag, v) for v in monitor.violations)
    return AuditOutcome(runs_audited=audited, checks=checks,
                        violations=violations)

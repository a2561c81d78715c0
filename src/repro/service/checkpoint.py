"""Deterministic checkpoint persistence for the admission service.

A checkpoint freezes everything the service needs to continue a run as
if it had never stopped: the engine's queues and realization RNG, the
policy's learning state (bandit and regret tracker), the arrival
stream's position, the decision journal's cursor, and the service's
metrics registry - the one store of its cumulative tallies.  The proof
obligation - enforced by the property tests and the CI smoke job - is
*journal byte-identity*: kill the service at any checkpointed slot,
resume from disk, and the decision journal of the resumed run is
byte-for-byte the journal of an uninterrupted run (``trace-diff`` exit
0).

Files are written atomically (temp file + ``os.replace``) so a crash
mid-checkpoint leaves the previous checkpoint intact; an I/O error does
too, and surfaces as a typed
:class:`~repro.exceptions.PersistenceError`.  The payload is a pickle
of plain dataclasses and numpy generator states - everything the
repository already keeps deterministic.  No solver state is stored:
every LP is built and solved from scratch, so a resumed run needs
none.
"""

from __future__ import annotations

import contextlib
import os
import pickle
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..exceptions import ConfigurationError, PersistenceError

#: Format tag stored in every checkpoint; bumped on layout changes so a
#: stale file fails loudly instead of resuming garbage.  /2 added the
#: ``metrics_state`` field: resumed services continue their metric
#: series instead of restarting them from zero.  /3 dropped the LP-PT
#: ``workspace`` and ``solve_state`` keys from DynamicRR's
#: ``policy_state``.  /4 dropped ``cumulative_reward`` from DynamicRR's
#: ``policy_state`` (the registry's ``engine_reward_total`` is that
#: quantity).  /5 dropped the ``counters`` field: the service's tallies
#: are registry series, restored through ``metrics_state`` alone.
CHECKPOINT_SCHEMA = "repro.service-checkpoint/5"


@dataclass
class JournalCursor:
    """Where the decision journal stood when the checkpoint was cut.

    Attributes:
        events_recorded: events recorded so far (including flushed).
        byte_position: length of the journal stream file in bytes.  A
            resumed service truncates the file back to exactly this
            offset before appending, discarding any events the killed
            run journaled past its last checkpoint.
    """

    events_recorded: int = 0
    byte_position: int = 0


@dataclass
class ServiceCheckpoint:
    """One frozen service state (see the module docstring).

    Attributes:
        config: the :class:`~repro.service.loop.ServiceConfig` the run
            was started with - a resume rebuilds the whole runtime from
            it, then overwrites the mutable state below.
        slot: the last fully executed slot; the resumed run continues
            at ``slot + 1``.
        engine_state: :meth:`OnlineEngine.export_state` payload.
        policy_state: the policy's ``export_state()`` payload (None for
            stateless policies like the greedy baseline).
        stream_state: :meth:`PoissonArrivalStream.export_state` payload.
        journal: the decision journal's cursor.
        metrics_state: :meth:`MetricsRegistry.export_state` payload,
            restored on resume so the service's tallies and every other
            deterministic series are continuous across the kill.
    """

    config: Any
    slot: int
    engine_state: Dict[str, Any]
    policy_state: Optional[Dict[str, Any]]
    stream_state: Dict[str, Any]
    journal: JournalCursor
    metrics_state: Dict[str, Any]
    schema: str = CHECKPOINT_SCHEMA


def write_checkpoint(path: str, checkpoint: ServiceCheckpoint) -> str:
    """Atomically persist a checkpoint; returns the path written.

    The temp file lives next to the target so ``os.replace`` stays on
    one filesystem (rename atomicity).

    Raises:
        PersistenceError: when the write fails (e.g. ENOSPC, EACCES).
            The temp file is removed and the previous checkpoint at
            `path`, if any, is left untouched.
    """
    if checkpoint.schema != CHECKPOINT_SCHEMA:
        raise ConfigurationError(
            f"checkpoint schema mismatch: {checkpoint.schema!r}")
    tmp = path + ".tmp"
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(tmp, "wb") as handle:
            pickle.dump(checkpoint, handle,
                        protocol=pickle.HIGHEST_PROTOCOL)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError as error:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise PersistenceError(
            f"could not write checkpoint {path}: {error}") from error
    return path


def read_checkpoint(path: str) -> ServiceCheckpoint:
    """Load a checkpoint written by :func:`write_checkpoint`.

    Raises:
        ConfigurationError: when the file is missing, unreadable, or
            carries a different schema tag.
    """
    if not os.path.exists(path):
        raise ConfigurationError(f"no checkpoint at {path}")
    try:
        with open(path, "rb") as handle:
            checkpoint = pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError,
            AttributeError) as error:
        raise ConfigurationError(
            f"unreadable checkpoint {path}: {error}") from error
    if not isinstance(checkpoint, ServiceCheckpoint):
        raise ConfigurationError(
            f"{path} does not contain a ServiceCheckpoint")
    if checkpoint.schema != CHECKPOINT_SCHEMA:
        raise ConfigurationError(
            f"{path}: schema {checkpoint.schema!r} != "
            f"{CHECKPOINT_SCHEMA!r} (stale checkpoint format)")
    return checkpoint


def truncate_journal(path: str, byte_position: int) -> None:
    """Cut a journal stream file back to a checkpoint's byte cursor.

    A killed service may have flushed events past its last checkpoint;
    those lines never happened as far as the resumed timeline is
    concerned and are discarded here.  Truncating to a position beyond
    the current size is a hard error (the journal and checkpoint
    disagree about history).
    """
    if byte_position < 0:
        raise ConfigurationError(
            f"byte_position must be >= 0, got {byte_position}")
    size = os.path.getsize(path)
    if byte_position > size:
        raise ConfigurationError(
            f"journal {path} is {size} bytes but the checkpoint's "
            f"cursor is {byte_position} - the journal was truncated or "
            f"replaced since the checkpoint was written")
    if byte_position != size:
        os.truncate(path, byte_position)

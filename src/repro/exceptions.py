"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised intentionally by this library derive from
:class:`ReproError`, so callers can catch a single base class.  The
sub-classes separate the three broad failure domains: bad user input,
solver-level failures, and simulation/scheduling inconsistencies.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A configuration value is out of range or inconsistent.

    Raised eagerly at object construction time so that a bad parameter
    never propagates into a long-running simulation.
    """


class InfeasibleProblemError(ReproError):
    """A linear or integer program has no feasible solution."""


class UnboundedProblemError(ReproError):
    """A linear program is unbounded in the optimization direction."""


class SolverError(ReproError):
    """The solver failed for a reason other than infeasibility.

    Examples: iteration limit exceeded, numerical breakdown, or an
    unknown backend name.
    """


class CapacityError(ReproError):
    """An assignment would exceed a base station's computing capacity."""


class SchedulingError(ReproError):
    """The simulation engine detected an inconsistent scheduling state.

    For example: completing a request twice, or admitting a request
    before its arrival slot.
    """


class PersistenceError(ReproError):
    """Durable state could not be written to disk.

    For example: a full disk (ENOSPC) or a permission error (EACCES)
    while writing a service checkpoint or a streaming journal.  The
    previous checkpoint is left in place.
    """


class InvariantViolation(ReproError):
    """A journaled decision stream broke one of the paper's invariants.

    Raised by :class:`repro.telemetry.audit.InvariantMonitor` in
    ``strict`` mode the moment a checked invariant fails - e.g. a slot
    admission oversubscribing a station, a request completing twice,
    or an eliminated bandit arm being replayed.  The ``violation``
    attribute carries the structured finding.
    """

    def __init__(self, violation) -> None:
        super().__init__(str(violation))
        self.violation = violation


class BanditError(ReproError):
    """A multi-armed bandit policy was used incorrectly.

    For example: recording a reward for an arm that was never selected,
    or asking for an arm after every arm has been eliminated.
    """

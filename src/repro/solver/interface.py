"""Backend dispatch and the :class:`Solution` type.

Two LP backends (``scipy`` = HiGHS, ``simplex`` = from-scratch) and two
ILP backends (``scipy`` = HiGHS MILP, ``bnb`` = from-scratch
branch-and-bound over either LP backend) solve the same
:class:`~repro.solver.model.LinearProgram`; tests assert they agree.
Every call solves its model from scratch; nothing is carried between
solves.
"""

from __future__ import annotations

import enum
import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from ..exceptions import SolverError
from ..telemetry import get_tracer
from ..telemetry.metrics import get_metrics
from .branch_and_bound import solve_with_branch_and_bound
from .model import LinearProgram
from .scipy_backend import solve_ilp_scipy, solve_lp_scipy
from .simplex import solve_with_simplex

#: Default LP backend for large experiment instances.
DEFAULT_LP_BACKEND = "scipy"
#: Default ILP backend.
DEFAULT_ILP_BACKEND = "scipy"


class SolveStatus(enum.Enum):
    """Terminal status of a solve call that returned."""

    OPTIMAL = "optimal"


@dataclass(frozen=True, eq=False)
class Solution:
    """Result of an LP/ILP solve.

    Attributes:
        status: terminal status (always OPTIMAL for a returned
            solution; failures raise instead).
        objective: objective value in the model's natural direction.
        x: variable values, in column order.
        backend: which backend produced it.
        solve_time_s: wall-clock solve time.
        names: the model's variable names (called only by
            :attr:`values`).
    """

    status: SolveStatus
    objective: float
    x: np.ndarray
    backend: str
    solve_time_s: float
    names: Callable[[], List[str]] = field(repr=False)

    @functools.cached_property
    def values(self) -> Dict[str, float]:
        """Variable name -> value (built on first access)."""
        return dict(zip(self.names(), self.x.tolist()))

    def value(self, name: str) -> float:
        """Value of one variable (0.0 when absent)."""
        return float(self.values.get(name, 0.0))

    def nonzero(self, tol: float = 1e-9) -> Dict[str, float]:
        """Variables with magnitude above `tol`."""
        return {name: val for name, val in self.values.items()
                if abs(val) > tol}


def solve_lp(lp: LinearProgram,
             backend: str = DEFAULT_LP_BACKEND) -> Solution:
    """Solve the continuous relaxation of a model.

    Args:
        lp: the model (integrality flags ignored).
        backend: ``"scipy"`` (HiGHS) or ``"simplex"`` (from scratch).

    Raises:
        SolverError: unknown backend.
        InfeasibleProblemError / UnboundedProblemError: from the backend.
    """
    if backend not in ("scipy", "simplex"):
        raise SolverError(f"unknown LP backend {backend!r}")
    start = time.perf_counter()  # repro: noqa DET010 -- advisory runtime metric
    with get_tracer().span("lp_solve", backend=backend):
        if backend == "scipy":
            objective, x = solve_lp_scipy(lp)
        else:
            objective, x = solve_with_simplex(lp)
        get_metrics().inc("lp_solves_total")
    elapsed = time.perf_counter() - start  # repro: noqa DET010 -- advisory runtime metric
    return Solution(status=SolveStatus.OPTIMAL, objective=objective, x=x,
                    backend=backend, solve_time_s=elapsed,
                    names=lp.variable_names)


def solve_ilp(lp: LinearProgram,
              backend: str = DEFAULT_ILP_BACKEND,
              lp_backend: str = DEFAULT_LP_BACKEND) -> Solution:
    """Solve a mixed-integer model exactly.

    Args:
        lp: the model.
        backend: ``"scipy"`` (HiGHS MILP) or ``"bnb"`` (from-scratch
            branch-and-bound).
        lp_backend: relaxation backend used when ``backend="bnb"``.

    Raises:
        SolverError: unknown backend.
        InfeasibleProblemError: no integral feasible point.
    """
    start = time.perf_counter()  # repro: noqa DET010 -- advisory runtime metric
    with get_tracer().span("ilp_solve", backend=backend):
        if backend == "scipy":
            objective, x = solve_ilp_scipy(lp)
        elif backend == "bnb":
            oracles = {"scipy": solve_lp_scipy, "simplex": solve_with_simplex}
            if lp_backend not in oracles:
                raise SolverError(f"unknown LP backend {lp_backend!r}")
            objective, x = solve_with_branch_and_bound(lp,
                                                       oracles[lp_backend])
        else:
            raise SolverError(f"unknown ILP backend {backend!r}")
    elapsed = time.perf_counter() - start  # repro: noqa DET010 -- advisory runtime metric
    return Solution(status=SolveStatus.OPTIMAL, objective=objective, x=x,
                    backend=backend, solve_time_s=elapsed,
                    names=lp.variable_names)

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
import time
from dataclasses import dataclass
from typing import Dict, Mapping

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


@dataclass(frozen=True)
class Solution:
    """Result of an LP/ILP solve.

    Attributes:
        status: terminal status (always OPTIMAL for a returned
            solution; failures raise instead).
        objective: objective value in the model's natural direction.
        values: variable name -> value.
        backend: which backend produced it.
        solve_time_s: wall-clock solve time.
    """

    status: SolveStatus
    objective: float
    values: Mapping[str, float]
    backend: str
    solve_time_s: float

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
    start = time.perf_counter()  # repro: noqa DET001 -- advisory runtime metric
    with get_tracer().span("lp_solve", backend=backend):
        if backend == "scipy":
            objective, values = solve_lp_scipy(lp)
        else:
            objective, values = solve_with_simplex(lp)
        get_metrics().inc("lp_solves_total")
    elapsed = time.perf_counter() - start  # repro: noqa DET001 -- advisory runtime metric
    return Solution(status=SolveStatus.OPTIMAL, objective=objective,
                    values=values, backend=backend, solve_time_s=elapsed)


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
    start = time.perf_counter()  # repro: noqa DET001 -- advisory runtime metric
    with get_tracer().span("ilp_solve", backend=backend):
        if backend == "scipy":
            objective, values = solve_ilp_scipy(lp)
        elif backend == "bnb":
            def oracle(node_lp: LinearProgram):
                if lp_backend == "scipy":
                    return solve_lp_scipy(node_lp)
                if lp_backend == "simplex":
                    return solve_with_simplex(node_lp)
                raise SolverError(f"unknown LP backend {lp_backend!r}")

            objective, values = solve_with_branch_and_bound(lp, oracle)
        else:
            raise SolverError(f"unknown ILP backend {backend!r}")
    elapsed = time.perf_counter() - start  # repro: noqa DET001 -- advisory runtime metric
    return Solution(status=SolveStatus.OPTIMAL, objective=objective,
                    values=values, backend=backend, solve_time_s=elapsed)

"""Dual prices (shadow values) of LP constraints.

The slot-indexed LP's dual variables answer the provider's planning
questions directly: the dual of a station's capacity row is the
marginal expected reward of one more unit of expected rate at that
station; a zero dual means the station is not the bottleneck.

Duals come from the HiGHS backend (``linprog``'s ``marginals``); the
sign convention is normalized so that **a positive dual on a binding
``<=`` row means relaxing that row increases the (maximized)
objective**.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np
from scipy import optimize

from ..exceptions import InfeasibleProblemError, SolverError, \
    UnboundedProblemError
from .model import LinearProgram


@dataclass(frozen=True)
class DualSolution:
    """LP optimum plus per-constraint dual prices.

    Attributes:
        objective: primal optimum (natural direction).
        duals: constraint name -> dual price (>= 0 for binding ``<=``
            rows of a maximization).
        slacks: constraint name -> primal slack (0 for binding rows).
    """

    objective: float
    duals: Dict[str, float]
    slacks: Dict[str, float]

    def binding(self, tol: float = 1e-7) -> List[str]:
        """Names of constraints with (near-)zero slack."""
        return [name for name, slack in self.slacks.items()
                if abs(slack) <= tol]

    def shadow_price(self, name: str) -> float:
        """Dual price of one constraint (0.0 when absent)."""
        return self.duals.get(name, 0.0)


def solve_lp_with_duals(lp: LinearProgram) -> DualSolution:
    """Solve the LP with HiGHS and extract normalized duals.

    Only inequality/equality *rows* get duals here (variable bound
    duals are not exposed); rows keep their model names.

    Raises:
        InfeasibleProblemError / UnboundedProblemError / SolverError:
            per the usual status mapping.
    """
    c = lp.objective_vector()
    if lp.maximize:
        c = -c
    a_ub, b_ub, a_eq, b_eq = lp.sparse_rows()
    bounds = lp.uniform_bounds()
    if bounds is None:
        bounds = lp.bounds()
    result = optimize.linprog(
        c,
        A_ub=a_ub if a_ub.shape[0] else None,
        b_ub=b_ub if b_ub.size else None,
        A_eq=a_eq if a_eq.shape[0] else None,
        b_eq=b_eq if b_eq.shape[0] else None,
        bounds=bounds,
        method="highs",
    )
    if not result.success:
        if result.status == 2:
            raise InfeasibleProblemError(f"{lp.name}: {result.message}")
        if result.status == 3:
            raise UnboundedProblemError(f"{lp.name}: {result.message}")
        raise SolverError(f"{lp.name}: status {result.status}: "
                          f"{result.message}")

    # Re-associate rows with constraint names in model order.  The
    # export emits <= rows (>= rows negated) first, then == rows,
    # preserving insertion order within each group.
    ub_names = [con.name for con in lp.constraints
                if con.sense in ("<=", ">=")]
    eq_names = [con.name for con in lp.constraints if con.sense == "=="]
    duals: Dict[str, float] = {}
    slacks: Dict[str, float] = {}
    sign = -1.0 if lp.maximize else 1.0
    if a_ub.size:
        marginals = np.asarray(result.ineqlin.marginals)
        residuals = np.asarray(result.ineqlin.residual)
        for name, marginal, residual in zip(ub_names, marginals,
                                            residuals):
            duals[name] = float(sign * marginal)
            slacks[name] = float(residual)
    if a_eq.size:
        marginals = np.asarray(result.eqlin.marginals)
        residuals = np.asarray(result.eqlin.residual)
        for name, marginal, residual in zip(eq_names, marginals,
                                            residuals):
            duals[name] = float(sign * marginal)
            slacks[name] = float(residual)

    return DualSolution(objective=lp.objective_value(result.x),
                        duals=duals, slacks=slacks)

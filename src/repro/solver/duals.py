"""Dual prices (shadow values) of LP constraints.

The slot-indexed LP's dual variables answer the provider's planning
questions directly: the dual of a station's capacity row is the
marginal expected reward of one more unit of expected rate at that
station; a zero dual means the station is not the bottleneck.

Duals come from the HiGHS backend (the row ``marginals`` of
:func:`~repro.solver.scipy_backend.linprog_highs`); the
sign convention is normalized so that **a positive dual on a binding
``<=`` row means relaxing that row increases the (maximized)
objective**.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .model import LinearProgram
from .scipy_backend import linprog_highs


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
            as :func:`~repro.solver.scipy_backend.linprog_highs`.
    """
    x, _fun, marginals, residuals = linprog_highs(lp)
    # Re-associate rows with constraint names in model order.  The
    # export emits <= rows (>= rows negated) first, then == rows,
    # preserving insertion order within each group.
    names = [con.name for con in lp.constraints
             if con.sense in ("<=", ">=")]
    names += [con.name for con in lp.constraints if con.sense == "=="]
    sign = -1.0 if lp.maximize else 1.0
    duals = dict(zip(names, (sign * marginals).tolist()))
    slacks = dict(zip(names, residuals.tolist()))
    return DualSolution(objective=lp.objective_value(x), duals=duals,
                        slacks=slacks)

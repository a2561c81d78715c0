"""LP presolve: cheap reductions applied before either backend.

Three classical, always-safe reductions:

1. **fixed variables** - ``low == high`` variables are substituted out
   (their contribution moves into the constraint right-hand sides and
   an objective offset);
2. **singleton rows** - a constraint touching one variable is just a
   bound; it tightens the variable's bounds and disappears (an
   immediately infeasible tightening raises);
3. **empty rows** - constraints with no (remaining) coefficients are
   checked for trivial feasibility and dropped.

The reductions matter for the from-scratch simplex (every dropped row
removes a dense tableau row) and are validated against unpresolved
solves in the test suite.

Usage::

    reduced, recover, offset = presolve(lp)
    objective, x = solve_with_simplex(reduced)
    full_x = recover(x)
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Tuple

import numpy as np

from ..exceptions import InfeasibleProblemError
from ..telemetry import get_tracer
from .model import LinearProgram

#: Maps a reduced solution (column order) back to the full model's.
Recover = Callable[[np.ndarray], np.ndarray]

_TOL = 1e-9


def presolve(lp: LinearProgram) -> Tuple[LinearProgram, Recover, float]:
    """Reduce a model; returns ``(reduced, recover, objective_offset)``.

    The reduced model's optimal objective plus `objective_offset`
    equals the original optimum, and ``recover`` completes a reduced
    solution with the fixed variables' values.

    Raises:
        InfeasibleProblemError: when a reduction proves infeasibility
            outright (conflicting singleton rows, infeasible empty
            rows, or a fixed variable violating its own bounds).
    """
    # Pass 1: collect tightened bounds from singleton rows.
    lows = {var.name: var.low for var in lp.variables}
    highs = {var.name: var.high for var in lp.variables}
    drop_rows = set()
    for con in lp.constraints:
        if len(con.coeffs) != 1:
            continue
        (idx, coef), = con.coeffs.items()
        name = lp.variables[idx].name
        bound = con.rhs / coef
        senses = {"<=": "<=", ">=": ">=", "==": "=="}
        sense = senses[con.sense]
        if coef < 0 and sense == "<=":
            sense = ">="
        elif coef < 0 and sense == ">=":
            sense = "<="
        if sense == "<=":
            highs[name] = min(highs[name], bound)
        elif sense == ">=":
            lows[name] = max(lows[name], bound)
        else:
            lows[name] = max(lows[name], bound)
            highs[name] = min(highs[name], bound)
        if lows[name] > highs[name] + _TOL:
            raise InfeasibleProblemError(
                f"{lp.name}: singleton rows force "
                f"{lows[name]} <= {name} <= {highs[name]}")
        drop_rows.add(con.name)

    # Pass 2: identify fixed variables.
    fixed: Dict[str, float] = {}
    for var in lp.variables:
        low, high = lows[var.name], highs[var.name]
        if math.isfinite(low) and abs(high - low) <= _TOL:
            fixed[var.name] = low

    # Pass 3: rebuild the reduced model.
    reduced = LinearProgram(name=f"{lp.name}:presolved",
                            maximize=lp.maximize)
    offset = 0.0
    for var in lp.variables:
        if var.name in fixed:
            offset += var.objective * fixed[var.name]
            continue
        reduced.add_variable(var.name, low=lows[var.name],
                             high=highs[var.name],
                             objective=var.objective,
                             integer=var.integer)
    for con in lp.constraints:
        if con.name in drop_rows:
            continue
        coeffs: Dict[str, float] = {}
        rhs = con.rhs
        for idx, coef in con.coeffs.items():
            name = lp.variables[idx].name
            if name in fixed:
                rhs -= coef * fixed[name]
            else:
                coeffs[name] = coef
        if not coeffs:
            feasible = ((con.sense == "<=" and rhs >= -_TOL)
                        or (con.sense == ">=" and rhs <= _TOL)
                        or (con.sense == "==" and abs(rhs) <= _TOL))
            if not feasible:
                raise InfeasibleProblemError(
                    f"{lp.name}: constraint {con.name} reduces to "
                    f"0 {con.sense} {rhs}")
            continue
        reduced.add_constraint(coeffs, con.sense, rhs, name=con.name)

    kept = [var.index for var in lp.variables if var.name not in fixed]
    fixed_x = np.array([fixed.get(var.name, 0.0) for var in lp.variables])

    def recover(x: np.ndarray) -> np.ndarray:
        full = fixed_x.copy()
        full[kept] = x
        return full

    return reduced, recover, offset


def solve_with_presolve(lp: LinearProgram,
                        solver: Callable[[LinearProgram],
                                         Tuple[float, np.ndarray]]
                        ) -> Tuple[float, np.ndarray]:
    """Presolve, solve the reduction, and recover the full solution.

    Args:
        lp: the model.
        solver: any ``model -> (objective, x)`` LP solver.

    Returns:
        ``(objective, x)`` for the *original* model.
    """
    tracer = get_tracer()
    with tracer.span("presolve"):
        reduced, recover, offset = presolve(lp)
    tracer.count("presolve_removed_vars",
                 lp.num_variables - reduced.num_variables)
    tracer.count("presolve_removed_rows",
                 len(lp.constraints) - len(reduced.constraints))
    if reduced.num_variables == 0:
        x = recover(np.empty(0))
        return lp.objective_value(x), x
    objective, x = solver(reduced)
    return objective + offset, recover(x)

"""scipy (HiGHS) adapters for the LP/ILP model container.

The experiments solve LPs with thousands of variables (|R| x |BS| x L);
HiGHS handles those in milliseconds, while the from-scratch simplex is
kept for validation and pedagogy.  Both backends consume the exact same
:class:`~repro.solver.model.LinearProgram` export.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy import optimize

from ..exceptions import (InfeasibleProblemError, SolverError,
                          UnboundedProblemError)
from .model import LinearProgram


def _raise_for_status(lp: LinearProgram, status: int, message: str) -> None:
    """Map scipy status codes onto the library's exceptions."""
    if status == 2:
        raise InfeasibleProblemError(f"{lp.name}: {message}")
    if status == 3:
        raise UnboundedProblemError(f"{lp.name}: {message}")
    raise SolverError(f"{lp.name}: solver failed with status {status}: "
                      f"{message}")


def linprog_highs(lp: LinearProgram) -> optimize.OptimizeResult:
    """Solve the continuous relaxation with ``linprog(method="highs")``.

    The one place an LP reaches HiGHS.  Integrality flags are ignored.

    Returns:
        scipy's result of the successful solve: ``x`` in column order,
        the objective in minimization form, and per-row ``marginals``
        and ``residual`` under ``ineqlin`` (the ``<=`` rows, ``>=`` rows
        negated) and ``eqlin`` (the ``==`` rows).

    Raises:
        InfeasibleProblemError / UnboundedProblemError / SolverError:
            per :func:`_raise_for_status`.
    """
    c = lp.objective_vector()
    if lp.maximize:
        c = -c
    a_ub, b_ub, a_eq, b_eq = lp.sparse_rows()
    # One shared (low, high) pair solves identically to the expanded
    # per-variable list but skips scipy's O(n) bounds parsing.
    bounds = lp.uniform_bounds()
    if bounds is None:
        bounds = lp.bounds()
    result = optimize.linprog(
        c,
        A_ub=a_ub if a_ub.shape[0] else None,
        b_ub=b_ub if b_ub.size else None,
        A_eq=a_eq if a_eq.shape[0] else None,
        b_eq=b_eq if b_eq.size else None,
        bounds=bounds,
        method="highs",
    )
    if not result.success:
        _raise_for_status(lp, result.status, result.message)
    return result


def solve_lp_scipy(lp: LinearProgram) -> Tuple[float, np.ndarray]:
    """Solve the continuous relaxation with HiGHS (:func:`linprog_highs`).

    Returns:
        ``(objective, x)``: the objective in the model's natural
        direction and the solution in column order.
    """
    result = linprog_highs(lp)
    return lp.objective_value(result.x), result.x


def solve_ilp_scipy(lp: LinearProgram) -> Tuple[float, np.ndarray]:
    """Solve the mixed-integer program with ``scipy.optimize.milp``.

    Returns:
        ``(objective, x)`` as :func:`solve_lp_scipy`; integer columns
        are rounded to the nearest integer (``+0.0``, never ``-0.0``).
    """
    c = lp.objective_vector()
    if lp.maximize:
        c = -c
    a_ub, b_ub, a_eq, b_eq = lp.sparse_rows()
    constraints = []
    if a_ub.shape[0]:
        constraints.append(optimize.LinearConstraint(
            a_ub, ub=b_ub, lb=-np.inf))
    if a_eq.shape[0]:
        constraints.append(optimize.LinearConstraint(
            a_eq, lb=b_eq, ub=b_eq))
    low, high = lp.lows(), lp.highs()
    is_int = lp.integer_mask()
    # Integralize integer variables' bounds: mathematically equivalent
    # (an integer point never sits in the shaved fraction) and works
    # around a HiGHS presolve defect that can return a suboptimal
    # solution when integer variables carry fractional bounds.
    low[is_int] = np.ceil(low[is_int] - 1e-9)
    high[is_int] = np.floor(high[is_int] + 1e-9)
    result = optimize.milp(
        c,
        constraints=constraints or None,
        bounds=optimize.Bounds(lb=low, ub=high),
        integrality=is_int.astype(np.int64),
    )
    if not result.success:
        _raise_for_status(lp, result.status, result.message)
    # np.round keeps the sign of a zero (round(-0.3) -> -0.0); adding
    # +0.0 turns it into 0.0, as Python's float(round(v)) gives.
    x = np.where(is_int, np.round(result.x) + 0.0, result.x)
    return lp.objective_value(x), x

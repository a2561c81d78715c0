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
from scipy.optimize._linprog_highs import (_highs_to_scipy_status_message,
                                           _highs_wrapper)
from scipy.optimize._linprog_util import _check_result

from ..exceptions import (InfeasibleProblemError, SolverError,
                          UnboundedProblemError)
from .model import LinearProgram

#: The options ``linprog(method="highs")`` sets to a value other than
#: HiGHS's default; it leaves the dual simplex strategy and the debug
#: level at their defaults and the unset tolerances and limits to HiGHS.
_HIGHS_OPTIONS = {"presolve": True, "output_flag": False,
                  "log_to_console": False}
#: ``linprog``'s feasibility tolerance for its post-solve check.
_CHECK_TOL = 1e-9


def _raise_for_status(lp: LinearProgram, status: int, message: str) -> None:
    """Map scipy status codes onto the library's exceptions."""
    if status == 2:
        raise InfeasibleProblemError(f"{lp.name}: {message}")
    if status == 3:
        raise UnboundedProblemError(f"{lp.name}: {message}")
    raise SolverError(f"{lp.name}: solver failed with status {status}: "
                      f"{message}")


def solve_lp_scipy(lp: LinearProgram) -> Tuple[float, np.ndarray]:
    """Solve the continuous relaxation with one HiGHS call.

    The one place an LP reaches HiGHS.  Integrality flags are ignored.
    HiGHS gets the model, options, status mapping and feasibility check
    of ``linprog(method="highs")``, without its input cleaning and
    matrix rebuild: the matrix is the model's own
    :meth:`~repro.solver.model.LinearProgram.csc_rows`.

    Returns:
        ``(objective, x)``: the objective in the model's natural
        direction and the solution in column order.

    Raises:
        InfeasibleProblemError / UnboundedProblemError / SolverError:
            per :func:`_raise_for_status`; a solution that fails
            ``linprog``'s post-solve feasibility check is a SolverError.
    """
    c = lp.objective_vector()
    if lp.maximize:
        c = -c
    rows = lp.csc_rows()
    low, high = lp.lows(), lp.highs()
    res = _highs_wrapper(c, rows.indptr, rows.indices, rows.data, rows.lhs,
                         rows.rhs, low, high, np.empty(0, dtype=np.uint8),
                         _HIGHS_OPTIONS)
    status, message = _highs_to_scipy_status_message(res.get("status"),
                                                     res.get("message"))
    # Without a solution there is no "slack"; the check then only turns
    # a status 0 into 4.
    x, slack = res["x"], res.get("slack", np.empty(0))
    status, message = _check_result(
        x, res["fun"], status, slack[:rows.num_ub], slack[rows.num_ub:],
        np.column_stack((low, high)), _CHECK_TOL, message, None)
    if status != 0:
        _raise_for_status(lp, status, message)
    return lp.objective_value(x), x


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

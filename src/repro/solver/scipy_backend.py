"""scipy (HiGHS) adapters for the LP/ILP model container.

The experiments solve LPs with thousands of variables (|R| x |BS| x L);
HiGHS handles those in milliseconds, while the from-scratch simplex is
kept for validation and pedagogy.  Both backends consume the exact same
:class:`~repro.solver.model.LinearProgram` export.
"""

from __future__ import annotations

import functools
import math
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
#: The bound ``_check_result`` widens that tolerance to.
_FEASIBLE_TOL = np.sqrt(_CHECK_TOL) * 10
#: scipy's status and message for a HiGHS ``(status, message)`` pair.
#: The mapping is pure and HiGHS reports a handful of pairs, so each
#: is converted once.
_status_message = functools.lru_cache(maxsize=64)(
    _highs_to_scipy_status_message)


def _raise_for_status(lp: LinearProgram, status: int, message: str) -> None:
    """Map scipy status codes onto the library's exceptions."""
    if status == 2:
        raise InfeasibleProblemError(f"{lp.name}: {message}")
    if status == 3:
        raise UnboundedProblemError(f"{lp.name}: {message}")
    raise SolverError(f"{lp.name}: solver failed with status {status}: "
                      f"{message}")


def _passes_check(x: np.ndarray, fun: float, slack: np.ndarray,
                  num_ub: int, low: np.ndarray, high: np.ndarray) -> bool:
    """``_check_result``'s feasibility predicate for ``integrality=None``.

    ``fun`` is not NaN, ``x`` lies in ``[low - tol, high + tol]``, the
    ``<=`` slack is at least ``-tol`` and the equality residual at most
    ``tol`` in magnitude.  Every comparison is False on NaN, so a NaN
    anywhere fails.
    """
    tol = _FEASIBLE_TOL
    return bool(not math.isnan(fun)
                and (x >= low - tol).all() and (x <= high + tol).all()
                and (slack[:num_ub] >= -tol).all()
                and (np.abs(slack[num_ub:]) <= tol).all())


def _checked_status(res: dict, num_ub: int, low: np.ndarray,
                    high: np.ndarray) -> Tuple[int, str]:
    """scipy's status and message for a ``_highs_wrapper`` result, after
    ``linprog``'s post-solve check.

    A status-0 result with a solution that passes
    :func:`_passes_check` is returned as it is, which is what
    ``_check_result`` would return; every other result goes through
    ``_check_result``, so its status and message stay scipy's.
    """
    status, message = _status_message(res.get("status"), res.get("message"))
    # Without a solution there is no "slack"; the check then only turns
    # a status 0 into 4.
    x, fun, slack = res["x"], res["fun"], res.get("slack", np.empty(0))
    if status == 0 and x is not None and _passes_check(
            x, fun, slack, num_ub, low, high):
        return status, message
    return _check_result(x, fun, status, slack[:num_ub], slack[num_ub:],
                         np.column_stack((low, high)), _CHECK_TOL, message,
                         None)


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
        np.negative(c, out=c)
    rows = lp.csc_rows()
    low, high = lp.lows(), lp.highs()
    res = _highs_wrapper(c, rows.indptr, rows.indices, rows.data, rows.lhs,
                         rows.rhs, low, high, np.empty(0, dtype=np.uint8),
                         _HIGHS_OPTIONS)
    status, message = _checked_status(res, rows.num_ub, low, high)
    if status != 0:
        _raise_for_status(lp, status, message)
    return lp.objective_value(res["x"]), res["x"]


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

"""From-scratch two-phase dense simplex solver.

This is the reference LP backend of the library: a classical primal
simplex on the full tableau with Bland's anti-cycling rule.  It exists
so the reproduction does not silently depend on a black-box solver -
the test suite cross-validates it against scipy's HiGHS backend on
randomly generated programs and on the paper's actual LP relaxations.

Model transformations performed here:

* variables with a finite lower bound are shifted to zero,
* free variables are split into positive and negative parts,
* finite upper bounds become explicit ``<=`` rows,
* ``<=`` rows gain slacks, ``>=`` rows gain surpluses, and rows that
  lack a usable basic column gain artificials,
* phase 1 minimizes the artificial sum; phase 2 optimizes the real
  objective.

Redundant rows (linearly dependent constraints) leave an artificial
basic at zero after phase 1; such rows are **dropped** before phase 2 -
keeping them is unsound because their basic column no longer exists in
the phase-2 tableau, so a later ratio test could pick the row and pivot
on a near-zero entry.

Pricing, the ratio test, and the pivot update are vectorized numpy
expressions that reproduce the classical per-element loops *exactly*
(same entering column - lowest index with negative reduced cost; same
leaving row - minimum ratio with ties broken by lowest basis index;
same multiply-then-subtract per tableau entry), so the pivot sequence
is identical to the textbook implementation's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import (InfeasibleProblemError, SolverError,
                          UnboundedProblemError)
from ..telemetry.metrics import get_metrics
from .model import LinearProgram

_TOL = 1e-9


@dataclass
class _StandardForm:
    """Equality-form program ``min c.x  s.t.  A x = b, x >= 0``."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    #: map original variable index -> (column of positive part,
    #: column of negative part or None, lower-bound shift)
    recover: List[Tuple[int, Optional[int], float]]
    num_structural: int


def _to_standard_form(lp: LinearProgram) -> _StandardForm:
    """Lower the natural-form model into equality standard form."""
    columns: List[Tuple[int, Optional[int], float]] = []
    col = 0
    # (pos column, neg column or None, ub) per finite upper bound - the
    # column pair is recorded here directly instead of recovered later
    # by scanning `columns` (which made the lowering quadratic in the
    # number of bounded variables).
    extra_upper_rows: List[Tuple[int, Optional[int], float]] = []
    for var in lp.variables:
        low, high = var.low, var.high
        if math.isinf(low) and low < 0:
            pos, neg = col, col + 1
            col += 2
            columns.append((pos, neg, 0.0))
            if not math.isinf(high):
                extra_upper_rows.append((pos, neg, high))  # x+ - x- <= high
        else:
            pos = col
            col += 1
            columns.append((pos, None, low))
            if not math.isinf(high):
                extra_upper_rows.append((pos, None, high - low))
    num_structural = col

    rows: List[np.ndarray] = []
    rhs: List[float] = []
    senses: List[str] = []
    for con in lp.constraints:
        row = np.zeros(num_structural)
        shift = 0.0
        for idx, coef in con.coeffs.items():
            pos, neg, low = columns[idx]
            row[pos] += coef
            if neg is not None:
                row[neg] -= coef
            shift += coef * low
        rows.append(row)
        rhs.append(con.rhs - shift)
        senses.append(con.sense)
    for pos, neg, ub in extra_upper_rows:
        row = np.zeros(num_structural)
        row[pos] = 1.0
        if neg is not None:
            row[neg] = -1.0
        rows.append(row)
        rhs.append(ub)
        senses.append("<=")

    m = len(rows)
    num_slack = sum(1 for s in senses if s in ("<=", ">="))
    n_total = num_structural + num_slack
    a = np.zeros((m, n_total))
    b = np.zeros(m)
    slack_col = num_structural
    for i, (row, r, sense) in enumerate(zip(rows, rhs, senses)):
        a[i, :num_structural] = row
        b[i] = r
        if sense == "<=":
            a[i, slack_col] = 1.0
            slack_col += 1
        elif sense == ">=":
            a[i, slack_col] = -1.0
            slack_col += 1
    # Normalize to b >= 0.
    for i in range(m):
        if b[i] < 0:
            a[i, :] *= -1.0
            b[i] *= -1.0

    c = np.zeros(n_total)
    sign = -1.0 if lp.maximize else 1.0  # simplex minimizes
    for var in lp.variables:
        pos, neg, _low = columns[var.index]
        c[pos] += sign * var.objective
        if neg is not None:
            c[neg] -= sign * var.objective
    return _StandardForm(a=a, b=b, c=c, recover=columns,
                         num_structural=num_structural)


def _pivot(tableau: np.ndarray, basis: List[int], row: int,
           col: int) -> None:
    """Pivot the tableau on (row, col) in place.

    Vectorized form of the classical per-row elimination; each entry
    sees the same multiply-then-subtract as the scalar loop, so the
    result is bit-identical.
    """
    tableau[row, :] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    mask = np.abs(factors) > _TOL
    if mask.any():
        tableau[mask, :] -= factors[mask, None] * tableau[row, :]
    basis[row] = col


def _run_simplex(tableau: np.ndarray, basis: List[int],
                 num_cols: int, max_iter: int) -> int:
    """Optimize the tableau in place (objective in the last row).

    Uses Bland's rule: entering variable is the lowest-index column
    with a negative reduced cost; leaving row is the lowest-index
    minimum-ratio row.  Raises on unboundedness or iteration overrun.

    The column/row scans are numpy reductions with the same
    deterministic tie-breaks as the classical loops (lowest column
    index; then lowest basis index among exact minimum-ratio ties), so
    the pivot sequence is unchanged.

    Returns:
        Pivots performed before reaching optimality.
    """
    m = tableau.shape[0] - 1
    rhs_col = tableau.shape[1] - 1
    for pivots in range(max_iter):
        negative = np.flatnonzero(tableau[-1, :num_cols] < -_TOL)
        if negative.size == 0:
            return pivots
        enter = int(negative[0])
        coefs = tableau[:m, enter]
        eligible = coefs > _TOL
        if not eligible.any():
            raise UnboundedProblemError(
                "LP is unbounded in the optimization direction")
        ratios = np.full(m, np.inf)
        np.divide(tableau[:m, rhs_col], coefs, out=ratios,
                  where=eligible)
        best = ratios.min()
        ties = np.flatnonzero(ratios == best)
        leave = int(min(ties, key=lambda i: (basis[i], i)))
        _pivot(tableau, basis, leave, enter)
    raise SolverError(f"simplex exceeded {max_iter} iterations")


def _recover_solution(lp: LinearProgram, form: _StandardForm,
                      tableau: np.ndarray, basis: Sequence[int]
                      ) -> Tuple[float, np.ndarray]:
    n = form.a.shape[1]
    solution = np.zeros(n)
    for i, bj in enumerate(basis):
        if bj < n:
            solution[bj] = tableau[i, -1]
    x = np.empty(lp.num_variables)
    for index, (pos, neg, low) in enumerate(form.recover):
        val = solution[pos] + low
        if neg is not None:
            val -= solution[neg]
        x[index] = val
    return lp.objective_value(x), x


def solve_with_simplex(lp: LinearProgram,
                       max_iter: int = 100_000) -> Tuple[float, np.ndarray]:
    """Solve a (continuous) LP with the from-scratch simplex.

    Integrality flags are ignored (this is the relaxation solver that
    branch-and-bound builds on).

    Args:
        lp: the model.
        max_iter: pivot budget shared by both phases.

    Returns:
        ``(objective, x)``: the objective in the model's natural
        direction and the solution in column order.

    Raises:
        InfeasibleProblemError: no feasible point exists.
        UnboundedProblemError: the objective is unbounded.
        SolverError: iteration budget exhausted.
    """
    form = _to_standard_form(lp)
    a, b, c = form.a, form.b, form.c
    m, n = a.shape

    if m == 0:
        # No constraints: each variable sits at its best finite bound.
        x = np.empty(lp.num_variables)
        objective = 0.0
        for var in lp.variables:
            coef = var.objective if lp.maximize else -var.objective
            if coef > 0:
                best = var.high
            elif coef < 0:
                best = var.low
            else:
                best = var.low if not math.isinf(var.low) else 0.0
            if math.isinf(best):
                raise UnboundedProblemError(
                    f"variable {var.name} unbounded with nonzero objective")
            x[var.index] = best
            objective += var.objective * best
        return objective, x

    # ---------------- Phase 1 ----------------
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = a
    tableau[:m, n:n + m] = np.eye(m)
    tableau[:m, -1] = b
    basis = list(range(n, n + m))
    # Phase-1 objective: minimize the artificial sum.
    tableau[-1, :n] = -a.sum(axis=0)
    tableau[-1, -1] = -b.sum()
    pivots = _run_simplex(tableau, basis, num_cols=n + m,
                          max_iter=max_iter)
    if tableau[-1, -1] < -1e-7:
        raise InfeasibleProblemError(
            f"{lp.name}: phase-1 optimum {-tableau[-1, -1]:.3e} > 0")

    # Drive remaining artificials out of the basis where possible.
    for i in range(m):
        if basis[i] >= n:
            pivot_col = -1
            for j in range(n):
                if abs(tableau[i, j]) > 1e-7:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                _pivot(tableau, basis, i, pivot_col)

    # Rows whose artificial is *still* basic are redundant (linearly
    # dependent, with zero residual rhs after phase 1).  They must not
    # survive into phase 2: their basic column does not exist there, so
    # a later ratio test could select the row and pivot on a
    # numerically-zero entry.  Dropping a redundant equality never
    # changes the feasible region.
    keep = [i for i in range(m) if basis[i] < n]
    if len(keep) < m:
        basis = [basis[i] for i in keep]
        m = len(keep)
    else:
        keep = list(range(m))

    # ---------------- Phase 2 ----------------
    tableau2 = np.zeros((m + 1, n + 1))
    tableau2[:m, :n] = tableau[keep, :n]
    tableau2[:m, -1] = tableau[keep, -1]
    tableau2[-1, :n] = c
    # Price out the basic columns.
    for i, bj in enumerate(basis):
        if bj < n and abs(tableau2[-1, bj]) > _TOL:
            tableau2[-1, :] -= tableau2[-1, bj] * tableau2[i, :]
    pivots += _run_simplex(tableau2, basis, num_cols=n,
                           max_iter=max_iter)
    get_metrics().inc("simplex_iterations_total", pivots)
    return _recover_solution(lp, form, tableau2, basis)

"""Property test: HiGHS gets the model's CSC straight from its rows.

:meth:`~repro.solver.model.LinearProgram.csc_rows` stacks the stored
CSR rows and transposes them with scipy's C ``csr_tocsc``.  It replaced
stacking the ``<=`` and ``==`` blocks of :meth:`~LinearProgram.sparse_rows`
into one CSR and calling ``tocsc()``; that join is frozen below.  On
random models with ``<=``, ``>=`` and ``==`` rows (interleaved, empty,
and with structural zeros that the model drops), on one-sense and
zero-row models, and on a model with no column, both must give the same
bytes (int32 ``indptr`` and ``indices``), and
:func:`~repro.solver.interface.solve_lp` the same ``x`` and objective
as a solve through the frozen join.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize._linprog_highs import (_highs_to_scipy_status_message,
                                           _highs_wrapper)
from scipy.optimize._linprog_util import _check_result

from repro.solver import scipy_backend
from repro.solver.interface import solve_lp
from repro.solver.model import LinearProgram


def frozen_join(lp):
    """``[A_ub; A_eq]`` as the solver built it before: one joined CSR,
    converted with ``tocsc()``, and its row bounds."""
    a_ub, b_ub, a_eq, b_eq = lp.sparse_rows()
    a = sparse.csr_array(
        (np.concatenate((a_ub.data, a_eq.data)),
         np.concatenate((a_ub.indices, a_eq.indices)),
         np.concatenate((a_ub.indptr, a_eq.indptr[1:] + a_ub.nnz))),
        shape=(b_ub.size + b_eq.size, lp.num_variables)).tocsc()
    lhs = np.concatenate((np.full(b_ub.size, -np.inf), b_eq))
    rhs = np.concatenate((b_ub, b_eq))
    return a.indptr, a.indices, a.data, lhs, rhs, b_ub.size


def frozen_solve(lp):
    """The solve through the frozen join."""
    c = lp.objective_vector()
    if lp.maximize:
        c = -c
    indptr, indices, data, lhs, rhs, num_ub = frozen_join(lp)
    low, high = lp.lows(), lp.highs()
    res = _highs_wrapper(c, indptr, indices, data, lhs, rhs, low, high,
                         np.empty(0, dtype=np.uint8),
                         scipy_backend._HIGHS_OPTIONS)
    status, message = _highs_to_scipy_status_message(res.get("status"),
                                                     res.get("message"))
    x, slack = res["x"], res.get("slack", np.empty(0))
    status, message = _check_result(
        x, res["fun"], status, slack[:num_ub], slack[num_ub:],
        np.column_stack((low, high)), scipy_backend._CHECK_TOL, message,
        None)
    assert status == 0, message
    return lp.objective_value(x), x


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


#: Coefficients, with zeros to exercise the structural zero-drop.
coefficients = st.one_of(st.just(0.0),
                         st.floats(-5.0, 5.0, allow_nan=False,
                                   allow_infinity=False))


@st.composite
def models(draw):
    """A random LP over the box ``[0, 1]^n`` that ``x = 0`` satisfies:
    blocks of rows sharing a sense, in random order."""
    num_cols = draw(st.integers(1, 7))
    lp = LinearProgram(name="prop", maximize=draw(st.booleans()))
    lp.add_columns(np.zeros(num_cols), np.ones(num_cols),
                   draw(st.lists(coefficients, min_size=num_cols,
                                 max_size=num_cols)),
                   [f"x{k}" for k in range(num_cols)])
    for block in range(draw(st.integers(0, 5))):
        sense = draw(st.sampled_from(("<=", ">=", "==")))
        row_nnz, indices, data, rhs = [], [], [], []
        for _ in range(draw(st.integers(1, 4))):
            cols = sorted(draw(st.sets(st.integers(0, num_cols - 1),
                                       max_size=num_cols)))
            row_nnz.append(len(cols))
            indices += cols
            data += draw(st.lists(coefficients, min_size=len(cols),
                                  max_size=len(cols)))
            bound = {"<=": st.floats(0.0, 10.0), ">=": st.floats(-10.0, 0.0),
                     "==": st.just(0.0)}[sense]
            rhs.append(draw(bound))
        lp.add_rows(row_nnz, indices, data, sense, rhs,
                    [f"b{block}_{k}" for k in range(len(rhs))])
    return lp


@settings(max_examples=200, deadline=None)
@given(lp=models())
def test_csc_rows_equal_the_frozen_join(lp):
    rows = lp.csc_rows()
    mine = (rows.indptr, rows.indices, rows.data, rows.lhs, rows.rhs)
    theirs = frozen_join(lp)
    for name, a, b in zip(("indptr", "indices", "data", "lhs", "rhs"),
                          mine, theirs):
        assert same_bytes(a, b), name
    assert rows.num_ub == theirs[5]
    assert rows.indptr.dtype == rows.indices.dtype == np.int32


def one_sense_model(sense, num_rows):
    """Three columns and `num_rows` rows, every one of `sense`."""
    lp = LinearProgram(name=f"only{sense}")
    lp.add_columns(np.zeros(3), np.ones(3), [1.0, 2.0, 3.0],
                   ["a", "b", "c"])
    if num_rows:
        rows = [[0, 2], [1], [0, 1, 2], []][:num_rows]
        rhs = {"<=": 2.0, ">=": -1.0, "==": 0.0}[sense]
        lp.add_rows([len(cols) for cols in rows],
                    [col for cols in rows for col in cols],
                    [1.0 + k for k, cols in enumerate(rows) for _ in cols],
                    sense, [rhs if cols else 0.0 for cols in rows],
                    [f"r{k}" for k in range(len(rows))])
    return lp


@pytest.mark.parametrize("sense, num_rows", [
    ("<=", 0), ("<=", 4), (">=", 4), ("==", 1), ("==", 4), (">=", 1)])
def test_one_sense_and_zero_row_models(sense, num_rows):
    lp = one_sense_model(sense, num_rows)
    rows = lp.csc_rows()
    for a, b in zip(rows[:5], frozen_join(lp)):
        assert same_bytes(a, b)
    assert rows.num_ub == (0 if sense == "==" else num_rows)
    assert rows.indptr.dtype == rows.indices.dtype == np.int32
    assert rows.indptr.tolist()[-1] == rows.indices.size


def test_zero_column_model():
    lp = LinearProgram(name="empty")
    rows = lp.csc_rows()
    for a, b in zip(rows[:5], frozen_join(lp)):
        assert same_bytes(a, b)
    assert rows.indptr.tolist() == [0]


@settings(max_examples=60, deadline=None)
@given(lp=models())
def test_solve_lp_matches_the_frozen_join(lp):
    solution = solve_lp(lp)
    objective, x = frozen_solve(lp)
    assert same_bytes(solution.x, x)
    assert solution.objective == objective


def test_interleaved_equality_rows_come_last():
    lp = LinearProgram(name="mixed")
    lp.add_columns(np.zeros(3), np.ones(3), [1.0, 2.0, 3.0],
                   ["a", "b", "c"])
    lp.add_rows([2], [0, 2], [1.0, 1.0], "==", [0.0], ["e0"])
    lp.add_rows([2], [1, 2], [2.0, 0.0], ">=", [-1.0], ["g0"])
    lp.add_rows([0], [], [], "<=", [3.0], ["empty"])
    lp.add_rows([3], [0, 1, 2], [1.0, 1.0, 1.0], "<=", [2.0], ["u0"])
    rows = lp.csc_rows()
    # Stacked rows: g0 (negated, its zero dropped), empty, u0, then e0.
    assert rows.num_ub == 3
    assert rows.indptr.tolist() == [0, 2, 4, 6]
    assert rows.indices.tolist() == [2, 3, 0, 2, 2, 3]
    assert rows.data.tolist() == [1.0, 1.0, -2.0, 1.0, 1.0, 1.0]
    assert rows.lhs.tolist() == [-np.inf, -np.inf, -np.inf, 0.0]
    assert rows.rhs.tolist() == [1.0, 3.0, 2.0, 0.0]
    for a, b in zip(rows[:5], frozen_join(lp)):
        assert same_bytes(a, b)

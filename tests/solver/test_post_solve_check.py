"""A/B guard: the status-0 fast path against scipy's post-solve check.

:func:`~repro.solver.scipy_backend._checked_status` returns a status-0
result with a solution at once when it passes ``_check_result``'s own
feasibility predicate, and sends every other result through
``_check_result``.  The reference below is the check as the solver made
it before: scipy's status mapping, then ``_check_result`` on every
result.  On crafted results at and around each bound of the predicate
(NaN, the widened tolerance, infinite bounds, every scipy status, no
solution) and on random vectors, both must give the same
``(status, message)``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize._highspy._core import HighsModelStatus
from scipy.optimize._linprog_highs import _highs_to_scipy_status_message
from scipy.optimize._linprog_util import _check_result

from repro.solver import scipy_backend
from repro.solver.scipy_backend import _checked_status

#: ``_check_result``'s widened tolerance for ``tol=1e-9``.
TOL = np.sqrt(1e-9) * 10

#: One HiGHS model status per scipy status 0, 2, 3 and 4.
HIGHS_STATUS = {0: HighsModelStatus.kOptimal,
                2: HighsModelStatus.kInfeasible,
                3: HighsModelStatus.kUnbounded,
                4: HighsModelStatus.kSolveError}


def reference(res, num_ub, low, high):
    """The check on every result, as the solver ran it before."""
    status, message = _highs_to_scipy_status_message(res.get("status"),
                                                     res.get("message"))
    x, slack = res["x"], res.get("slack", np.empty(0))
    return _check_result(x, res["fun"], status, slack[:num_ub],
                         slack[num_ub:], np.column_stack((low, high)),
                         scipy_backend._CHECK_TOL, message, None)


def result(x, fun=1.0, slack=(), status=0, message="Optimal"):
    res = {"status": HIGHS_STATUS[status], "message": message,
           "x": None if x is None else np.asarray(x, dtype=float),
           "fun": fun}
    if x is not None:
        res["slack"] = np.asarray(slack, dtype=float)
    return res


def assert_same(res, num_ub=0, low=(0.0,), high=(1.0,)):
    low = np.asarray(low, dtype=float)
    high = np.asarray(high, dtype=float)
    assert _checked_status(res, num_ub, low, high) == \
        reference(res, num_ub, low, high)


def test_the_tolerance_is_scipys():
    assert scipy_backend._FEASIBLE_TOL == TOL


@pytest.mark.parametrize("status", sorted(HIGHS_STATUS))
def test_a_feasible_point_under_every_status(status):
    assert_same(result([0.5, 0.25], slack=[0.1, 0.0], status=status),
                num_ub=1, low=(0.0, 0.0), high=(1.0, 1.0))


@pytest.mark.parametrize("status", sorted(HIGHS_STATUS))
def test_no_solution(status):
    assert_same(result(None, fun=None, status=status))


@pytest.mark.parametrize("where", ["x", "fun", "ub", "eq"])
@pytest.mark.parametrize("status", sorted(HIGHS_STATUS))
def test_nan_anywhere(where, status):
    x, fun, slack = [0.5], 1.0, [0.0, 0.0]
    if where == "x":
        x = [np.nan]
    elif where == "fun":
        fun = np.nan
    elif where == "ub":
        slack = [np.nan, 0.0]
    else:
        slack = [0.0, np.nan]
    res = result(x, fun=fun, slack=slack, status=status)
    assert_same(res, num_ub=1)
    if status == 0:
        assert _checked_status(res, 1, np.zeros(1), np.ones(1))[0] == 4


def _around(value):
    """``value`` and its two neighbouring doubles."""
    return [np.nextafter(value, -np.inf), value,
            np.nextafter(value, np.inf)]


@pytest.mark.parametrize("x", _around(0.0 - TOL) + _around(1.0 + TOL))
@pytest.mark.parametrize("status", [0, 2])
def test_x_at_the_widened_bounds(x, status):
    assert_same(result([x], status=status))


@pytest.mark.parametrize("x", [-1e300, -np.inf, 0.0, 1e300, np.inf])
@pytest.mark.parametrize("low, high", [(-np.inf, np.inf), (-np.inf, 0.0),
                                       (0.0, np.inf)])
def test_infinite_bounds(x, low, high):
    assert_same(result([x]), low=(low,), high=(high,))


@pytest.mark.parametrize("slack", _around(-TOL) + [-1.0, 0.0, 5.0])
@pytest.mark.parametrize("status", [0, 2, 3])
def test_ub_slack_at_minus_tol(slack, status):
    assert_same(result([0.5], slack=[slack], status=status), num_ub=1)


@pytest.mark.parametrize("residual",
                         _around(TOL) + _around(-TOL) + [0.0, -0.0])
@pytest.mark.parametrize("status", [0, 2, 3])
def test_equality_residual_at_tol(residual, status):
    assert_same(result([0.5], slack=[0.0, residual], status=status),
                num_ub=1)


def test_the_fast_path_skips_the_check_only_at_status_0(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args[2])
        return _check_result(*args)

    monkeypatch.setattr(scipy_backend, "_check_result", counting)
    low, high = np.zeros(1), np.ones(1)
    _checked_status(result([0.5]), 0, low, high)
    assert calls == []
    for status in (2, 3, 4):
        _checked_status(result([0.5], status=status), 0, low, high)
    _checked_status(result([2.0]), 0, low, high)
    _checked_status(result(None), 0, low, high)
    assert calls == [2, 3, 4, 0, 0]


def test_points_on_the_tolerance_take_the_fast_path(monkeypatch):
    """The predicate is scipy's to the last double: a solution exactly
    on each widened bound is accepted without calling the check."""
    calls = []
    monkeypatch.setattr(scipy_backend, "_check_result",
                        lambda *args: calls.append(args))
    low, high = np.zeros(2), np.ones(2)
    for x, slack in (([0.0 - TOL, 1.0 + TOL], [0.0, 0.0]),
                     ([0.5, 0.5], [-TOL, 0.0]),
                     ([0.5, 0.5], [0.0, TOL]),
                     ([0.5, 0.5], [0.0, -TOL])):
        assert _checked_status(result(x, slack=slack), 1, low, high)[0] == 0
    assert calls == []


#: Values around the tolerance, plus NaN and the infinities.
values = st.one_of(
    st.floats(-2.0, 3.0),
    st.sampled_from([-TOL, TOL, 1.0 + TOL, -2 * TOL, 2 * TOL, np.nan,
                     np.inf, -np.inf, 0.0, -0.0]))


@st.composite
def results(draw):
    num_cols = draw(st.integers(1, 6))
    num_ub = draw(st.integers(0, 4))
    num_eq = draw(st.integers(0, 3))
    low = draw(st.lists(st.sampled_from([0.0, -1.0, -np.inf]),
                        min_size=num_cols, max_size=num_cols))
    high = draw(st.lists(st.sampled_from([1.0, 2.0, np.inf]),
                         min_size=num_cols, max_size=num_cols))
    x = draw(st.lists(values, min_size=num_cols, max_size=num_cols))
    slack = draw(st.lists(values, min_size=num_ub + num_eq,
                          max_size=num_ub + num_eq))
    fun = draw(st.one_of(st.floats(-10.0, 10.0), st.just(np.nan)))
    status = draw(st.sampled_from(sorted(HIGHS_STATUS)))
    res = result(x, fun=fun, slack=slack, status=status)
    return res, num_ub, low, high


@settings(max_examples=400, deadline=None)
@given(case=results())
def test_random_results(case):
    res, num_ub, low, high = case
    assert_same(res, num_ub, low, high)

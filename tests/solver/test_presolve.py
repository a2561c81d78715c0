"""Unit and property tests for LP presolve."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InfeasibleProblemError
from repro.solver.model import LinearProgram
from repro.solver.presolve import presolve, solve_with_presolve
from repro.solver.scipy_backend import solve_lp_scipy
from repro.solver.simplex import solve_with_simplex


class TestReductions:
    def test_fixed_variable_substituted(self):
        lp = LinearProgram(maximize=True)
        lp.add_variable("x", low=2.0, high=2.0, objective=3.0)
        lp.add_variable("y", low=0.0, high=5.0, objective=1.0)
        lp.add_constraint({"x": 1.0, "y": 1.0}, "<=", 6.0)
        reduced, recover, offset = presolve(lp)
        assert reduced.num_variables == 1
        assert offset == pytest.approx(6.0)
        # The constraint rhs absorbed the fixed part: y <= 4.
        con = reduced.constraints[0]
        assert con.rhs == pytest.approx(4.0)
        full = lp.values_of(recover(np.array([4.0])))
        assert full == {"x": 2.0, "y": 4.0}

    def test_singleton_row_becomes_bound(self):
        lp = LinearProgram(maximize=True)
        lp.add_variable("x", objective=1.0)
        lp.add_constraint({"x": 2.0}, "<=", 6.0)   # x <= 3
        lp.add_constraint({"x": 1.0}, ">=", 1.0)   # x >= 1
        reduced, _recover, _offset = presolve(lp)
        assert reduced.num_constraints == 0
        var = reduced.variable("x")
        assert var.low == pytest.approx(1.0)
        assert var.high == pytest.approx(3.0)

    def test_negative_coefficient_singleton_flips_sense(self):
        lp = LinearProgram(maximize=False)
        lp.add_variable("x", objective=1.0)
        lp.add_constraint({"x": -1.0}, "<=", -2.0)  # x >= 2
        reduced, _r, _o = presolve(lp)
        assert reduced.variable("x").low == pytest.approx(2.0)

    def test_conflicting_singletons_infeasible(self):
        lp = LinearProgram(maximize=True)
        lp.add_variable("x", objective=1.0)
        lp.add_constraint({"x": 1.0}, "<=", 1.0)
        lp.add_constraint({"x": 1.0}, ">=", 2.0)
        with pytest.raises(InfeasibleProblemError):
            presolve(lp)

    def test_equality_singleton_fixes_variable(self):
        lp = LinearProgram(maximize=True)
        lp.add_variable("x", low=0.0, high=10.0, objective=1.0)
        lp.add_variable("y", low=0.0, high=1.0, objective=1.0)
        lp.add_constraint({"x": 1.0}, "==", 4.0)
        lp.add_constraint({"x": 1.0, "y": 1.0}, "<=", 4.5)
        reduced, recover, offset = presolve(lp)
        assert reduced.num_variables == 1
        assert offset == pytest.approx(4.0)
        con = reduced.constraints[0]
        assert con.rhs == pytest.approx(0.5)

    def test_reduced_empty_row_checked(self):
        lp = LinearProgram(maximize=True)
        lp.add_variable("x", low=3.0, high=3.0, objective=1.0)
        lp.add_constraint({"x": 1.0}, "<=", 2.0)  # 3 <= 2: infeasible
        with pytest.raises(InfeasibleProblemError):
            presolve(lp)


class TestSolveWithPresolve:
    def test_matches_direct_solve(self):
        lp = LinearProgram(maximize=True)
        lp.add_variable("x", low=1.0, high=1.0, objective=2.0)
        lp.add_variable("y", high=3.0, objective=1.0)
        lp.add_variable("z", high=2.0, objective=1.5)
        lp.add_constraint({"x": 1.0, "y": 1.0, "z": 1.0}, "<=", 4.0)
        lp.add_constraint({"z": 1.0}, "<=", 1.5)
        direct_obj, _ = solve_with_simplex(lp)
        pre_obj, x = solve_with_presolve(lp, solve_with_simplex)
        values = lp.values_of(x)
        assert pre_obj == pytest.approx(direct_obj)
        assert lp.check_feasible(values) == []

    def test_fully_fixed_model(self):
        lp = LinearProgram(maximize=True)
        lp.add_variable("x", low=2.0, high=2.0, objective=5.0)
        obj, x = solve_with_presolve(lp, solve_with_simplex)
        values = lp.values_of(x)
        assert obj == pytest.approx(10.0)
        assert values == {"x": 2.0}

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_presolved_simplex_matches_scipy_property(self, seed):
        rng = np.random.default_rng(seed)
        lp = LinearProgram(maximize=True)
        n = 5
        for j in range(n):
            low = float(rng.uniform(0.0, 1.0))
            high = low if rng.random() < 0.3 else low + float(
                rng.uniform(0.5, 2.0))
            lp.add_variable(f"x{j}", low=low, high=high,
                            objective=float(rng.uniform(-1.0, 3.0)))
        for i in range(3):
            k = int(rng.integers(1, n + 1))
            cols = rng.choice(n, size=k, replace=False)
            coeffs = {f"x{j}": float(rng.uniform(0.1, 2.0))
                      for j in cols}
            lp.add_constraint(coeffs, "<=", float(rng.uniform(4.0, 12.0)))
        try:
            scipy_obj, _ = solve_lp_scipy(lp)
        except InfeasibleProblemError:
            # The random bounds can force a constraint's lhs above its
            # rhs even at all lower bounds (e.g. seed=505); the
            # property then is that both paths agree on infeasibility.
            with pytest.raises(InfeasibleProblemError):
                solve_with_presolve(lp, solve_with_simplex)
            return
        pre_obj, x = solve_with_presolve(lp, solve_with_simplex)
        values = lp.values_of(x)
        assert pre_obj == pytest.approx(scipy_obj, abs=1e-6)
        assert lp.check_feasible(values) == []

"""Unit tests for the from-scratch two-phase simplex."""

import math

import pytest

from repro.exceptions import (InfeasibleProblemError,
                              UnboundedProblemError)
from repro.solver.model import LinearProgram
from repro.solver.simplex import solve_with_simplex


class TestTextbookCases:
    def test_simple_max(self):
        # max 3x + 2y s.t. x + y <= 4, x <= 2.
        lp = LinearProgram(maximize=True)
        lp.add_variable("x", objective=3.0)
        lp.add_variable("y", objective=2.0)
        lp.add_constraint({"x": 1.0, "y": 1.0}, "<=", 4.0)
        lp.add_constraint({"x": 1.0}, "<=", 2.0)
        obj, x = solve_with_simplex(lp)
        values = lp.values_of(x)
        assert obj == pytest.approx(10.0)
        assert values["x"] == pytest.approx(2.0)
        assert values["y"] == pytest.approx(2.0)

    def test_simple_min(self):
        # min x + y s.t. x + 2y >= 4, 3x + y >= 6.
        lp = LinearProgram(maximize=False)
        lp.add_variable("x", objective=1.0)
        lp.add_variable("y", objective=1.0)
        lp.add_constraint({"x": 1.0, "y": 2.0}, ">=", 4.0)
        lp.add_constraint({"x": 3.0, "y": 1.0}, ">=", 6.0)
        obj, x = solve_with_simplex(lp)
        values = lp.values_of(x)
        assert obj == pytest.approx(2.8)
        assert values["x"] == pytest.approx(1.6)
        assert values["y"] == pytest.approx(1.2)

    def test_equality_constraint(self):
        lp = LinearProgram(maximize=True)
        lp.add_variable("x", objective=1.0)
        lp.add_variable("y", objective=1.0)
        lp.add_constraint({"x": 1.0, "y": 1.0}, "==", 3.0)
        lp.add_constraint({"x": 1.0}, "<=", 1.0)
        obj, x = solve_with_simplex(lp)
        values = lp.values_of(x)
        assert obj == pytest.approx(3.0)
        assert values["x"] + values["y"] == pytest.approx(3.0)

    def test_upper_bounds(self):
        lp = LinearProgram(maximize=True)
        lp.add_variable("x", low=0.0, high=0.7, objective=1.0)
        lp.add_constraint({"x": 1.0}, "<=", 5.0)
        obj, x = solve_with_simplex(lp)
        values = lp.values_of(x)
        assert obj == pytest.approx(0.7)

    def test_lower_bound_shift(self):
        # min x with x >= 2 and x <= 10.
        lp = LinearProgram(maximize=False)
        lp.add_variable("x", low=2.0, high=10.0, objective=1.0)
        lp.add_constraint({"x": 1.0}, "<=", 10.0)
        obj, x = solve_with_simplex(lp)
        values = lp.values_of(x)
        assert obj == pytest.approx(2.0)

    def test_free_variable(self):
        # min x + 5 y, x free, x >= -3 via constraint; y >= 0.
        lp = LinearProgram(maximize=False)
        lp.add_variable("x", low=-math.inf, objective=1.0)
        lp.add_variable("y", objective=5.0)
        lp.add_constraint({"x": 1.0}, ">=", -3.0)
        obj, x = solve_with_simplex(lp)
        values = lp.values_of(x)
        assert obj == pytest.approx(-3.0)
        assert values["x"] == pytest.approx(-3.0)


class TestEdgeCases:
    def test_infeasible(self):
        lp = LinearProgram(maximize=True)
        lp.add_variable("x", objective=1.0)
        lp.add_constraint({"x": 1.0}, "<=", 1.0)
        lp.add_constraint({"x": 1.0}, ">=", 2.0)
        with pytest.raises(InfeasibleProblemError):
            solve_with_simplex(lp)

    def test_unbounded(self):
        lp = LinearProgram(maximize=True)
        lp.add_variable("x", objective=1.0)
        lp.add_variable("y", objective=0.0)
        lp.add_constraint({"y": 1.0}, "<=", 1.0)
        with pytest.raises(UnboundedProblemError):
            solve_with_simplex(lp)

    def test_no_constraints_bounded(self):
        lp = LinearProgram(maximize=True)
        lp.add_variable("x", low=0.0, high=3.0, objective=2.0)
        obj, x = solve_with_simplex(lp)
        values = lp.values_of(x)
        assert obj == pytest.approx(6.0)

    def test_no_constraints_unbounded(self):
        lp = LinearProgram(maximize=True)
        lp.add_variable("x", objective=1.0)
        with pytest.raises(UnboundedProblemError):
            solve_with_simplex(lp)

    def test_degenerate_does_not_cycle(self):
        # A classically degenerate program (Beale-like); Bland's rule
        # must terminate.
        lp = LinearProgram(maximize=False)
        lp.add_variable("x1", objective=-0.75)
        lp.add_variable("x2", objective=150.0)
        lp.add_variable("x3", objective=-0.02)
        lp.add_variable("x4", objective=6.0)
        lp.add_constraint({"x1": 0.25, "x2": -60.0, "x3": -0.04,
                           "x4": 9.0}, "<=", 0.0)
        lp.add_constraint({"x1": 0.5, "x2": -90.0, "x3": -0.02,
                           "x4": 3.0}, "<=", 0.0)
        lp.add_constraint({"x3": 1.0}, "<=", 1.0)
        obj, _ = solve_with_simplex(lp)
        assert obj == pytest.approx(-0.05)

    def test_zero_rhs_equality(self):
        lp = LinearProgram(maximize=True)
        lp.add_variable("x", objective=1.0)
        lp.add_variable("y", objective=0.0)
        lp.add_constraint({"x": 1.0, "y": -1.0}, "==", 0.0)
        lp.add_constraint({"y": 1.0}, "<=", 2.0)
        obj, x = solve_with_simplex(lp)
        values = lp.values_of(x)
        assert obj == pytest.approx(2.0)
        assert values["x"] == pytest.approx(values["y"])

    def test_solution_feasible(self):
        lp = LinearProgram(maximize=True)
        lp.add_variable("x", high=1.0, objective=1.0)
        lp.add_variable("y", high=1.0, objective=2.0)
        lp.add_constraint({"x": 1.0, "y": 2.0}, "<=", 2.5)
        _obj, x = solve_with_simplex(lp)
        values = lp.values_of(x)
        assert lp.check_feasible(values) == []

"""Unit tests for the from-scratch branch-and-bound ILP solver."""

import pytest

from repro.exceptions import InfeasibleProblemError, SolverError
from repro.solver.branch_and_bound import solve_with_branch_and_bound
from repro.solver.model import LinearProgram
from repro.solver.scipy_backend import solve_lp_scipy
from repro.solver.simplex import solve_with_simplex
from repro.telemetry.metrics import MetricsRegistry, use_metrics


def solve_bnb(lp, oracle=solve_lp_scipy):
    """``(objective, name -> value)`` of branch-and-bound on `lp`."""
    obj, x = solve_with_branch_and_bound(lp, oracle)
    return obj, lp.values_of(x)


class TestKnapsack:
    def make_knapsack(self):
        # max 10a + 13b + 7c, 3a + 4b + 2c <= 6, binary.
        lp = LinearProgram(maximize=True)
        lp.add_variable("a", high=1.0, objective=10.0, integer=True)
        lp.add_variable("b", high=1.0, objective=13.0, integer=True)
        lp.add_variable("c", high=1.0, objective=7.0, integer=True)
        lp.add_constraint({"a": 3.0, "b": 4.0, "c": 2.0}, "<=", 6.0)
        return lp

    def test_optimum(self):
        obj, values = solve_bnb(self.make_knapsack())
        assert obj == pytest.approx(20.0)  # b + c
        assert values["b"] == 1.0 and values["c"] == 1.0
        assert values["a"] == 0.0

    def test_with_simplex_oracle(self):
        obj, _ = solve_bnb(self.make_knapsack(),
                           oracle=solve_with_simplex)
        assert obj == pytest.approx(20.0)

    def test_integrality_enforced(self):
        _obj, values = solve_bnb(self.make_knapsack())
        for val in values.values():
            assert val == pytest.approx(round(val))

    def test_explored_nodes_count_into_the_registry(self):
        relaxations = []

        def oracle(lp):
            relaxations.append(lp)
            return solve_lp_scipy(lp)

        registry = MetricsRegistry()
        with use_metrics(registry):
            solve_with_branch_and_bound(self.make_knapsack(), oracle)
        # One relaxation per explored node, plus the root bound.
        assert registry.counter("bnb_nodes") == len(relaxations) - 1 > 1

    def test_node_budget_exhausted(self):
        with pytest.raises(SolverError, match="exceeded 1 nodes"):
            solve_with_branch_and_bound(self.make_knapsack(),
                                        solve_lp_scipy, max_nodes=1)


class TestGeneralInteger:
    def test_non_binary_integers(self):
        # max x + y, 2x + y <= 7, x + 3y <= 9, integer.
        lp = LinearProgram(maximize=True)
        lp.add_variable("x", objective=1.0, integer=True)
        lp.add_variable("y", objective=1.0, integer=True)
        lp.add_constraint({"x": 2.0, "y": 1.0}, "<=", 7.0)
        lp.add_constraint({"x": 1.0, "y": 3.0}, "<=", 9.0)
        obj, values = solve_bnb(lp)
        # LP relaxation peaks at x=2.4, y=2.2 (4.6); best integer is 4.
        assert obj == pytest.approx(4.0)
        assert lp.check_feasible(values) == []

    def test_minimization(self):
        # min 3x + 4y s.t. x + y >= 2.5, integer.
        lp = LinearProgram(maximize=False)
        lp.add_variable("x", objective=3.0, integer=True)
        lp.add_variable("y", objective=4.0, integer=True)
        lp.add_constraint({"x": 1.0, "y": 1.0}, ">=", 2.5)
        obj, values = solve_bnb(lp)
        assert obj == pytest.approx(9.0)  # x=3, y=0

    def test_mixed_integer(self):
        # y continuous, x integer.
        lp = LinearProgram(maximize=True)
        lp.add_variable("x", objective=2.0, integer=True)
        lp.add_variable("y", objective=1.0)
        lp.add_constraint({"x": 1.0, "y": 1.0}, "<=", 3.5)
        lp.add_constraint({"x": 1.0}, "<=", 2.5)
        obj, values = solve_bnb(lp)
        assert values["x"] == pytest.approx(2.0)
        assert values["y"] == pytest.approx(1.5)
        assert obj == pytest.approx(5.5)


class TestFailures:
    def test_infeasible_root(self):
        lp = LinearProgram(maximize=True)
        lp.add_variable("x", objective=1.0, integer=True)
        lp.add_constraint({"x": 1.0}, "<=", 1.0)
        lp.add_constraint({"x": 1.0}, ">=", 2.0)
        with pytest.raises(InfeasibleProblemError):
            solve_bnb(lp)

    def test_integer_infeasible(self):
        # 0.4 <= x <= 0.6 has no integer point.
        lp = LinearProgram(maximize=True)
        lp.add_variable("x", low=0.0, high=1.0, objective=1.0,
                        integer=True)
        lp.add_constraint({"x": 1.0}, ">=", 0.4)
        lp.add_constraint({"x": 1.0}, "<=", 0.6)
        with pytest.raises(InfeasibleProblemError):
            solve_bnb(lp)

    def test_pure_lp_passthrough(self):
        lp = LinearProgram(maximize=True)
        lp.add_variable("x", high=1.5, objective=1.0)
        lp.add_constraint({"x": 1.0}, "<=", 1.5)
        obj, values = solve_bnb(lp)
        assert obj == pytest.approx(1.5)

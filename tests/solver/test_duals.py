"""Tests for LP dual extraction."""

import pytest
from scipy import optimize

from repro.core.lp_relaxation import build_lp_relaxation
from repro.exceptions import InfeasibleProblemError
from repro.solver.duals import solve_lp_with_duals
from repro.solver.model import LinearProgram
from repro.solver.scipy_backend import solve_lp_scipy


class TestTextbookDuals:
    def make_lp(self):
        # max 3x + 2y s.t. x + y <= 4 (binding), x <= 10 (slack).
        lp = LinearProgram(maximize=True)
        lp.add_variable("x", objective=3.0)
        lp.add_variable("y", objective=2.0)
        lp.add_constraint({"x": 1.0, "y": 1.0}, "<=", 4.0, name="cap")
        lp.add_constraint({"x": 1.0}, "<=", 10.0, name="loose")
        return lp

    def test_objective_matches_primal(self):
        dual = solve_lp_with_duals(self.make_lp())
        assert dual.objective == pytest.approx(12.0)  # x=4, y=0

    def test_binding_row_has_positive_price(self):
        dual = solve_lp_with_duals(self.make_lp())
        # Relaxing cap by 1 gains 3 (one more x).
        assert dual.shadow_price("cap") == pytest.approx(3.0)
        assert "cap" in dual.binding()

    def test_slack_row_has_zero_price(self):
        dual = solve_lp_with_duals(self.make_lp())
        assert dual.shadow_price("loose") == pytest.approx(0.0)
        assert dual.slacks["loose"] == pytest.approx(6.0)
        assert "loose" not in dual.binding()

    def test_absent_constraint_price_zero(self):
        dual = solve_lp_with_duals(self.make_lp())
        assert dual.shadow_price("nope") == 0.0

    def test_duality_gap_zero(self):
        """Strong duality: sum of duals x rhs equals the optimum for a
        problem whose optimum is supported by rows alone."""
        lp = LinearProgram(maximize=True)
        lp.add_variable("x", objective=1.0)
        lp.add_variable("y", objective=1.0)
        lp.add_constraint({"x": 1.0}, "<=", 2.0, name="r1")
        lp.add_constraint({"y": 1.0}, "<=", 3.0, name="r2")
        dual = solve_lp_with_duals(lp)
        dual_value = (dual.shadow_price("r1") * 2.0
                      + dual.shadow_price("r2") * 3.0)
        assert dual_value == pytest.approx(dual.objective)

    def test_equality_row_dual(self):
        lp = LinearProgram(maximize=True)
        lp.add_variable("x", objective=5.0)
        lp.add_constraint({"x": 1.0}, "==", 2.0, name="fix")
        dual = solve_lp_with_duals(lp)
        assert dual.objective == pytest.approx(10.0)
        assert dual.shadow_price("fix") == pytest.approx(5.0)

    def test_infeasible_raises(self):
        lp = LinearProgram(maximize=True)
        lp.add_variable("x", objective=1.0)
        lp.add_constraint({"x": 1.0}, "<=", 1.0)
        lp.add_constraint({"x": 1.0}, ">=", 2.0)
        with pytest.raises(InfeasibleProblemError):
            solve_lp_with_duals(lp)


class TestMinimization:
    def test_sign_convention(self):
        # min x s.t. x >= 3: tightening costs, dual reported for the
        # negated <= form.
        lp = LinearProgram(maximize=False)
        lp.add_variable("x", objective=1.0)
        lp.add_constraint({"x": 1.0}, ">=", 3.0, name="floor")
        dual = solve_lp_with_duals(lp)
        assert dual.objective == pytest.approx(3.0)
        assert "floor" in dual.binding()


class TestSharedEntryPoint:
    """The duals go through the same HiGHS call as ``solve_lp``; on the
    capacity-sensitivity LP they match a direct ``linprog`` call bit for
    bit."""

    @staticmethod
    def direct_duals(lp):
        """Duals from an inline ``linprog`` call, as ``solve_lp_with_duals``
        made it before it shared the backend's entry point."""
        c = lp.objective_vector()
        if lp.maximize:
            c = -c
        a_ub, b_ub, a_eq, b_eq = lp.sparse_rows()
        result = optimize.linprog(
            c, A_ub=a_ub if a_ub.shape[0] else None,
            b_ub=b_ub if b_ub.size else None,
            A_eq=a_eq if a_eq.shape[0] else None,
            b_eq=b_eq if b_eq.shape[0] else None,
            bounds=lp.bounds(), method="highs")
        sign = -1.0 if lp.maximize else 1.0
        ub_names = [con.name for con in lp.constraints
                    if con.sense in ("<=", ">=")]
        eq_names = [con.name for con in lp.constraints
                    if con.sense == "=="]
        duals, slacks = {}, {}
        for names, rows, size in ((ub_names, result.ineqlin, a_ub.size),
                                  (eq_names, result.eqlin, a_eq.size)):
            if size:
                for name, marginal, residual in zip(
                        names, rows.marginals, rows.residual):
                    duals[name] = float(sign * marginal)
                    slacks[name] = float(residual)
        return lp.objective_value(result.x), duals, slacks

    def test_sensitivity_lp_identical(self, small_instance, small_workload):
        lp, _index = build_lp_relaxation(small_instance, small_workload)
        assert any(con.name.startswith("capacity_")
                   for con in lp.constraints)
        objective, duals, slacks = self.direct_duals(lp)
        shared = solve_lp_with_duals(lp)
        assert shared.objective == objective
        assert shared.duals == duals
        assert shared.slacks == slacks
        assert list(shared.duals) == list(duals)
        assert objective == solve_lp_scipy(lp)[0]

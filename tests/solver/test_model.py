"""Unit tests for the LinearProgram model container."""

import math

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.solver.model import LinearProgram


class TestVariables:
    def test_add_and_lookup(self):
        lp = LinearProgram()
        var = lp.add_variable("x", low=0.0, high=2.0, objective=3.0)
        assert var.index == 0
        assert lp.variable("x").objective == 3.0
        assert lp.num_variables == 1

    def test_duplicate_rejected(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(ConfigurationError):
            lp.add_variable("x")

    def test_inverted_bounds_rejected(self):
        lp = LinearProgram()
        with pytest.raises(ConfigurationError):
            lp.add_variable("x", low=2.0, high=1.0)

    def test_unknown_lookup(self):
        with pytest.raises(ConfigurationError):
            LinearProgram().variable("nope")

    def test_has_integers(self):
        lp = LinearProgram()
        lp.add_variable("x")
        assert not lp.has_integers
        lp.add_variable("y", integer=True)
        assert lp.has_integers


class TestConstraints:
    def test_senses(self):
        lp = LinearProgram()
        lp.add_variable("x")
        for sense in ("<=", ">=", "=="):
            lp.add_constraint({"x": 1.0}, sense, 1.0)
        assert lp.num_constraints == 3

    def test_bad_sense(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(ConfigurationError):
            lp.add_constraint({"x": 1.0}, "<", 1.0)

    def test_unknown_variable(self):
        lp = LinearProgram()
        with pytest.raises(ConfigurationError):
            lp.add_constraint({"x": 1.0}, "<=", 1.0)

    def test_duplicate_name(self):
        lp = LinearProgram()
        lp.add_variable("x")
        lp.add_constraint({"x": 1.0}, "<=", 1.0, name="c")
        with pytest.raises(ConfigurationError):
            lp.add_constraint({"x": 1.0}, "<=", 2.0, name="c")

    def test_empty_row_trivially_ok(self):
        lp = LinearProgram()
        lp.add_variable("x")
        lp.add_constraint({"x": 0.0}, "<=", 1.0)  # all-zero coefficients

    def test_empty_row_infeasible_rejected(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(ConfigurationError):
            lp.add_constraint({"x": 0.0}, ">=", 1.0)


class TestExport:
    def test_dense_rows_shapes(self):
        lp = LinearProgram()
        lp.add_variable("x", objective=1.0)
        lp.add_variable("y", objective=2.0)
        lp.add_constraint({"x": 1.0, "y": 1.0}, "<=", 4.0)
        lp.add_constraint({"x": 1.0}, ">=", 1.0)
        lp.add_constraint({"y": 1.0}, "==", 2.0)
        a_ub, b_ub, a_eq, b_eq = lp.dense_rows()
        assert a_ub.shape == (2, 2)
        assert a_eq.shape == (1, 2)
        # >= rows are negated into <= form.
        assert a_ub[1, 0] == -1.0 and b_ub[1] == -1.0

    def test_objective_vector(self):
        lp = LinearProgram()
        lp.add_variable("x", objective=1.5)
        lp.add_variable("y", objective=-2.0)
        assert np.allclose(lp.objective_vector(), [1.5, -2.0])

    def test_bounds(self):
        lp = LinearProgram()
        lp.add_variable("x", low=1.0, high=2.0)
        lp.add_variable("y")
        assert lp.bounds() == [(1.0, 2.0), (0.0, math.inf)]

    def test_evaluate_objective(self):
        lp = LinearProgram()
        lp.add_variable("x", objective=2.0)
        lp.add_variable("y", objective=3.0)
        assert lp.evaluate_objective({"x": 1.0, "y": 2.0}) == 8.0
        assert lp.evaluate_objective({"x": 1.0}) == 2.0  # missing -> 0


class TestFeasibilityCheck:
    def test_detects_violations(self):
        lp = LinearProgram()
        lp.add_variable("x", low=0.0, high=1.0, integer=True)
        lp.add_constraint({"x": 1.0}, "<=", 0.5, name="cap")
        assert lp.check_feasible({"x": 0.0}) == []
        assert "constraint:cap" in lp.check_feasible({"x": 1.0})
        assert "bound:x" in lp.check_feasible({"x": 2.0})
        assert "integrality:x" in lp.check_feasible({"x": 0.4})

    def test_equality_violation(self):
        lp = LinearProgram()
        lp.add_variable("x")
        lp.add_constraint({"x": 1.0}, "==", 1.0, name="eq")
        assert "constraint:eq" in lp.check_feasible({"x": 0.5})
        assert lp.check_feasible({"x": 1.0}) == []

    def test_repr(self):
        lp = LinearProgram(name="demo", maximize=False)
        lp.add_variable("x", integer=True)
        text = repr(lp)
        assert "demo" in text and "ILP" in text and "min" in text


class TestNonFiniteData:
    """NaN or infinite model data is rejected where it enters the model,
    so HiGHS never sees it; only bounds may be infinite."""

    GOOD = dict(low=[0.0, 0.0], high=[1.0, 1.0], objective=[1.0, 2.0],
                data=[1.0, 1.0], rhs=[1.5])

    @pytest.fixture()
    def highs_calls(self, monkeypatch):
        import repro.solver.scipy_backend as backend

        calls = []
        real = backend._highs_wrapper

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(backend, "_highs_wrapper", spy)
        return calls

    def build_and_solve(self, **overrides):
        from repro.solver.interface import solve_lp

        arrays = dict(self.GOOD, **overrides)
        lp = LinearProgram("finite")
        lp.add_columns(arrays["low"], arrays["high"], arrays["objective"],
                       ["x0", "x1"])
        lp.add_rows([2], [0, 1], arrays["data"], "<=", arrays["rhs"],
                    ["cap"])
        return solve_lp(lp)

    def test_finite_model_reaches_highs(self, highs_calls):
        assert self.build_and_solve().objective == pytest.approx(2.5)
        assert len(highs_calls) == 1

    @pytest.mark.parametrize("array, values", [
        ("objective", [1.0, math.nan]),
        ("objective", [math.inf, 2.0]),
        ("objective", [1.0, -math.inf]),
        ("data", [math.nan, 1.0]),
        ("data", [1.0, math.inf]),
        ("data", [-math.inf, 1.0]),
        ("rhs", [math.nan]),
        ("rhs", [math.inf]),
        ("rhs", [-math.inf]),
        ("low", [math.nan, 0.0]),
        ("high", [1.0, math.nan]),
    ])
    def test_rejected_before_highs(self, highs_calls, array, values):
        with pytest.raises(ConfigurationError, match="not a finite"):
            self.build_and_solve(**{array: values})
        assert highs_calls == []

    def test_infinite_bounds_accepted(self, highs_calls):
        solution = self.build_and_solve(low=[0.0, -math.inf],
                                        high=[math.inf, 1.0])
        assert solution.objective == pytest.approx(2.5)
        assert len(highs_calls) == 1

    @pytest.mark.parametrize("kwargs", [
        dict(objective=math.nan), dict(objective=math.inf),
        dict(low=math.nan), dict(high=math.nan)])
    def test_scalar_variable_rejected(self, kwargs):
        with pytest.raises(ConfigurationError, match="non-finite"):
            LinearProgram().add_variable("x", **kwargs)

    @pytest.mark.parametrize("rhs", [math.nan, math.inf])
    def test_scalar_constraint_rejected(self, rhs):
        lp = LinearProgram()
        lp.add_variable("x", high=1.0)
        with pytest.raises(ConfigurationError, match="not a finite"):
            lp.add_constraint({"x": 1.0}, "<=", rhs)

"""Cross-validation: the from-scratch solvers agree with HiGHS.

Property-based tests generate random feasible programs and assert both
LP backends find the same optimum, and both ILP backends find the same
optimum.  This is the license to use HiGHS for the big experiment
sweeps while claiming the from-scratch solver as the reference
implementation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InfeasibleProblemError
from repro.solver.interface import solve_ilp, solve_lp
from repro.solver.model import LinearProgram


def random_lp(seed: int, n_vars: int, n_rows: int,
              integer: bool) -> LinearProgram:
    """A random bounded-feasible program (x=0 always feasible)."""
    rng = np.random.default_rng(seed)
    lp = LinearProgram(name=f"rand{seed}", maximize=True)
    for j in range(n_vars):
        lp.add_variable(f"x{j}", low=0.0,
                        high=float(rng.uniform(0.5, 3.0)),
                        objective=float(rng.uniform(-1.0, 5.0)),
                        integer=integer)
    for i in range(n_rows):
        coeffs = {f"x{j}": float(rng.uniform(0.0, 2.0))
                  for j in range(n_vars)}
        lp.add_constraint(coeffs, "<=", float(rng.uniform(1.0, 6.0)))
    return lp


class TestLpBackendsAgree:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_programs(self, seed):
        lp = random_lp(seed, n_vars=5, n_rows=4, integer=False)
        scipy_sol = solve_lp(lp, backend="scipy")
        simplex_sol = solve_lp(lp, backend="simplex")
        assert scipy_sol.objective == pytest.approx(
            simplex_sol.objective, abs=1e-6)
        assert lp.check_feasible(simplex_sol.values) == []

    def test_larger_program(self):
        lp = random_lp(99, n_vars=25, n_rows=15, integer=False)
        a = solve_lp(lp, backend="scipy").objective
        b = solve_lp(lp, backend="simplex").objective
        assert a == pytest.approx(b, abs=1e-5)


class TestIlpBackendsAgree:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_integer_programs(self, seed):
        lp = random_lp(seed, n_vars=4, n_rows=3, integer=True)
        scipy_sol = solve_ilp(lp, backend="scipy")
        bnb_sol = solve_ilp(lp, backend="bnb")
        assert scipy_sol.objective == pytest.approx(
            bnb_sol.objective, abs=1e-6)
        assert lp.check_feasible(bnb_sol.values) == []

    def test_bnb_over_simplex_oracle(self):
        lp = random_lp(7, n_vars=4, n_rows=3, integer=True)
        a = solve_ilp(lp, backend="scipy").objective
        b = solve_ilp(lp, backend="bnb", lp_backend="simplex").objective
        assert a == pytest.approx(b, abs=1e-6)


class TestPaperLpAgreement:
    def test_actual_relaxation_instance(self, small_instance,
                                        tiny_workload):
        from repro.core.lp_relaxation import build_lp_relaxation

        lp, _ = build_lp_relaxation(small_instance, tiny_workload)
        a = solve_lp(lp, backend="scipy")
        b = solve_lp(lp, backend="simplex")
        assert a.objective == pytest.approx(b.objective, rel=1e-6)

    def test_actual_ilp_rm_instance(self, small_instance, tiny_workload):
        from repro.core.ilp_rm import build_ilp_rm

        ilp, _ = build_ilp_rm(small_instance, tiny_workload)
        a = solve_ilp(ilp, backend="scipy")
        b = solve_ilp(ilp, backend="bnb")
        assert a.objective == pytest.approx(b.objective, rel=1e-6)


class TestInterface:
    def test_unknown_backends(self):
        lp = random_lp(0, 2, 1, integer=False)
        from repro.exceptions import SolverError
        with pytest.raises(SolverError):
            solve_lp(lp, backend="gurobi")
        with pytest.raises(SolverError):
            solve_ilp(lp, backend="cplex")

    def test_solution_helpers(self):
        lp = LinearProgram(maximize=True)
        lp.add_variable("x", high=1.0, objective=1.0)
        lp.add_variable("y", high=1.0, objective=0.0)
        lp.add_constraint({"x": 1.0}, "<=", 1.0)
        sol = solve_lp(lp)
        assert sol.value("x") == pytest.approx(1.0)
        assert "x" in sol.nonzero()
        assert "y" not in sol.nonzero()
        assert sol.solve_time_s >= 0.0

    def test_infeasible_propagates(self):
        lp = LinearProgram(maximize=True)
        lp.add_variable("x", objective=1.0)
        lp.add_constraint({"x": 1.0}, "<=", 1.0)
        lp.add_constraint({"x": 1.0}, ">=", 2.0)
        with pytest.raises(InfeasibleProblemError):
            solve_lp(lp, backend="scipy")
        with pytest.raises(InfeasibleProblemError):
            solve_lp(lp, backend="simplex")

    def test_solution_carries_x_and_a_lazy_name_view(self):
        lp = random_lp(3, 4, 2, integer=False)
        sol = solve_lp(lp)
        assert isinstance(sol.x, np.ndarray)
        assert sol.values == dict(zip(lp.variable_names(), sol.x.tolist()))
        assert sol.objective == sum(
            obj * val for obj, val in zip(lp.objective_vector().tolist(),
                                          sol.x.tolist()))


class TestIlpRounding:
    """HiGHS MILP values go through one array rounding, bit-identical to
    the per-variable ``float(round(v))`` it replaced - signed zero
    included (``np.round(-0.3)`` is ``-0.0``)."""

    def test_matches_python_round(self, monkeypatch):
        from scipy import optimize

        from repro.solver import scipy_backend

        raw = np.array([-0.3, 2.5, 3.5, -0.0, -0.2, 0.7, -1e-12])
        lp = LinearProgram(maximize=True)
        for j, integer in enumerate([True, True, True, True, False,
                                     True, True]):
            lp.add_variable(f"x{j}", low=-5.0, high=5.0, objective=1.0,
                            integer=integer)

        def fake_milp(c, constraints=None, bounds=None, integrality=None):
            return optimize.OptimizeResult(x=raw.copy(), success=True,
                                           status=0, message="")

        monkeypatch.setattr(scipy_backend.optimize, "milp", fake_milp)
        _obj, x = scipy_backend.solve_ilp_scipy(lp)
        expected = [float(round(v)) if var.integer else float(v)
                    for var, v in zip(lp.variables, raw.tolist())]
        assert x.tolist() == expected
        assert np.signbit(x).tolist() == np.signbit(expected).tolist()

"""The direct HiGHS call against ``linprog(method="highs")``.

:func:`~repro.solver.scipy_backend.solve_lp_scipy` hands the model to
scipy's ``_highs_wrapper`` itself.  These tests pin that HiGHS receives
the same arrays and effective options as under ``linprog`` and returns
bit-identical results, on the Fig. 3 LP and on every LP-PT of a short
DynamicRR run, and that solver failures keep their typed errors and
message text.  ``linprog`` appears here only as the reference.
"""

import numpy as np
import pytest
from scipy import optimize
from scipy.optimize import _linprog_highs
from scipy.optimize._highspy._core import HighsOptions

from repro.core.dynamic_rr import DynamicRR
from repro.core.instance import ProblemInstance
from repro.core.lp_relaxation import build_lp_relaxation
from repro.exceptions import (InfeasibleProblemError, SolverError,
                              UnboundedProblemError)
from repro.experiments.executor import ONLINE, RunSpec, execute_run
from repro.experiments.settings import base_config
from repro.solver import interface, scipy_backend
from repro.solver.interface import solve_lp
from repro.solver.model import LinearProgram

#: ``_highs_wrapper``'s positional arguments, in order.
ARGUMENTS = ("c", "indptr", "indices", "data", "lhs", "rhs", "lb", "ub",
             "integrality")


def fig3_lp() -> LinearProgram:
    """The LP relaxation at the largest Fig. 3 point (|R| = 300)."""
    instance = ProblemInstance.build(base_config(0), seed=0)
    workload = instance.new_workload(num_requests=300, seed=0)
    return build_lp_relaxation(instance, workload)[0]


def dynamic_rr_lps() -> list:
    """Every LP-PT a short seeded DynamicRR run solves."""
    solved = []

    def record(lp):
        solved.append(lp)
        return scipy_backend.solve_lp_scipy(lp)

    spec = RunSpec(mode=ONLINE, factory=DynamicRR, x=60.0, seed=0,
                   config=base_config(0), num_requests=60,
                   horizon_slots=20)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(interface, "solve_lp_scipy", record)
        execute_run(spec)
    return solved


def toy_lp() -> LinearProgram:
    """max 3x + 2y s.t. x + y <= 1.5, both in [0, 1]."""
    lp = LinearProgram(name="toy")
    lp.add_variable("x", high=1.0, objective=3.0)
    lp.add_variable("y", high=1.0, objective=2.0)
    lp.add_constraint({"x": 1.0, "y": 1.0}, "<=", 1.5, name="cap")
    return lp


@pytest.fixture(scope="module")
def programs():
    lps = [fig3_lp()] + dynamic_rr_lps()
    assert len(lps) > 10
    return lps


def reference(lp: LinearProgram) -> optimize.OptimizeResult:
    """The solve as ``linprog`` made it before the direct call."""
    c = lp.objective_vector()
    if lp.maximize:
        c = -c
    a_ub, b_ub, a_eq, b_eq = lp.sparse_rows()
    return optimize.linprog(
        c, A_ub=a_ub if a_ub.shape[0] else None,
        b_ub=b_ub if b_ub.size else None,
        A_eq=a_eq if a_eq.shape[0] else None,
        b_eq=b_eq if b_eq.size else None,
        bounds=lp.bounds(), method="highs")


def recording(calls: list, wrapper):
    """``wrapper``, also appending each call's arguments to ``calls``."""

    def call(*args):
        calls.append(args)
        return wrapper(*args)

    return call


class TestAgainstLinprog:
    def test_same_results(self, programs):
        for lp in programs:
            ref = reference(lp)
            objective, x = scipy_backend.solve_lp_scipy(lp)
            assert np.array_equal(x, ref.x), lp.name
            assert objective == lp.objective_value(ref.x), lp.name

    def test_highs_sees_the_same_model(self, programs, monkeypatch):
        wrapper = _linprog_highs._highs_wrapper
        via_linprog, direct = [], []
        monkeypatch.setattr(_linprog_highs, "_highs_wrapper",
                            recording(via_linprog, wrapper))
        monkeypatch.setattr(scipy_backend, "_highs_wrapper",
                            recording(direct, wrapper))
        for lp in programs:
            reference(lp)
            scipy_backend.solve_lp_scipy(lp)
        assert len(direct) == len(via_linprog) == len(programs)
        for mine, theirs in zip(direct, via_linprog):
            for name, a, b in zip(ARGUMENTS, mine, theirs):
                assert np.array_equal(a, b), name

    def test_left_out_options_are_highs_defaults(self, monkeypatch):
        passed = []
        monkeypatch.setattr(_linprog_highs, "_highs_wrapper",
                            recording(passed, _linprog_highs._highs_wrapper))
        reference(toy_lp())
        options = passed[0][-1]
        defaults = HighsOptions()
        assert defaults.simplex_strategy == 1
        assert defaults.highs_debug_level == 0
        for key, value in options.items():
            if key in scipy_backend._HIGHS_OPTIONS:
                assert value == scipy_backend._HIGHS_OPTIONS[key], key
            elif value is not None and key != "sense":
                assert getattr(defaults, key) == value, key

    def test_the_benchmark_shim_target_is_called(self):
        # The e2e benchmark times HiGHS by wrapping this very function
        # object wherever a repro module holds it.
        assert scipy_backend._highs_wrapper is _linprog_highs._highs_wrapper


class TestErrorPaths:
    def test_infeasible(self):
        lp = LinearProgram(name="box")
        lp.add_variable("x", high=1.0, objective=1.0)
        lp.add_constraint({"x": 1.0}, ">=", 2.0, name="floor")
        ref = reference(lp)
        assert ref.status == 2
        with pytest.raises(InfeasibleProblemError) as caught:
            solve_lp(lp, backend="scipy")
        assert str(caught.value) == f"box: {ref.message}"

    def test_unbounded(self):
        lp = LinearProgram(name="ray")
        lp.add_variable("x", objective=1.0)
        lp.add_variable("y")
        lp.add_constraint({"x": 1.0, "y": -1.0}, "<=", 1.0, name="c")
        ref = reference(lp)
        assert ref.status == 3
        with pytest.raises(UnboundedProblemError) as caught:
            solve_lp(lp, backend="scipy")
        assert str(caught.value) == f"ray: {ref.message}"

    def test_bound_violation_fails_the_post_solve_check(self, monkeypatch):
        wrapper = scipy_backend._highs_wrapper

        def off_by_1e_3(*args):
            res = wrapper(*args)
            res["x"][0] = args[7][0] + 1e-3  # past x's upper bound
            return res

        def over_the_row(*args):
            res = wrapper(*args)
            res["x"][1] += 1e-3  # y stays in [0, 1]; x + y passes 1.5
            res["slack"][0] -= 1e-3
            return res

        for fake in (off_by_1e_3, over_the_row):
            monkeypatch.setattr(scipy_backend, "_highs_wrapper", fake)
            with pytest.raises(SolverError,
                               match="status 4: The solution does not satisfy"
                               ) as caught:
                solve_lp(toy_lp(), backend="scipy")
            assert type(caught.value) is SolverError, fake.__name__

"""Phase-1 -> phase-2 hand-off on degenerate / redundant systems.

A linearly dependent equality system leaves one artificial variable
basic *at zero* after phase 1.  The fix under test drives out what it
can and drops the remaining redundant rows before building the
phase-2 tableau; previously those rows poisoned the basis and the
second phase could pivot on a zero row.
"""

import pytest

from repro.solver.model import LinearProgram
from repro.solver.simplex import solve_with_simplex


def redundant_lp() -> LinearProgram:
    """max x + 2y with a duplicated (dependent) equality row."""
    lp = LinearProgram(maximize=True)
    lp.add_variable("x", objective=1.0)
    lp.add_variable("y", objective=2.0)
    lp.add_constraint({"x": 1.0, "y": 1.0}, "==", 2.0, name="sum")
    # Exactly 2 * the first row: redundant, keeps an artificial basic
    # at zero through phase 1.
    lp.add_constraint({"x": 2.0, "y": 2.0}, "==", 4.0, name="sum2")
    lp.add_constraint({"x": 1.0}, "<=", 1.5, name="cap")
    return lp


class TestRedundantRows:
    def test_duplicated_equality_rows(self):
        lp = redundant_lp()
        obj, x = solve_with_simplex(lp)
        values = lp.values_of(x)
        # obj = x + 2(2 - x) = 4 - x, maximized at x = 0.
        assert obj == pytest.approx(4.0)
        assert values["x"] == pytest.approx(0.0)
        assert values["y"] == pytest.approx(2.0)

    def test_three_dependent_rows(self):
        # x + y == 3, 2x + 2y == 6, 3x + 3y == 9: rank 1, m = 3.
        lp = LinearProgram(maximize=True)
        lp.add_variable("x", objective=1.0)
        lp.add_variable("y", objective=1.0)
        lp.add_constraint({"x": 1.0, "y": 1.0}, "==", 3.0)
        lp.add_constraint({"x": 2.0, "y": 2.0}, "==", 6.0)
        lp.add_constraint({"x": 3.0, "y": 3.0}, "==", 9.0)
        obj, x = solve_with_simplex(lp)
        values = lp.values_of(x)
        assert obj == pytest.approx(3.0)
        assert values["x"] + values["y"] == pytest.approx(3.0)

    def test_mixed_senses_with_dependency(self):
        # The >= row is implied by the == row; optimum sits at a
        # degenerate vertex.
        lp = LinearProgram(maximize=False)
        lp.add_variable("x", objective=1.0)
        lp.add_variable("y", objective=3.0)
        lp.add_constraint({"x": 1.0, "y": 1.0}, "==", 4.0)
        lp.add_constraint({"x": 2.0, "y": 2.0}, ">=", 8.0)
        obj, x = solve_with_simplex(lp)
        values = lp.values_of(x)
        assert obj == pytest.approx(4.0)
        assert values["x"] == pytest.approx(4.0)
        assert values["y"] == pytest.approx(0.0)

    def test_agrees_with_scipy(self):
        from repro.solver.scipy_backend import solve_lp_scipy

        lp = redundant_lp()
        obj_simplex, _ = solve_with_simplex(lp)
        obj_scipy, _ = solve_lp_scipy(lp)
        assert obj_simplex == pytest.approx(obj_scipy, abs=1e-8)

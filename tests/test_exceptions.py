"""Tests for the exception hierarchy and its use across the library."""

import pytest

from repro.exceptions import (BanditError, CapacityError,
                              ConfigurationError,
                              InfeasibleProblemError, PersistenceError,
                              ReproError, SchedulingError, SolverError,
                              UnboundedProblemError)


class TestHierarchy:
    @pytest.mark.parametrize("exc", [
        ConfigurationError, InfeasibleProblemError,
        UnboundedProblemError, SolverError, CapacityError,
        SchedulingError, BanditError, PersistenceError])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        assert issubclass(exc, Exception)

    def test_single_catch_point(self):
        """Library failures are catchable with one except clause."""
        from repro.config import NetworkConfig

        with pytest.raises(ReproError):
            NetworkConfig(num_base_stations=0).validate()

    def test_solver_failures_catchable_together(self):
        from repro.solver.model import LinearProgram
        from repro.solver.simplex import solve_with_simplex

        lp = LinearProgram(maximize=True)
        lp.add_variable("x", objective=1.0)
        lp.add_constraint({"x": 1.0}, "<=", 1.0)
        lp.add_constraint({"x": 1.0}, ">=", 2.0)
        with pytest.raises(ReproError):
            solve_with_simplex(lp)

    def test_messages_carry_context(self):
        from repro.network.capacity import CapacityLedger
        from repro.config import NetworkConfig
        from repro.network.topology import generate_topology

        net = generate_topology(NetworkConfig(num_base_stations=2),
                                rng=0)
        ledger = CapacityLedger(net)
        with pytest.raises(CapacityError) as excinfo:
            ledger.reserve(7, 0, 10 ** 9)
        message = str(excinfo.value)
        assert "request 7" in message
        assert "station 0" in message

"""Unit and property tests for randomized rounding + admission."""

import numpy as np
import pytest

from repro.core.lp_relaxation import build_lp_relaxation
from repro.core.rounding import (admit_slot_by_slot, randomized_round,
                                 round_and_admit)
from repro.exceptions import ConfigurationError
from repro.solver.interface import solve_lp


@pytest.fixture()
def solved(small_instance, small_workload):
    lp, index = build_lp_relaxation(small_instance, small_workload)
    solution = solve_lp(lp)
    return index, solution


class TestRandomizedRound:
    def test_at_most_one_assignment_per_request(self, solved,
                                                small_workload):
        index, solution = solved
        assignments = randomized_round(index.options_table(solution.x),
                                       small_workload, rng=0)
        ids = [a.request_id for a in assignments]
        assert len(ids) == len(set(ids))

    def test_assignments_follow_lp_support(self, solved, small_workload):
        index, solution = solved
        table = index.options_table(solution.x)
        assignments = randomized_round(table, small_workload, rng=1)
        for a in assignments:
            assert (a.station_id, a.slot) in [
                (sid, slot) for sid, slot, _ in table[a.request_id]]

    def test_scale_reduces_assignment_rate(self, solved, small_workload):
        """Larger scale -> smaller per-request assignment probability."""
        index, solution = solved
        table = index.options_table(solution.x)
        count_small_scale = np.mean([
            len(randomized_round(table, small_workload,
                                 rng=seed, scale=1.0))
            for seed in range(30)])
        count_paper_scale = np.mean([
            len(randomized_round(table, small_workload,
                                 rng=seed, scale=4.0))
            for seed in range(30)])
        assert count_paper_scale < count_small_scale

    def test_paper_scale_near_quarter(self, solved, small_workload):
        """With scale 4 the assignment rate is ~ mass/4."""
        index, solution = solved
        table = index.options_table(solution.x)
        total_mass = sum(
            mass
            for r in small_workload
            for (_s, _l, mass) in table[r.request_id])
        counts = [len(randomized_round(table, small_workload, rng=seed,
                                       scale=4.0))
                  for seed in range(60)]
        assert np.mean(counts) == pytest.approx(total_mass / 4.0,
                                                rel=0.35)

    def test_invalid_scale(self, solved, small_workload):
        index, solution = solved
        with pytest.raises(ConfigurationError):
            randomized_round(index.options_table(solution.x),
                             small_workload, rng=0, scale=0.5)

    def test_deterministic_with_seed(self, solved, small_workload):
        index, solution = solved
        table = index.options_table(solution.x)
        a = randomized_round(table, small_workload, rng=9)
        b = randomized_round(table, small_workload, rng=9)
        assert a == b


class TestSolverTolerance:
    """One documented tolerance (MASS_TOL = 1e-9) on solver noise.

    Each case runs on :func:`randomized_round` alone and on one pass of
    :func:`round_and_admit`, the loop every algorithm rounds through.
    """

    def first_request_cols(self, index, workload):
        for request in workload:
            cols = index.ranges[request.request_id]
            if len(cols) >= 2:
                return request, cols
        raise AssertionError("no request with two columns")

    @staticmethod
    def rounded(instance, table, requests, through_loop, rng, scale=4.0):
        """``(request, station, slot)`` picked from `table`: every
        assignment, or the ones one loop pass admitted."""
        if not through_loop:
            return [(a.request_id, a.station_id, a.slot)
                    for a in randomized_round(table, requests, rng=rng,
                                              scale=scale)]
        for request in requests:
            request.reset_realization()
        admitted = round_and_admit(instance, table, requests,
                                   instance.new_ledger(), rng,
                                   scale=scale, max_rounds=1,
                                   algorithm="test")
        return [(o.request.request_id, o.assignment.station_id,
                 o.assignment.slot) for o in admitted]

    @pytest.mark.parametrize("through_loop", [False, True])
    def test_tiny_negative_entries_are_dropped(self, solved, small_instance,
                                               small_workload,
                                               through_loop):
        index, solution = solved
        noisy = solution.x.copy()
        zeros = np.flatnonzero(noisy == 0.0)
        assert zeros.size
        noisy[zeros] = -1e-12
        assert (index.options_table(noisy)
                == index.options_table(solution.x))
        picked = self.rounded(small_instance, index.options_table(noisy),
                              small_workload, through_loop, rng=4)
        assert picked
        assert picked == self.rounded(
            small_instance, index.options_table(solution.x),
            small_workload, through_loop, rng=4)

    @pytest.mark.parametrize("through_loop", [False, True])
    def test_mass_within_tolerance_is_accepted(self, solved,
                                               small_instance,
                                               small_workload,
                                               through_loop):
        index, solution = solved
        request, cols = self.first_request_cols(index, small_workload)
        x = solution.x.copy()
        x[cols.start:cols.stop] = 0.0
        x[cols.start] = 0.5
        x[cols.start + 1] = 0.5 + 5e-10
        picked = self.rounded(small_instance, index.options_table(x),
                              [request], through_loop, rng=0, scale=1.0)
        rid = request.request_id
        assert picked in (
            [(rid, int(index.station_id[cols.start]),
              int(index.slot[cols.start]))],
            [(rid, int(index.station_id[cols.start + 1]),
              int(index.slot[cols.start + 1]))])

    @pytest.mark.parametrize("through_loop", [False, True])
    @pytest.mark.parametrize("scale", [1.0, 4.0])
    def test_mass_beyond_tolerance_raises(self, solved, small_instance,
                                          small_workload, through_loop,
                                          scale):
        index, solution = solved
        request, cols = self.first_request_cols(index, small_workload)
        x = solution.x.copy()
        x[cols.start:cols.stop] = 0.0
        x[cols.start] = 0.5
        x[cols.start + 1] = 0.5 + 1e-6
        with pytest.raises(ConfigurationError, match="constraint \\(9\\)"):
            self.rounded(small_instance, index.options_table(x), [request],
                         through_loop, rng=0, scale=scale)


class TestAdmission:
    def run_admission(self, instance, workload, seed=0):
        lp, index = build_lp_relaxation(instance, workload)
        solution = solve_lp(lp)
        assignments = randomized_round(index.options_table(solution.x),
                                       workload, rng=seed, scale=1.5)
        ledger = instance.new_ledger()
        outcomes = admit_slot_by_slot(instance, workload, assignments,
                                      ledger, rng=seed)
        return outcomes, ledger

    def test_capacity_never_exceeded(self, small_instance,
                                     small_workload):
        _outcomes, ledger = self.run_admission(small_instance,
                                               small_workload)
        for sid in small_instance.network.station_ids:
            capacity = small_instance.network.station(sid).capacity_mhz
            assert ledger.occupied_mhz(sid) <= capacity + 1e-6

    def test_admitted_requests_realized(self, small_instance,
                                        small_workload):
        outcomes, _ = self.run_admission(small_instance, small_workload)
        for outcome in outcomes:
            if outcome.admitted:
                assert outcome.request.is_realized

    def test_reward_iff_demand_fits(self, small_instance,
                                    small_workload):
        """Eq. (8) semantics: reward earned exactly when the realized
        demand fully fit (reserved == demand)."""
        outcomes, _ = self.run_admission(small_instance, small_workload)
        for outcome in outcomes:
            if not outcome.admitted:
                assert outcome.reward == 0.0
                continue
            demand = outcome.request.realized_demand_mhz
            if outcome.reward > 0:
                assert outcome.reserved_mhz == pytest.approx(demand)
                assert outcome.reward == pytest.approx(
                    outcome.request.realized_reward)

    def test_prefix_rule_holds_at_admission(self, small_instance,
                                            small_workload):
        """Replaying admission: at the moment a request is admitted at
        slot l, prior occupancy was <= l * C_l."""
        lp, index = build_lp_relaxation(small_instance, small_workload)
        solution = solve_lp(lp)
        assignments = randomized_round(index.options_table(solution.x),
                                       small_workload, rng=3, scale=1.5)
        ledger = small_instance.new_ledger()
        outcomes = admit_slot_by_slot(small_instance, small_workload,
                                      assignments, ledger, rng=3)
        for outcome in outcomes:
            if outcome.admitted:
                # After admission, occupancy beyond the offset comes
                # only from this request (<= its reserved amount).
                assert outcome.reserved_mhz >= 0.0

    def test_reserve_cap(self, small_instance, small_workload):
        lp, index = build_lp_relaxation(small_instance, small_workload)
        solution = solve_lp(lp)
        assignments = randomized_round(index.options_table(solution.x),
                                       small_workload, rng=5, scale=1.5)
        ledger = small_instance.new_ledger()
        outcomes = admit_slot_by_slot(small_instance, small_workload,
                                      assignments, ledger, rng=5,
                                      reserve_cap_mhz=300.0)
        for outcome in outcomes:
            if outcome.admitted:
                assert outcome.reserved_mhz <= 300.0 + 1e-9

    def test_reject_handler_invoked(self, small_instance):
        """When a station is pre-filled, the reject hook fires."""
        workload = small_instance.new_workload(num_requests=15, seed=1)
        lp, index = build_lp_relaxation(small_instance, workload)
        solution = solve_lp(lp)
        assignments = randomized_round(index.options_table(solution.x),
                                       workload, rng=1, scale=1.0)
        ledger = small_instance.new_ledger()
        # Pre-fill every station so every prefix test fails.
        for sid in small_instance.network.station_ids:
            ledger.reserve(10_000, sid,
                           small_instance.network.station(
                               sid).capacity_mhz)
        calls = []

        def handler(request, station_id, slot, ledger_):
            calls.append((request.request_id, station_id, slot))
            return False

        outcomes = admit_slot_by_slot(small_instance, workload,
                                      assignments, ledger, rng=1,
                                      on_reject=handler)
        assert len(calls) == len(assignments)
        assert all(not o.admitted for o in outcomes)

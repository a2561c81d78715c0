"""Unit and statistical tests for the arrival processes."""

import pytest

from repro.exceptions import ConfigurationError
from repro.requests.arrivals import assign_arrival_slots, burst_arrivals


class TestBurst:
    def test_burst_window_density(self):
        slots = burst_arrivals(1000, 100, burst_start=40,
                               burst_length=10, burst_fraction=0.6,
                               rng=0)
        in_burst = sum(1 for s in slots if 40 <= s < 50)
        assert in_burst == pytest.approx(600, abs=60)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            burst_arrivals(10, 100, burst_start=95, burst_length=10)
        with pytest.raises(ConfigurationError):
            burst_arrivals(10, 100, burst_start=-1, burst_length=5)
        with pytest.raises(ConfigurationError):
            burst_arrivals(10, 100, burst_start=0, burst_length=5,
                           burst_fraction=1.5)


class TestAssign:
    def test_round_trip(self, small_instance):
        requests = small_instance.new_workload(10, seed=0)
        slots = [0, 3, 3, 7, 12, 18, 21, 30, 33, 39]
        stamped = assign_arrival_slots(requests, slots)
        assert sorted(r.arrival_slot for r in stamped) == slots
        assert {r.request_id for r in stamped} == {
            r.request_id for r in requests}
        # Distribution identity preserved.
        by_id_old = {r.request_id: r for r in requests}
        for request in stamped:
            old = by_id_old[request.request_id]
            assert request.expected_reward == pytest.approx(
                old.expected_reward)

    def test_length_mismatch(self, small_instance):
        requests = small_instance.new_workload(3, seed=0)
        with pytest.raises(ConfigurationError):
            assign_arrival_slots(requests, [0, 1])

    def test_stamped_requests_run_online(self, small_instance):
        """Burst arrivals drive the engine end to end."""
        from repro.core.dynamic_rr import DynamicRR
        from repro.sim.online_engine import OnlineEngine

        requests = small_instance.new_workload(20, seed=1)
        slots = burst_arrivals(20, 40, burst_start=10, burst_length=5,
                               rng=1)
        stamped = assign_arrival_slots(requests, slots)
        engine = OnlineEngine(small_instance, stamped,
                              horizon_slots=40, rng=1)
        result = engine.run(DynamicRR(rng=1))
        assert len(result) == 20

"""Tests for the lazy, checkpointable Poisson arrival stream."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import RequestConfig
from repro.exceptions import ConfigurationError
from repro.requests.arrivals import PoissonArrivalStream
from repro.requests.generator import RequestGenerator


def make_stream(small_instance, mean=3.0, seed=7, limit=None):
    generator = RequestGenerator(RequestConfig(), small_instance.network,
                                 rng=np.random.default_rng(seed))
    return PoissonArrivalStream(generator, mean,
                                rng=np.random.default_rng(seed + 1),
                                limit=limit)


def drain(stream, slots):
    batches = []
    for _ in range(slots):
        batches.append(stream.next_batch())
    return batches


class TestBasics:
    def test_slots_are_consecutive_from_zero(self, small_instance):
        stream = make_stream(small_instance)
        slots = [slot for slot, _ in drain(stream, 10)]
        assert slots == list(range(10))

    def test_ids_are_monotonic_and_dense(self, small_instance):
        stream = make_stream(small_instance, mean=4.0)
        ids = [r.request_id for _, batch in drain(stream, 30)
               for r in batch]
        assert ids == list(range(len(ids)))
        assert stream.emitted == len(ids)

    def test_requests_carry_their_arrival_slot(self, small_instance):
        stream = make_stream(small_instance, mean=4.0)
        for slot, batch in drain(stream, 20):
            for request in batch:
                assert request.arrival_slot == slot

    def test_same_seed_same_stream(self, small_instance):
        a = make_stream(small_instance, seed=11)
        b = make_stream(small_instance, seed=11)
        for _ in range(25):
            slot_a, batch_a = a.next_batch()
            slot_b, batch_b = b.next_batch()
            assert slot_a == slot_b
            assert [r.request_id for r in batch_a] == \
                [r.request_id for r in batch_b]
            assert [r.expected_demand_mhz for r in batch_a] == \
                [r.expected_demand_mhz for r in batch_b]


class TestLimit:
    def test_limit_caps_total_arrivals(self, small_instance):
        stream = make_stream(small_instance, mean=5.0, limit=12)
        total = sum(len(batch) for _, batch in drain(stream, 40))
        assert total == 12
        assert stream.exhausted

    def test_exhausted_stream_yields_empty_batches(self, small_instance):
        stream = make_stream(small_instance, mean=5.0, limit=3)
        drain(stream, 10)
        slot, batch = stream.next_batch()
        assert batch == []
        assert slot == 10  # slots keep counting

    def test_zero_limit_is_immediately_exhausted(self, small_instance):
        stream = make_stream(small_instance, limit=0)
        assert stream.exhausted
        _, batch = stream.next_batch()
        assert batch == []


class TestCheckpoint:
    def test_restore_replays_identical_remainder(self, small_instance):
        baseline = make_stream(small_instance, seed=3)
        drain(baseline, 15)
        state = baseline.export_state()
        tail_a = drain(baseline, 15)

        resumed = make_stream(small_instance, seed=999)  # wrong seed
        resumed.restore_state(state)
        tail_b = drain(resumed, 15)

        for (slot_a, batch_a), (slot_b, batch_b) in zip(tail_a, tail_b):
            assert slot_a == slot_b
            assert [r.request_id for r in batch_a] == \
                [r.request_id for r in batch_b]
            assert [r.expected_demand_mhz for r in batch_a] == \
                [r.expected_demand_mhz for r in batch_b]
            assert [r.serving_station for r in batch_a] == \
                [r.serving_station for r in batch_b]

    def test_export_does_not_advance_the_stream(self, small_instance):
        stream = make_stream(small_instance, seed=5)
        drain(stream, 5)
        before = stream.export_state()
        stream.export_state()
        assert stream.export_state()["next_slot"] == before["next_slot"]
        assert stream.next_slot == 5


class TestValidation:
    def test_rejects_nonpositive_mean(self, small_instance):
        with pytest.raises(ConfigurationError):
            make_stream(small_instance, mean=0.0)

    def test_rejects_negative_limit(self, small_instance):
        with pytest.raises(ConfigurationError):
            make_stream(small_instance, limit=-1)

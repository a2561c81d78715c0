"""Tests for the lazy, checkpointable Poisson arrival stream."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from repro.config import RequestConfig
from repro.exceptions import ConfigurationError
from repro.requests.arrivals import MAX_MEAN_PER_SLOT, PoissonArrivalStream
from repro.requests.generator import RequestGenerator


def make_stream(small_instance, mean=3.0, seed=7, limit=None):
    generator = RequestGenerator(RequestConfig(), small_instance.network,
                                 rng=np.random.default_rng(seed))
    return PoissonArrivalStream(generator, mean,
                                rng=np.random.default_rng(seed + 1),
                                limit=limit)


#: Room for every arrival: nothing is shed.
ALL = sys.maxsize


def drain(stream, slots):
    batches = []
    for _ in range(slots):
        slot, batch, _ = stream.next_batch(ALL)
        batches.append((slot, batch))
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
            slot_a, batch_a, _ = a.next_batch(ALL)
            slot_b, batch_b, _ = b.next_batch(ALL)
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
        slot, batch, _ = stream.next_batch(ALL)
        assert batch == []
        assert slot == 10  # slots keep counting

    def test_zero_limit_is_immediately_exhausted(self, small_instance):
        stream = make_stream(small_instance, limit=0)
        assert stream.exhausted
        _, batch, _ = stream.next_batch(ALL)
        assert batch == []


def request_fields(request):
    distribution = request.distribution
    return (request.request_id, request.serving_station,
            request.arrival_slot, len(request.pipeline),
            distribution.rewards.tobytes(), distribution.expected_rate())


class TestRoom:
    @pytest.mark.parametrize("limit", [None, 50])
    def test_room_splits_the_batch_building_everything_would_give(
            self, small_instance, limit):
        # The old ingress built the whole batch and sliced it at the
        # room; building only the kept prefix must give the same
        # requests, the same shed ids and the same stream state.
        full = make_stream(small_instance, mean=6.0, seed=21, limit=limit)
        split = make_stream(small_instance, mean=6.0, seed=21, limit=limit)
        rooms = [0, 1, 3, ALL, 2, 0, 5]
        for step in range(40):
            room = rooms[step % len(rooms)]
            slot, everything, _ = full.next_batch(ALL)
            split_slot, built, shed = split.next_batch(room)
            assert isinstance(shed, range)
            assert split_slot == slot
            assert [request_fields(r) for r in built] == \
                [request_fields(r) for r in everything[:room]]
            assert list(shed) == \
                [r.request_id for r in everything[room:]]
            assert split.export_state() == full.export_state()
        assert split.emitted == full.emitted

    def test_zero_room_builds_nothing_and_keeps_ids_dense(
            self, small_instance):
        stream = make_stream(small_instance, mean=4.0)
        ids = []
        for _ in range(10):
            _, built, shed = stream.next_batch(0)
            assert built == []
            ids += list(shed)
        assert ids == list(range(stream.emitted))


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

    @pytest.mark.parametrize("mean", [float("nan"), float("inf")])
    def test_rejects_non_finite_mean(self, small_instance, mean):
        with pytest.raises(ConfigurationError):
            make_stream(small_instance, mean=mean)

    def test_rejects_mean_above_numpy_poisson_limit(self, small_instance):
        with pytest.raises(ConfigurationError):
            make_stream(small_instance, mean=1e20)
        with pytest.raises(ConfigurationError):
            make_stream(small_instance,
                        mean=math.nextafter(MAX_MEAN_PER_SLOT, math.inf))

    def test_mean_at_numpy_poisson_limit_is_drawable(self, small_instance):
        # numpy draws at the bound itself; the limit keeps the batch to
        # three requests.
        stream = make_stream(small_instance, mean=MAX_MEAN_PER_SLOT,
                             limit=3)
        slot, built, shed = stream.next_batch(3)
        assert (slot, len(built), list(shed)) == (0, 3, [])

    def test_rejects_negative_room(self, small_instance):
        stream = make_stream(small_instance)
        with pytest.raises(ConfigurationError):
            stream.next_batch(-1)
        assert stream.next_slot == 0

    def test_rejects_negative_limit(self, small_instance):
        with pytest.raises(ConfigurationError):
            make_stream(small_instance, limit=-1)

"""A/B guard: ``LatencyModel.ranked_stations``'s memo against a frozen
per-request sort.

The ranking is sorted once per ``(serving station, compute weight)`` and
shared.  For every request of seeded workloads (the standard pipelines
and pipelines of random weights), across network sizes, it must equal
the sort the model did per request before the memo - also after
``restore_base_delays`` replaces the delays and after an
``io.save_instance``/``load_instance`` round trip.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import NetworkConfig, SimulationConfig
from repro.core.instance import ProblemInstance
from repro.io import load_instance, save_instance
from repro.requests.request import ARRequest
from repro.requests.tasks import ARTask, TaskPipeline

CONFIGS = [(3, 0), (8, 1), (20, 2), (20, 7)]


def frozen_ranked_stations(model, request):
    """The per-request sort of ``ranked_stations`` before the memo."""
    ranked = sorted(zip(model.placement_delays(request).tolist(),
                        model.network.station_ids))
    return [sid for _, sid in ranked], [delay for delay, _ in ranked]


def build(num_stations, seed):
    config = SimulationConfig(
        network=NetworkConfig(num_base_stations=num_stations),
        seed=seed).validate()
    return ProblemInstance.build(config, seed=seed)


def random_weight_requests(instance, seed, count=40):
    """Requests on pipelines of random weights: many distinct keys."""
    template = instance.new_workload(num_requests=1, seed=seed)[0]
    rng = np.random.default_rng(seed)
    ids = instance.network.station_ids
    requests = []
    for k in range(count):
        weights = rng.choice([0.5, 1.0, 1.5, 2.0], size=rng.integers(1, 4))
        pipeline = TaskPipeline([ARTask(name=f"t{i}", output_kb=10.0,
                                        compute_weight=float(w))
                                 for i, w in enumerate(weights)])
        requests.append(ARRequest(
            request_id=k, serving_station=int(rng.choice(ids)),
            pipeline=pipeline, distribution=template.distribution,
            deadline_ms=template.deadline_ms))
    return requests


def workload(instance, seed):
    return (instance.new_workload(num_requests=60, seed=seed)
            + random_weight_requests(instance, seed))


def assert_matches_frozen(model, requests):
    for request in requests:
        ids, delays = model.ranked_stations(request)
        assert isinstance(ids, tuple) and isinstance(delays, tuple)
        assert (list(ids), list(delays)) == \
            frozen_ranked_stations(model, request)


@pytest.mark.parametrize("num_stations, seed", CONFIGS)
def test_memo_equals_frozen_sort(num_stations, seed):
    instance = build(num_stations, seed)
    requests = workload(instance, seed)
    # Twice: the first pass fills the memo, the second reads it.
    assert_matches_frozen(instance.latency, requests)
    assert_matches_frozen(instance.latency, requests[::-1])


@pytest.mark.parametrize("num_stations, seed", CONFIGS[:2])
def test_requests_sharing_a_key_share_the_tuples(num_stations, seed):
    instance = build(num_stations, seed)
    model = instance.latency
    by_key = {}
    for request in instance.new_workload(num_requests=60, seed=seed):
        key = (request.serving_station,
               request.pipeline.total_compute_weight)
        ranking = model.ranked_stations(request)
        assert by_key.setdefault(key, ranking) is ranking
    assert len(by_key) < 60


@pytest.mark.parametrize("num_stations, seed", CONFIGS)
def test_memo_follows_restored_base_delays(num_stations, seed):
    instance = build(num_stations, seed)
    model = instance.latency
    requests = workload(instance, seed)
    assert_matches_frozen(model, requests)
    rng = np.random.default_rng(seed + 100)
    # Reverse the speed order, so stale rankings would be wrong.
    model.restore_base_delays({
        sid: float(rng.uniform(5.0, 15.0)) + 100.0 * k
        for k, sid in enumerate(model.network.station_ids)})
    assert_matches_frozen(model, requests)


@pytest.mark.parametrize("num_stations, seed", CONFIGS)
def test_memo_after_instance_round_trip(tmp_path, num_stations, seed):
    instance = build(num_stations, seed)
    requests = workload(instance, seed)
    assert_matches_frozen(instance.latency, requests)
    loaded = load_instance(save_instance(instance, tmp_path / "i.json"))
    assert_matches_frozen(loaded.latency, requests)
    for request in requests:
        assert loaded.latency.ranked_stations(request) == \
            instance.latency.ranked_stations(request)
        assert loaded.latency.feasible_stations(request, 30.0) == \
            instance.latency.feasible_stations(request, 30.0)

"""A/B equivalence of the Eq. (1)-(2) kernel against a scalar reference.

The latency model used to evaluate Eq. (2) one (request, station) pair
at a time: round trip from the path table plus the station's base delay
times the pipeline weight, then ``<= deadline + 1e-9`` for Eq. (1).
That scalar formula lives on here as the reference.  Every view of the
kernel - the station-order mask, ``feasible_stations`` and its order,
``is_feasible``, ``total_delay_ms`` and ``split_delay_ms`` with
migrations - must equal it exactly (``==``, not approx) on random
topologies, pipelines, deadlines and waiting times.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NetworkConfig
from repro.core.latency import LatencyModel, meets_deadline
from repro.network.paths import PathTable
from repro.network.topology import generate_topology
from repro.requests.distributions import RateRewardDistribution
from repro.requests.request import ARRequest
from repro.requests.tasks import ARTask, TaskPipeline


def ref_placement_ms(paths, base, request, station_id):
    """Eq. (2) without waiting, for one station."""
    weight = float(sum(task.compute_weight for task in request.pipeline))
    return (paths.round_trip_delay_ms(request.serving_station, station_id)
            + base[station_id] * weight)


def ref_total_ms(paths, base, request, station_id, waiting_ms):
    """Full Eq. (2) for one station."""
    return waiting_ms + ref_placement_ms(paths, base, request, station_id)


def ref_feasible(paths, base, request, station_id, waiting_ms):
    """Eq. (1) for one station."""
    return (ref_total_ms(paths, base, request, station_id, waiting_ms)
            <= request.deadline_ms + 1e-9)


def ref_split_ms(paths, base, request, primary, migrated, waiting_ms):
    """Eq. (2) with some tasks hosted off the primary station."""
    total = waiting_ms + paths.round_trip_delay_ms(request.serving_station,
                                                   primary)
    for k, task in enumerate(request.pipeline):
        host = migrated.get(k, primary)
        total += base[host] * task.compute_weight
        if host != primary:
            total += paths.round_trip_delay_ms(primary, host)
    return total


@st.composite
def scenarios(draw):
    num_stations = draw(st.integers(1, 30))
    network = generate_topology(
        NetworkConfig(num_base_stations=num_stations),
        rng=draw(st.integers(0, 2**16)))
    paths = PathTable(network)
    lo = draw(st.floats(0.0, 20.0))
    hi = lo + draw(st.floats(0.0, 20.0))
    model = LatencyModel(network, paths, proc_delay_range_ms=(lo, hi),
                         rng=draw(st.integers(0, 2**16)))
    ids = network.station_ids
    weights = draw(st.lists(st.floats(0.05, 5.0), min_size=1, max_size=6))
    pipeline = TaskPipeline([
        ARTask(name=f"task{k}", output_kb=64.0, compute_weight=w)
        for k, w in enumerate(weights)])
    serving = draw(st.sampled_from(ids))
    waiting = draw(st.one_of(st.just(0.0), st.floats(0.0, 300.0)))
    deadline = draw(st.floats(1.0, 400.0))
    if draw(st.booleans()):
        # Pin the deadline within float slack of one station's delay so
        # the Eq. (1) tolerance decides that station.
        pinned = draw(st.sampled_from(ids))
        weight = float(sum(weights))
        deadline = max(1e-3, waiting
                       + paths.round_trip_delay_ms(serving, pinned)
                       + model.base_delay_ms(pinned) * weight
                       + draw(st.sampled_from([-2e-9, -5e-10, 0.0, 5e-10])))
    request = ARRequest(
        request_id=0, serving_station=serving, pipeline=pipeline,
        distribution=RateRewardDistribution([30.0], [1.0], [450.0]),
        deadline_ms=deadline)
    primary = draw(st.sampled_from(ids))
    migrated = draw(st.dictionaries(
        st.integers(0, len(weights) - 1), st.sampled_from(ids)))
    return model, paths, request, waiting, primary, migrated


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_kernel_views_equal_scalar_reference(scenario):
    model, paths, request, waiting, primary, migrated = scenario
    ids = model.network.station_ids
    base = {sid: model.base_delay_ms(sid) for sid in ids}

    mask = meets_deadline(waiting + model.placement_delays(request),
                          request.deadline_ms)
    assert mask.tolist() == [
        ref_feasible(paths, base, request, sid, waiting) for sid in ids]

    expected = sorted(
        (sid for sid in ids
         if ref_feasible(paths, base, request, sid, waiting)),
        key=lambda sid: (ref_placement_ms(paths, base, request, sid), sid))
    assert model.feasible_stations(request, waiting) == expected

    for sid in ids:
        total = model.total_delay_ms(request, sid, waiting)
        assert type(total) is float
        assert total == ref_total_ms(paths, base, request, sid, waiting)
        placement = model.placement_delay_ms(request, sid)
        assert type(placement) is float
        assert placement == ref_placement_ms(paths, base, request, sid)
        assert model.is_feasible(request, sid, waiting) == ref_feasible(
            paths, base, request, sid, waiting)

    split = model.split_delay_ms(request, primary, migrated, waiting)
    assert type(split) is float
    assert split == ref_split_ms(paths, base, request, primary, migrated,
                                 waiting)


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_waiting_keeps_a_prefix_of_the_zero_wait_order(scenario):
    """Greedy and OCORP read the head of ``feasible_stations`` at the
    current wait; that equals filtering the zero-wait order."""
    model, _paths, request, waiting, _primary, _migrated = scenario
    now = model.feasible_stations(request, waiting)
    assert now == model.feasible_stations(request)[:len(now)]

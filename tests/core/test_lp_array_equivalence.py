"""A/B equivalence of the array LP builder against the frozen named one.

``named_lp_oracle`` keeps the string-named builder the array build
replaced.  On random configs - 1-30 stations, varied capacities and
slot sizes (stations with no slot included), 1-8 rate levels, random
waiting times, deadlines tight enough that some requests have no
feasible station, and 0-40 requests - both builders must hand HiGHS
byte-for-byte the same problem: CSR arrays, right-hand sides,
objective and bounds, plus the same variable and constraint names.
On the HiGHS solution, ``options_table`` must equal the old name-keyed
one.  The same holds when one build mixes rate grids of different
sizes, and over a sequence of LP-PT builds on one instance whose
|R_t| rises and falls, so the per-count tables are both built and
reused.
"""

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from named_lp_oracle import build_named_lp_pt, build_named_lp_relaxation

from repro.config import NetworkConfig, RequestConfig, SimulationConfig
from repro.core.instance import ProblemInstance
from repro.core.lp_relaxation import build_lp_pt, build_lp_relaxation
from repro.requests.distributions import RateGrid, RateRewardDistribution
from repro.solver.interface import solve_lp

BUILDERS = {"lp": (build_lp_relaxation, build_named_lp_relaxation),
            "lp_pt": (build_lp_pt, build_named_lp_pt)}


@st.composite
def cases(draw):
    num_stations = draw(st.integers(1, 30))
    cap_lo = draw(st.floats(200.0, 4000.0))
    cap_hi = cap_lo + draw(st.floats(0.0, 3000.0))
    slot = cap_hi * draw(st.floats(0.08, 1.0))
    rate_lo = draw(st.floats(5.0, 60.0))
    rate_hi = rate_lo + draw(st.floats(1.0, 40.0))
    num_requests = draw(st.integers(0, 40))
    seed = draw(st.integers(0, 2**16))
    config = SimulationConfig(
        network=NetworkConfig(num_base_stations=num_stations,
                              capacity_range_mhz=(cap_lo, cap_hi),
                              slot_size_mhz=slot),
        requests=RequestConfig(
            num_requests=max(num_requests, 1),
            data_rate_range_mbps=(rate_lo, rate_hi),
            num_rate_levels=draw(st.integers(1, 8)),
            c_unit_mhz_per_mbps=draw(st.sampled_from([10.0, 20.0, 35.0])),
            deadline_ms=draw(st.floats(15.0, 250.0))),
        seed=seed).validate()
    instance = ProblemInstance.build(config, seed=seed)
    requests = (instance.new_workload(num_requests=num_requests, seed=seed)
                if num_requests else [])
    waiting = {r.request_id: draw(st.one_of(st.just(0.0),
                                            st.floats(0.0, 150.0)))
               for r in requests}
    return instance, requests, waiting


def exported(lp):
    """Every array HiGHS sees, as ``(dtype, shape, bytes)``."""
    a_ub, b_ub, a_eq, b_eq = lp.sparse_rows()
    arrays = (a_ub.indptr, a_ub.indices, a_ub.data, b_ub,
              a_eq.indptr, a_eq.indices, a_eq.data, b_eq,
              lp.objective_vector(), np.asarray(lp.bounds(), dtype=float))
    return [(arr.dtype.str, arr.shape, np.ascontiguousarray(arr).tobytes())
            for arr in arrays]


@settings(max_examples=60, deadline=None)
@given(case=cases(), kind=st.sampled_from(sorted(BUILDERS)))
def test_array_build_matches_named_build(case, kind):
    instance, requests, waiting = case
    build, build_named = BUILDERS[kind]
    lp, index = build(instance, requests, waiting)
    old, old_index = build_named(instance, requests, waiting)
    assert exported(lp) == exported(old)
    assert lp.variable_names() == old.variable_names()
    assert [c.name for c in lp.constraints] == old.constraint_names()
    assert list(index.ranges) == list(old_index.by_request)
    if lp.num_variables:
        solution = solve_lp(lp)
        named = dict(zip(old.variable_names(), solution.x.tolist()))
        assert index.options_table(solution.x) == \
            old_index.options_table(named)


@settings(max_examples=40, deadline=None)
@given(case=cases(), kind=st.sampled_from(sorted(BUILDERS)))
def test_mixed_rate_grids_match_named_build(case, kind):
    """``E[min(rho, c)]`` is computed once per distinct rate grid.  Here
    the requests mix the generator's grid, a second shared grid, and
    distributions copied on their own, as a separately unpickled
    request's would be.  The named build computes every expectation per
    request, and the two must still hand HiGHS the same problem."""
    instance, requests, waiting = case
    build, build_named = BUILDERS[kind]
    mixed, other = [], None
    for k, request in enumerate(requests):
        if k % 3:
            request = copy.deepcopy(request)
        if k % 3 == 1:
            dist = request.distribution
            if other is None:
                other = RateGrid(dist.rates_mbps * 0.7, dist.probabilities)
            request.distribution = RateRewardDistribution.on_grid(
                other, dist.rewards.copy())
        mixed.append(request)
    keys = {r.distribution.support_key for r in mixed}
    assert len(keys) == (min(len(mixed), 1) + (len(mixed) > 1)
                         + len(mixed[2::3]))
    lp, index = build(instance, mixed, waiting)
    old, old_index = build_named(instance, mixed, waiting)
    assert exported(lp) == exported(old)
    assert list(index.ranges) == list(old_index.by_request)


def on_second_grid(requests, every=2):
    """`requests`, with every `every`-th one redrawn on one shared second
    :class:`RateGrid` that has two more levels than the first."""
    grid, out = None, []
    for k, request in enumerate(requests):
        if k % every == 1:
            dist = request.distribution
            if grid is None:
                grid = RateGrid.decaying(
                    (dist.min_rate_mbps * 0.5, dist.max_rate_mbps * 1.2),
                    dist.num_levels + 2, 0.8)
            request = copy.deepcopy(request)
            request.distribution = RateRewardDistribution.on_grid(
                grid, np.linspace(1.0, 9.0, grid.rates.size))
        out.append(request)
    return out


@settings(max_examples=40, deadline=None)
@given(case=cases(), kind=st.sampled_from(sorted(BUILDERS)))
def test_two_rate_grids_of_different_sizes_match_named_build(case, kind):
    """One R_t drawn on two RateGrids with different level counts: the
    reward prefixes of the shorter support are padded, and each grid
    keeps its own fitting counts and truncated rates."""
    instance, requests, waiting = case
    build, build_named = BUILDERS[kind]
    mixed = on_second_grid(requests)
    if len(mixed) > 1:
        assert len({r.distribution.num_levels for r in mixed}) == 2
    lp, index = build(instance, mixed, waiting)
    old, old_index = build_named(instance, mixed, waiting)
    assert exported(lp) == exported(old)
    assert [c.name for c in lp.constraints] == old.constraint_names()
    assert list(index.ranges) == list(old_index.by_request)


@settings(max_examples=25, deadline=None)
@given(case=cases(),
       counts=st.lists(st.integers(0, 12), min_size=2, max_size=6))
def test_lp_pt_builds_with_rising_and_falling_counts(case, counts):
    """DynamicRR builds one LP-PT per slot on one instance, and |R_t|
    goes up and down.  What depends on the instance and |R_t| alone is
    built at the first build of each count and read by later ones;
    every build, whether it builds or reads those tables, must equal
    the named build.  Odd rounds mix in a second grid, so one count's
    tables also serve two supports."""
    instance, requests, waiting = case
    seen = set()
    for round_, count in enumerate(counts + counts[::-1]):
        r_t = requests[round_ % 3:][:count]
        if round_ % 2:
            r_t = on_second_grid(r_t)
        lp, index = build_lp_pt(instance, r_t, waiting)
        old, old_index = build_named_lp_pt(instance, r_t, waiting)
        assert exported(lp) == exported(old), (round_, len(r_t))
        assert list(index.ranges) == list(old_index.by_request)
        seen.add(max(len(r_t), 1))
    assert sorted(key for key in instance._derived
                  if key.startswith("lp_count_tables_")) == \
        sorted(f"lp_count_tables_{count}" for count in seen)


def test_some_cases_prune_every_station(small_instance, small_workload):
    """Tight deadlines leave requests with no column and no choice row."""
    waiting = {r.request_id: 1e4 for r in small_workload[:3]}
    lp, index = build_lp_pt(small_instance, small_workload[:6], waiting)
    old, _ = build_named_lp_pt(small_instance, small_workload[:6], waiting)
    assert [len(index.ranges[r.request_id])
            for r in small_workload[:3]] == [0, 0, 0]
    assert exported(lp) == exported(old)
    assert [c.name for c in lp.constraints] == old.constraint_names()

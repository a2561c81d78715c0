"""A/B guard: the array-native slot path against the code it replaced.

Each DynamicRR slot (and each Appro/Heu batch) solves an LP, rounds it
with the ``y/4`` rule and admits slot by slot.  The rewritten path
rounds with one block draw, visits only the ``(slot, station)`` keys
that have candidates, gives each serving station its round-robin share
once per slot, and seeds DynamicRR's ledger from one station snapshot.
The frozen copies below are the code before that rewrite.  Swapped in
for the live code, they must produce the same outcomes, ledgers,
generator states and journal bytes:

* on every LP-PT of a seeded DynamicRR run, call by call;
* on the Fig. 3 LP (Appro, |R| = 300);
* on a Heu run that migrates (its ``on_reject`` hook);
* on a DynamicRR run with an injected outage.

The error for an LP mass above ``1 + MASS_TOL`` must not change either.
"""

from __future__ import annotations

import copy
import json
from contextlib import contextmanager

import numpy as np
import pytest

from repro.config import (NetworkConfig, OnlineConfig, RequestConfig,
                          SimulationConfig)
from repro.core import dynamic_rr, rounding
from repro.core.appro import Appro
from repro.core.assignment import SlotAssignment
from repro.core.dynamic_rr import DynamicRR
from repro.core.heu import Heu
from repro.core.instance import ProblemInstance
from repro.core.lp_relaxation import MASS_TOL
from repro.exceptions import ConfigurationError
from repro.experiments.settings import base_config
from repro.network.capacity import ResourceSlots
from repro.rng import ensure_rng
from repro.sim.events import EventKind
from repro.sim.online_engine import OnlineEngine
from repro.telemetry import Journal, use_journal
from repro.telemetry.audit import emit


# ----------------------------------------------------------------------
# Frozen copies of the replaced code
# ----------------------------------------------------------------------
def frozen_randomized_round(options_table, requests, rng=None,
                            scale=rounding.DEFAULT_ROUNDING_SCALE):
    if scale < 1.0:
        raise ConfigurationError(
            f"rounding scale must be >= 1 (probabilities must not exceed "
            f"the LP mass), got {scale}")
    rng = ensure_rng(rng)
    assignments = []
    for request in requests:
        options = options_table.get(request.request_id, ())
        if not options:
            continue
        total_mass = sum(mass for _, _, mass in options)
        if total_mass > 1.0 + MASS_TOL:
            raise ConfigurationError(
                f"request {request.request_id} has LP mass "
                f"{total_mass!r} > 1; constraint (9) violated upstream")
        draw = rng.random()
        cumulative = 0.0
        for station_id, slot, mass in options:
            cumulative += mass / scale
            if draw < cumulative:
                assignments.append(SlotAssignment(
                    request_id=request.request_id,
                    station_id=station_id, slot=slot))
                break
    return assignments


def frozen_prefix_open(ledger, station_id, slot):
    slots = ResourceSlots(
        capacity_mhz=ledger.network.station(station_id).capacity_mhz,
        slot_size_mhz=ledger.network.slot_size_mhz)
    return ledger.occupied_mhz(station_id) <= (
        slots.slot_offset_mhz(slot) + 1e-9)


def frozen_admit_slot_by_slot(instance, requests, assignments, ledger,
                              rng=None, on_reject=None,
                              reserve_cap_mhz=None):
    request_by_id = {r.request_id: r for r in requests}
    by_station_slot = {}
    for assignment in assignments:
        key = (assignment.station_id, assignment.slot)
        by_station_slot.setdefault(key, []).append(assignment)
    outcomes = []
    for slot in range(instance.max_num_slots()):
        for station_id in instance.network.station_ids:
            candidates = by_station_slot.get((station_id, slot), [])
            candidates.sort(key=lambda a: (
                request_by_id[a.request_id].expected_rate_mbps,
                a.request_id))
            for assignment in candidates:
                request = request_by_id[assignment.request_id]
                outcome = rounding.AdmissionOutcome(request=request,
                                                    assignment=assignment)
                outcomes.append(outcome)
                open_now = frozen_prefix_open(ledger, station_id, slot)
                attempts = 0
                while (not open_now and on_reject is not None
                       and attempts < 10):
                    if not on_reject(request, station_id, slot, ledger):
                        break
                    attempts += 1
                    open_now = frozen_prefix_open(ledger, station_id, slot)
                if not open_now:
                    emit(EventKind.REJECT_ROUNDING, slot,
                         request_id=request.request_id,
                         station_id=station_id)
                    continue
                reserved, outcome.reward = rounding.settle(
                    request, station_id, ledger, rng, reserve_cap_mhz)
                outcome.admitted = True
                outcome.reserved_mhz = reserved
                committed = reserve_cap_mhz is None
                emit(EventKind.ADMIT, slot, request_id=request.request_id,
                     station_id=station_id, reward=outcome.reward,
                     reserved_mhz=reserved if committed else None,
                     share_mhz=None if committed else reserved)
    return outcomes


def frozen_progress(engine, t):
    for active in engine._active.values():
        capacity = engine.station_capacity_mhz(active.station_id)
        fair = capacity / engine.active_count(active.station_id)
        share = min(active.demand_mhz, fair)
        if active.first_share_mhz is None:
            active.first_share_mhz = share
        processed_mb = (share / engine.instance.c_unit
                        * engine.clock.slot_length_s)
        active.remaining_mb -= processed_mb


def frozen_seeded_ledger(policy, engine, threshold_mhz):
    ledger = engine.instance.new_ledger()
    sentinel = 10 ** 9
    for sid in engine.instance.network.station_ids:
        capacity = engine.instance.network.station(sid).capacity_mhz
        if getattr(engine, "is_down", None) and engine.is_down(sid):
            ledger.reserve(sentinel, sid, capacity)
            continue
        count = engine.active_count(sid)
        reserved = min(count * threshold_mhz, capacity)
        if reserved > 0:
            ledger.reserve(sentinel, sid, reserved)
    return ledger


@contextmanager
def frozen_paths():
    """Swap every frozen copy in for the code it replaced."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rounding, "randomized_round", frozen_randomized_round)
        patch.setattr(rounding, "admit_slot_by_slot",
                      frozen_admit_slot_by_slot)
        patch.setattr(OnlineEngine, "_progress", frozen_progress)
        patch.setattr(DynamicRR, "_seeded_ledger", frozen_seeded_ledger)
        yield


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def journal_bytes(journal):
    return "".join(json.dumps(event, sort_keys=True) + "\n"
                   for event in journal.events()).encode("utf-8")


def ledger_state(ledger):
    """Per-station occupancy and every (request, station) holding."""
    return ledger.snapshot(), dict(ledger._holdings)


def outcome_rows(outcomes):
    return [(o.request.request_id, o.assignment, o.admitted, o.reward,
             o.reserved_mhz) for o in outcomes]


def decision_rows(result):
    return sorted(result.decisions.items())


def online_run(instance, workload, horizon, outages=None):
    """Journal, decisions and both generator states of one DynamicRR run."""
    journal = Journal()
    policy = DynamicRR(rng=7)
    engine = OnlineEngine(instance, copy.deepcopy(workload),
                          horizon_slots=horizon, rng=7, outages=outages)
    with use_journal(journal):
        result = engine.run(policy)
    return (journal_bytes(journal), decision_rows(result),
            policy._rng.bit_generator.state, engine._rng.bit_generator.state)


def offline_run(algorithm, instance, workload):
    """Journal, decisions and generator state of one batch run."""
    journal = Journal()
    rng = np.random.default_rng(11)
    with use_journal(journal):
        result = algorithm.run(instance, copy.deepcopy(workload), rng=rng)
    return (journal_bytes(journal), decision_rows(result),
            rng.bit_generator.state)


@pytest.fixture(scope="module")
def fig_instance():
    return ProblemInstance.build(base_config(0), seed=0)


# ----------------------------------------------------------------------
# Call by call: every LP-PT of a seeded DynamicRR run
# ----------------------------------------------------------------------
def captured_lp_pt_calls(instance, workload, horizon):
    """Each DynamicRR ``round_and_admit`` call, with copies of its inputs
    taken before it ran."""
    calls = []
    live = rounding.round_and_admit

    def record(instance, options_table, requests, ledger, rng, **kwargs):
        calls.append(copy.deepcopy((options_table, list(requests), ledger,
                                    rng, kwargs)))
        return live(instance, options_table, requests, ledger, rng,
                    **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamic_rr, "round_and_admit", record)
        OnlineEngine(instance, copy.deepcopy(workload),
                     horizon_slots=horizon, rng=3).run(DynamicRR(rng=3))
    return calls


def replay(instance, call):
    options_table, requests, ledger, rng, kwargs = copy.deepcopy(call)
    journal = Journal()
    with use_journal(journal):
        admitted = rounding.round_and_admit(instance, options_table,
                                            requests, ledger, rng, **kwargs)
    return (outcome_rows(admitted), ledger_state(ledger),
            rng.bit_generator.state, journal_bytes(journal))


def test_every_lp_pt_rounds_and_admits_alike(fig_instance):
    workload = fig_instance.new_workload(num_requests=80, seed=0,
                                         horizon_slots=25)
    calls = captured_lp_pt_calls(fig_instance, workload, 25)
    assert len(calls) >= 15
    admitted = 0
    for call in calls:
        new = replay(fig_instance, call)
        with frozen_paths():
            old = replay(fig_instance, call)
        assert new == old
        admitted += len(new[0])
    assert admitted > 0


def test_one_pass_outcomes_and_rejections_match(fig_instance):
    """A single pass, rejected candidates included."""
    workload = fig_instance.new_workload(num_requests=80, seed=1,
                                         horizon_slots=25)
    calls = captured_lp_pt_calls(fig_instance, workload, 25)
    rejected = 0
    for call in calls:
        results = []
        for round_, admit in ((rounding.randomized_round,
                               rounding.admit_slot_by_slot),
                              (frozen_randomized_round,
                               frozen_admit_slot_by_slot)):
            options_table, requests, ledger, rng, kwargs = \
                copy.deepcopy(call)
            journal = Journal()
            with use_journal(journal):
                assignments = round_(options_table, requests, rng=rng,
                                     scale=kwargs["scale"])
                outcomes = admit(fig_instance, requests, assignments,
                                 ledger, rng=rng,
                                 reserve_cap_mhz=kwargs["reserve_cap_mhz"])
            rejected += sum(not o.admitted for o in outcomes)
            results.append((assignments, outcome_rows(outcomes),
                            ledger_state(ledger), rng.bit_generator.state,
                            journal_bytes(journal)))
        assert results[0] == results[1]
    assert rejected > 0


# ----------------------------------------------------------------------
# Whole runs
# ----------------------------------------------------------------------
def test_fig3_lp_appro_run_matches(fig_instance):
    workload = fig_instance.new_workload(num_requests=300, seed=0)
    new = offline_run(Appro(), fig_instance, workload)
    with frozen_paths():
        old = offline_run(Appro(), fig_instance, workload)
    assert new == old


def test_heu_run_with_migrations_matches(small_instance):
    workload = small_instance.new_workload(60, seed=0)
    heu = Heu()
    new = offline_run(heu, small_instance, workload)
    assert heu.last_num_migrations >= 5
    frozen_heu = Heu()
    with frozen_paths():
        old = offline_run(frozen_heu, small_instance, workload)
    assert frozen_heu.last_num_migrations == heu.last_num_migrations
    assert new == old


def test_dynamic_rr_run_matches(fig_instance):
    workload = fig_instance.new_workload(num_requests=80, seed=2,
                                         horizon_slots=25)
    new = online_run(fig_instance, workload, 25)
    with frozen_paths():
        old = online_run(fig_instance, workload, 25)
    assert new == old


def busiest_station(journal, first, last):
    """The station that starts the most streams in slots first..last."""
    starts = {}
    for line in journal.decode().splitlines():
        event = json.loads(line)
        if event["kind"] == "start" and first <= event["slot"] <= last:
            starts[event["station"]] = starts.get(event["station"],
                                                     0) + 1
    return max(sorted(starts), key=starts.get)


def test_dynamic_rr_run_with_outage_matches():
    """The outage hits a station while it serves streams: their
    round-robin share drops to 0 mid-stream, which delays their
    completions (streams last 6 slots here, so they complete in the
    horizon)."""
    config = SimulationConfig(
        network=NetworkConfig(num_base_stations=8),
        requests=RequestConfig(num_requests=60, stream_duration_slots=6),
        online=OnlineConfig(horizon_slots=40), seed=1234).validate()
    instance = ProblemInstance.build(config, seed=1234)
    workload = instance.new_workload(num_requests=60, seed=3,
                                     horizon_slots=40)
    plain = online_run(instance, workload, 40)
    outages = {busiest_station(plain[0], 8, 10): (11, 20)}
    new = online_run(instance, workload, 40, outages)
    assert new != plain
    with frozen_paths():
        old = online_run(instance, workload, 40, outages)
    assert new == old


def test_seeded_ledger_matches_the_frozen_scan(small_instance):
    """Checked at every slot of an outage run, not only by its outcome."""
    workload = small_instance.new_workload(num_requests=60, seed=4,
                                           horizon_slots=40)
    live = DynamicRR._seeded_ledger
    checked = []

    def both(policy, engine, threshold_mhz):
        ledger = live(policy, engine, threshold_mhz)
        frozen = frozen_seeded_ledger(policy, engine, threshold_mhz)
        assert ledger_state(ledger) == ledger_state(frozen)
        checked.append(engine.clock.current_slot)
        return ledger

    sid = small_instance.network.station_ids[-1]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DynamicRR, "_seeded_ledger", both)
        OnlineEngine(small_instance, workload, horizon_slots=40, rng=5,
                     outages={sid: (0, 12)}).run(DynamicRR(rng=5))
    assert len(checked) >= 10


# ----------------------------------------------------------------------
# Errors
# ----------------------------------------------------------------------
def test_mass_above_one_raises_the_same_error(small_instance):
    requests = small_instance.new_workload(3, seed=0)
    ids = [r.request_id for r in requests]
    table = {ids[0]: [(0, 0, 0.5)],
             ids[1]: [(0, 0, 0.7), (1, 0, 0.3 + 2 * MASS_TOL)],
             ids[2]: [(0, 0, 0.2)]}
    errors = []
    for round_ in (rounding.randomized_round, frozen_randomized_round):
        with pytest.raises(ConfigurationError) as caught:
            round_(table, requests, rng=np.random.default_rng(0))
        errors.append(str(caught.value))
    assert errors[0] == errors[1]
    assert f"request {ids[1]} has LP mass" in errors[0]


def test_mass_within_tolerance_is_rounded_alike(small_instance):
    requests = small_instance.new_workload(3, seed=0)
    ids = [r.request_id for r in requests]
    table = {ids[0]: [(0, 0, 0.5)],
             ids[1]: [(0, 0, 0.7), (1, 0, 0.3 + MASS_TOL / 2)],
             ids[2]: []}
    results = []
    for round_ in (rounding.randomized_round, frozen_randomized_round):
        rng = np.random.default_rng(0)
        results.append((round_(table, requests, rng=rng, scale=1.0),
                        rng.bit_generator.state))
    assert results[0] == results[1]

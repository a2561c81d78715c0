"""One slot count ``L = floor(C / C_l)`` for the LP and the ledger.

The LP's columns come from ``BaseStation.num_slots`` and the ledger's
prefix test from ``ResourceSlots.num_slots``.  They once used
``floor(C / C_l)`` and ``C // C_l``, which differ when the decimal
quotient is whole but the binary one falls just short of it: with
``C = 1834.2`` and ``C_l = 203.8`` the LP had 9 slots and the ledger 8,
so a request rounded onto slot 8 failed with "slot index 8 out of
range".  Both now derive from :func:`~repro.network.topology.slot_count`.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (NetworkConfig, OnlineConfig, RequestConfig,
                          SimulationConfig)
from repro.core.appro import Appro
from repro.core.dynamic_rr import DynamicRR
from repro.core.heu import Heu
from repro.core.instance import ProblemInstance
from repro.core.lp_relaxation import build_lp_relaxation
from repro.exceptions import ConfigurationError
from repro.network.capacity import ResourceSlots
from repro.network.topology import BaseStation, slot_count
from repro.sim.engine import run_offline
from repro.sim.online_engine import OnlineEngine

CAPACITY, SLOT = 1834.2, 203.8


def test_the_two_floors_differ_here():
    # The case the fix is about: floor division loses the last slot.
    assert CAPACITY // SLOT == 8.0
    assert math.floor(CAPACITY / SLOT) == 9


@pytest.fixture(scope="module")
def tight_instance():
    """Every station has C = 1834.2 MHz in slots of 203.8 MHz, and
    demands (4 MHz per MB/s) small enough for the deepest slot."""
    config = SimulationConfig(
        network=NetworkConfig(num_base_stations=2,
                              capacity_range_mhz=(CAPACITY, CAPACITY),
                              slot_size_mhz=SLOT),
        requests=RequestConfig(num_requests=40, c_unit_mhz_per_mbps=4.0),
        online=OnlineConfig(horizon_slots=20),
        seed=0).validate()
    return ProblemInstance.build(config, seed=0)


def test_lp_and_ledger_agree_on_every_slot(tight_instance):
    network = tight_instance.network
    ledger = tight_instance.new_ledger()
    for sid in network.station_ids:
        assert network.num_slots(sid) == 9
        assert tight_instance.slots_of(sid).num_slots == 9
        for slot in range(9):
            assert ledger.prefix_open(sid, slot)
            tight_instance.slots_of(sid).remaining_after_mhz(slot)
        with pytest.raises(ConfigurationError, match="out of range"):
            ledger.prefix_open(sid, 9)
    workload = tight_instance.new_workload(num_requests=40, seed=0)
    _lp, index = build_lp_relaxation(tight_instance, workload)
    assert int(index.slot.max()) == 8


@pytest.mark.parametrize("algorithm", [Appro, Heu])
def test_batch_algorithms_run(tight_instance, algorithm):
    workload = tight_instance.new_workload(num_requests=40, seed=0)
    result = run_offline(algorithm(), tight_instance, workload, seed=0)
    assert result.num_admitted > 0


def test_dynamic_rr_runs(tight_instance):
    workload = tight_instance.new_workload(num_requests=40, seed=0,
                                           horizon_slots=20)
    result = OnlineEngine(tight_instance, workload, horizon_slots=20,
                          rng=0).run(DynamicRR(rng=0))
    assert result.num_admitted > 0


@settings(max_examples=300, deadline=None)
@given(capacity=st.floats(min_value=1.0, max_value=1e5,
                          allow_nan=False, allow_infinity=False),
       slot=st.floats(min_value=0.5, max_value=1e3,
                      allow_nan=False, allow_infinity=False))
def test_station_and_slot_views_agree(capacity, slot):
    station = BaseStation(station_id=0, capacity_mhz=capacity)
    slots = ResourceSlots(capacity_mhz=capacity, slot_size_mhz=slot)
    assert station.num_slots(slot) == slots.num_slots \
        == slot_count(capacity, slot) == math.floor(capacity / slot)


@settings(max_examples=100, deadline=None)
@given(whole=st.integers(min_value=1, max_value=60),
       slot=st.decimals(min_value="0.1", max_value="999.9", places=1))
def test_whole_decimal_multiples_keep_every_slot(whole, slot):
    """``C = k * C_l`` in decimal gives k slots in both views."""
    capacity = float(whole * slot)
    slots = ResourceSlots(capacity_mhz=capacity, slot_size_mhz=float(slot))
    assert slots.num_slots == BaseStation(0, capacity).num_slots(float(slot))
    assert slots.num_slots in (whole - 1, whole, whole + 1)

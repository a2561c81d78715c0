"""A/B guard: the service's tallies as registry views against the
private dict they replaced.

The admission service used to count every tally twice: once in its
metrics registry and once in a private ``counters`` dict that each tick
updated from the slot's outcome (``_account``) and a checkpoint carried
beside the registry state.  The frozen copy below is that dict and that
update, fed the same :class:`SlotOutcome` and ingress counts each tick.
After every tick, ``service.counters``, ``status()["counters"]`` and the
:class:`SlotReport` totals must equal it bit for bit - for every policy,
across a kill/resume at a random slot (the frozen side restarts from the
tallies it held at the checkpoint, as the old checkpoint's ``counters``
field restored them), and on a run the horizon cuts short.  On that run
``close()`` journals a DROP for each request still pending, which the
registry has always counted and the private dict never did: there, and
only after ``close()``, ``dropped`` is ahead by exactly those DROPs.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np
import pytest

from repro.service import AdmissionService
from repro.sim.events import EventKind
from repro.telemetry.export import read_jsonl

#: The private dict's keys, in its reporting order.
FROZEN_KEYS = ("arrivals", "accepted", "shed", "deferred", "started",
               "completed", "dropped", "reward", "slots")

POLICIES = ("greedy", "dynamicrr", "random")


class FrozenTallies:
    """The old private counters and their per-tick update."""

    def __init__(self, counters: Optional[Dict[str, float]] = None) -> None:
        self.counters = (dict(counters) if counters is not None
                         else {key: 0.0 for key in FROZEN_KEYS})

    def account(self, report) -> None:
        outcome, num_shed = report.outcome, report.num_shed
        counters = self.counters
        counters["arrivals"] += outcome.num_arrivals + num_shed
        counters["accepted"] += outcome.num_arrivals
        counters["shed"] += num_shed
        counters["deferred"] += report.num_deferred
        counters["started"] += outcome.num_started
        counters["completed"] += outcome.num_completed
        counters["dropped"] += outcome.num_dropped
        counters["reward"] += outcome.slot_reward
        counters["slots"] += 1


def assert_views_equal(service, report, frozen: FrozenTallies) -> None:
    expected = frozen.counters
    assert list(service.counters.items()) == list(expected.items())
    assert service.status()["counters"] == expected
    assert (report.admitted_total, report.deferred_total,
            report.shed_total, report.dropped_total) == tuple(
        int(expected[key])
        for key in ("accepted", "deferred", "shed", "dropped"))


def tick_checked(service, frozen: FrozenTallies, kill_slot=None,
                 at_checkpoint=None):
    """Tick to drain (or past ``kill_slot``), checking every tick;
    record the frozen tallies at each checkpoint."""
    while not service.done:
        report = service.tick()
        frozen.account(report)
        assert_views_equal(service, report, frozen)
        if report.checkpointed and at_checkpoint is not None:
            at_checkpoint[report.outcome.slot] = dict(frozen.counters)
        if kill_slot is not None and report.outcome.slot >= kill_slot:
            return


@pytest.mark.parametrize("policy", POLICIES)
def test_views_equal_the_private_dict_every_tick(make_service_config,
                                                 policy):
    service = AdmissionService(make_service_config(
        policy=policy, queue_limit=8, mean_arrivals_per_slot=6.0))
    frozen = FrozenTallies()
    tick_checked(service, frozen)
    service.close()  # drained: nothing left to finalize
    assert service.counters == frozen.counters
    assert frozen.counters["shed"] > 0 and frozen.counters["dropped"] > 0
    assert frozen.counters["reward"] > 0


@pytest.mark.parametrize("policy", POLICIES)
def test_views_equal_across_a_kill_and_resume(make_service_config,
                                              tmp_path, policy):
    overrides = dict(policy=policy, queue_limit=8,
                     mean_arrivals_per_slot=6.0, checkpoint_every=5)
    baseline = AdmissionService(make_service_config(
        journal_path=str(tmp_path / "base.jsonl"),
        checkpoint_path=str(tmp_path / "base.ckpt"), **overrides))
    tick_checked(baseline, FrozenTallies())
    baseline.close()
    total_slots = int(baseline.counters["slots"])

    kill_slot = int(np.random.default_rng(20261020).integers(
        6, total_slots - 2))
    config = make_service_config(
        journal_path=str(tmp_path / "kill.jsonl"),
        checkpoint_path=str(tmp_path / "kill.ckpt"), **overrides)
    at_checkpoint: Dict[int, Dict[str, float]] = {}
    tick_checked(AdmissionService(config), FrozenTallies(), kill_slot,
                 at_checkpoint)
    resumed = AdmissionService.resume(config.checkpoint_path)
    frozen = FrozenTallies(at_checkpoint[resumed.last_checkpoint_slot])
    assert resumed.counters == frozen.counters
    tick_checked(resumed, frozen)
    resumed.close()
    assert resumed.counters == frozen.counters == baseline.counters


@pytest.mark.parametrize("policy", POLICIES)
def test_horizon_cut_run_differs_only_by_finalize_drops(
        make_service_config, policy):
    config = make_service_config(policy=policy, horizon_slots=30,
                                 max_arrivals=400, queue_limit=8,
                                 mean_arrivals_per_slot=6.0)
    service = AdmissionService(config)
    frozen = FrozenTallies()
    tick_checked(service, frozen)
    still_pending = service.engine.pending_count()
    assert still_pending > 0
    service.close()
    after = service.counters
    finalize_drops = after.pop("dropped") - frozen.counters["dropped"]
    assert finalize_drops == still_pending
    assert after == {key: value for key, value in frozen.counters.items()
                     if key != "dropped"}
    # The view now agrees with the journal's DROP count.
    journaled = sum(event["kind"] == EventKind.DROP.value
                    for event in read_jsonl(config.journal_path))
    assert service.counters["dropped"] == journaled

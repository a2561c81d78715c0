"""A/B guard: building only the kept arrivals against building them all.

The service's ingress used to draw a slot's whole Poisson batch, build
every request, and slice the list at the queue's room: the head was
admitted, the tail shed.  Today the stream builds only the head and
makes the tail's draws without building it.  The frozen copies below
(the old stream batch and the old ingress half of the tick) are the
reference: both runs must write the same journal bytes, return the same
slot reports, keep the same counters and meter the same registry series,
``service_batch_size`` included - and, checkpointing, write the same
checkpoint bytes.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import List

import numpy as np
import pytest

from repro.requests.arrivals import PoissonArrivalStream
from repro.requests.distributions import RateRewardDistribution
from repro.service import AdmissionService
from repro.service.loop import SlotReport
from repro.sim.events import EventKind
from repro.telemetry.audit import emit_many, use_journal
from repro.telemetry.metrics import host_measured, use_metrics


# ----------------------------------------------------------------------
# Frozen copies of the build-everything ingress
# ----------------------------------------------------------------------
class FrozenStream(PoissonArrivalStream):
    """The stream's old batch: every arrival of the slot, built."""

    #: (Poisson draw, count after the limit) of the last non-empty slot.
    last_clip = None

    def next_batch(self):
        slot = self._next_slot
        self._next_slot += 1
        if self.exhausted:
            return slot, []
        count = drawn = int(self._rng.poisson(self._mean))
        if self._limit is not None:
            count = min(count, self._limit - self._next_id)
        if count:
            self.last_clip = (drawn, count)
        batch = [self._generator.generate_one(
            request_id=self._next_id + k, arrival_slot=slot)
            for k in range(count)]
        self._next_id += count
        return slot, batch


class FrozenService(AdmissionService):
    """The old tick: build the batch, then slice it at the room.

    Copied from the tick before shed arrivals were skipped, minus the
    wall-clock latency and allocation series, which the A/B does not
    compare, and with the tallies read from the registry like today's
    tick.
    """

    def __init__(self, config):
        super().__init__(config)
        stream = self._stream
        self._stream = FrozenStream(stream._generator, stream._mean,
                                    rng=stream._rng, limit=stream._limit)

    def _tick(self) -> SlotReport:
        if not self._started:
            self.start()
        metrics = self._metrics
        slot, batch = self._stream.next_batch()
        self._engine.clock.advance_to(slot)
        metrics.advance_slot(slot)
        with use_journal(self._journal), use_metrics(metrics):
            room = max(0, self.config.queue_limit
                       - self._engine.pending_count())
            accepted = list(batch[:room])
            shed = list(batch[room:])
            depth = float(self._engine.pending_count() + len(accepted))
            emit_many(EventKind.SHED, slot, shed,
                      lambda request: dict(request_id=request.request_id,
                                           value=depth))
            outcome = self._engine.step(self._policy, slot, accepted)
            deferred: List = []
            if accepted:
                still_pending = set(self._engine.pending_ids())
                deferred = [request for request in accepted
                            if request.request_id in still_pending]
            emit_many(EventKind.ADMIT_DEFERRED, slot, deferred,
                      lambda request: dict(
                          request_id=request.request_id,
                          value=float(outcome.pending_after)))
            metrics.inc("service_slots_total")
            metrics.observe("service_batch_size",
                            float(len(batch)), slot=slot)
            checkpointed = self._maybe_checkpoint(slot)
        if self._stream.exhausted and outcome.pending_after == 0 \
                and outcome.active_after == 0:
            self.done = True
        elif slot >= self.config.horizon_slots - 1:
            self.done = True
        return SlotReport(outcome=outcome, num_shed=len(shed),
                          num_deferred=len(deferred),
                          checkpointed=checkpointed,
                          admitted_total=int(self.counters["accepted"]),
                          deferred_total=int(self.counters["deferred"]),
                          shed_total=int(self.counters["shed"]),
                          dropped_total=int(self.counters["dropped"]))


# ----------------------------------------------------------------------
# Running both sides
# ----------------------------------------------------------------------
def run(service_cls, config):
    """Drain one service; return everything the A/B compares."""
    service = service_cls(config)
    reports = []
    checkpoints = []
    while not service.done:
        report = service.tick()
        reports.append(report)
        if report.checkpointed:
            with open(config.checkpoint_path, "rb") as handle:
                checkpoints.append(hashlib.sha256(handle.read()).hexdigest())
    service.close()
    with open(config.journal_path, "rb") as handle:
        journal = handle.read()
    full = service.metrics.snapshot()
    snapshot = {family: {series: value
                         for series, value in full[family].items()
                         if not host_measured(series)}
                for family in ("counters", "gauges", "histograms")}
    return dict(journal=journal, reports=reports,
                counters=dict(service.counters), snapshot=snapshot,
                checkpoints=checkpoints, service=service)


#: Case name -> ServiceConfig overrides (CI's overload point scaled down).
CASES = {
    "rate64-queue64": dict(mean_arrivals_per_slot=64.0, queue_limit=64,
                           max_arrivals=2_000),
    "rate64-queue1": dict(mean_arrivals_per_slot=64.0, queue_limit=1,
                          max_arrivals=1_500),
    # The limit cuts the last slot's draw while part of it is shed.
    "limit-clips-a-shed-batch": dict(mean_arrivals_per_slot=64.0,
                                     queue_limit=64, max_arrivals=1_000),
}


def run_both(config):
    """The new and the frozen service over the same files, in turn (the
    paths are part of the config a checkpoint stores)."""
    return [run(service_cls, config)
            for service_cls in (AdmissionService, FrozenService)]


@pytest.mark.parametrize("policy", ["greedy", "dynamicrr"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_new_ingress_matches_building_everything(
        make_service_config, case, policy):
    new, old = run_both(make_service_config(policy=policy, **CASES[case]))
    assert new["counters"]["shed"] > 0
    assert new["journal"] == old["journal"]
    assert new["reports"] == old["reports"]
    assert new["counters"] == old["counters"]
    assert new["snapshot"] == old["snapshot"]
    assert "service_batch_size" in new["snapshot"]["histograms"]
    if case == "limit-clips-a-shed-batch":
        drawn, count = old["service"]._stream.last_clip
        last = next(report for report in reversed(old["reports"])
                    if report.outcome.num_arrivals or report.num_shed)
        assert count < drawn
        assert last.num_shed > 0 and last.outcome.num_arrivals > 0


@pytest.mark.parametrize("policy", ["greedy", "dynamicrr"])
def test_checkpoint_bytes_match_building_everything(
        make_service_config, tmp_path, policy):
    # Checkpoints leave the wall-clock series out of the registry state.
    new, old = run_both(make_service_config(
        policy=policy, checkpoint_path=str(tmp_path / "service.ckpt"),
        checkpoint_every=4, **CASES["rate64-queue64"]))
    assert len(new["checkpoints"]) > 3
    assert new["checkpoints"] == old["checkpoints"]


# ----------------------------------------------------------------------
# The cached E[rho] stays out of pickles
# ----------------------------------------------------------------------
def _distribution():
    return RateRewardDistribution([30.0, 35.0, 40.0, 50.0],
                                  [0.4, 0.3, 0.2, 0.1],
                                  [420.0, 433.5, 418.25, 440.0])


def parent_pickle(monkeypatch, distribution):
    """Pickle `distribution` as the class did before it cached E[rho]:
    the default reduce over an instance dict of the three arrays."""
    old = RateRewardDistribution.__new__(RateRewardDistribution)
    old.__dict__.update((key, value)
                        for key, value in vars(distribution).items()
                        if key != "_expected_rate")
    with monkeypatch.context() as patch:
        patch.delattr(RateRewardDistribution, "__getstate__")
        patch.delattr(RateRewardDistribution, "__setstate__")
        return pickle.dumps(old, pickle.HIGHEST_PROTOCOL)


def test_pickled_distribution_holds_only_its_arrays(monkeypatch):
    # A checkpoint's bytes must not depend on the cache: a distribution
    # pickles to the bytes it did before E[rho] was cached.
    distribution = _distribution()
    assert pickle.dumps(distribution, pickle.HIGHEST_PROTOCOL) == \
        parent_pickle(monkeypatch, distribution)


def test_distribution_pickled_without_the_cache_loads(monkeypatch):
    distribution = _distribution()
    loaded = pickle.loads(parent_pickle(monkeypatch, distribution))
    assert type(loaded) is RateRewardDistribution
    assert loaded.expected_rate() == distribution.expected_rate()
    assert loaded.expected_rate() == float(
        np.dot(loaded.probabilities, loaded.rates_mbps))
    assert pickle.loads(pickle.dumps(loaded)).expected_rate() == \
        distribution.expected_rate()

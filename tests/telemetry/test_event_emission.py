"""Every event kind is declared once and metered by construction.

Each :class:`~repro.sim.events.EventKind` member carries its glyph,
audit role and counter series, and every emission goes through
:func:`repro.telemetry.audit.emit`, which increments that series and
journals the event.  So on any run, each event counter equals the
journal's count of its kind.  The runs below cover the offline
(Appro, Heu), online (DynamicRR, OCORP with a station outage) and
service (greedy, DynamicRR, and a DynamicRR kill/resume) paths, each
against its decision journal.  Every kind occurs in at least one run,
so no equality below holds vacuously.
"""

from __future__ import annotations

import json

import pytest

from repro.baselines.ocorp import OcorpOnline
from repro.config import (NetworkConfig, OnlineConfig, RequestConfig,
                          SimulationConfig)
from repro.core.appro import Appro
from repro.core.dynamic_rr import DynamicRR
from repro.core.heu import Heu
from repro.core.instance import ProblemInstance
from repro.service import AdmissionService, ServiceConfig
from repro.sim.engine import run_offline
from repro.sim.events import AuditRole, EventKind
from repro.sim.online_engine import OnlineEngine
from repro.telemetry import Journal, use_journal
from repro.telemetry.metrics import MetricsRegistry, use_metrics

OUTAGE = {0: (5, 10)}


def _sim(stations: int, requests: int, seed: int,
         **online) -> SimulationConfig:
    return SimulationConfig(
        network=NetworkConfig(num_base_stations=stations),
        requests=RequestConfig(num_requests=requests,
                               stream_duration_slots=10),
        online=OnlineConfig(**online),
        seed=seed,
    ).validate()


def _metered(run):
    """``run()`` under a fresh journal and registry."""
    registry = MetricsRegistry()
    with use_journal(Journal()) as journal, use_metrics(registry):
        run()
    return registry, journal.events()


def _offline(algorithm):
    instance = ProblemInstance.build(_sim(4, 60, 11), seed=11)
    workload = instance.new_workload(num_requests=60, seed=11)
    return _metered(lambda: run_offline(algorithm, instance, workload,
                                        seed=11))


#: Few arms and narrow confidence bounds, so DynamicRR's successive
#: elimination discards arms within the horizon.
ONLINE = _sim(8, 90, 7, horizon_slots=60, num_arms=4,
              confidence_scale=0.05)


def _online(policy, outages=None):
    instance = ProblemInstance.build(ONLINE, seed=7)
    workload = instance.new_workload(num_requests=90, seed=7,
                                     horizon_slots=60)
    engine = OnlineEngine(instance, workload, horizon_slots=60, rng=7,
                          outages=outages)
    return _metered(lambda: engine.run(policy))


def _read(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle]


def _service_config(tmp_path, tag, policy, journaled=True):
    return ServiceConfig(
        sim=_sim(6, 30, 4321, horizon_slots=40), horizon_slots=60,
        max_arrivals=150, mean_arrivals_per_slot=5.0, policy=policy,
        queue_limit=6,
        journal_path=str(tmp_path / f"{tag}.jsonl") if journaled else None,
        checkpoint_path=str(tmp_path / f"{tag}.ckpt"),
        checkpoint_every=5, flush_every=1)


def _drain(service):
    while not service.done:
        service.tick()
    service.close()


def _service(tmp_path, tag, policy, kill_slot=None):
    config = _service_config(tmp_path, tag, policy)
    registry = MetricsRegistry()
    service = AdmissionService(config, registry=registry)
    if kill_slot is None:
        _drain(service)
    else:
        # A crash right after the checkpoint of ``kill_slot``: nothing
        # is closed, and the resumed service continues the registry
        # from the checkpoint.
        while service.tick().outcome.slot < kill_slot:
            pass
        registry = MetricsRegistry()
        _drain(AdmissionService.resume(config.checkpoint_path,
                                       registry=registry))
    return registry, _read(config.journal_path)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("emission")
    return {
        "offline-appro": _offline(Appro()),
        "offline-heu": _offline(Heu()),
        "online-dynamicrr": _online(DynamicRR(ONLINE.online, rng=3)),
        "online-ocorp-outage": _online(OcorpOnline(), OUTAGE),
        "service-greedy": _service(tmp_path, "greedy", "greedy"),
        "service-dynamicrr": _service(tmp_path, "drr", "dynamicrr"),
        "service-resumed": _service(tmp_path, "resumed", "dynamicrr",
                                    kill_slot=19),
    }


def _counter(registry, kind: EventKind) -> float:
    return registry.counter(kind.spec.counter, **dict(kind.spec.labels))


def _journal_count(run, kind: EventKind) -> int:
    _registry, journal = run
    return sum(1 for event in journal if event["kind"] == kind.value)


@pytest.mark.parametrize("kind", list(EventKind), ids=lambda k: k.value)
def test_kind_declares_glyph_role_and_counter(kind):
    spec = kind.spec
    assert len(spec.glyph) == 1
    assert isinstance(spec.role, AuditRole)
    assert spec.counter.endswith("_total")


def test_glyphs_and_counter_series_are_unique():
    kinds = list(EventKind)
    assert len({kind.spec.glyph for kind in kinds}) == len(kinds)
    assert len({(kind.spec.counter, kind.spec.labels)
                for kind in kinds}) == len(kinds)


@pytest.mark.parametrize("kind", list(EventKind), ids=lambda k: k.value)
def test_counter_equals_journal_count(kind, runs):
    seen = 0
    for name, run in runs.items():
        counted = _counter(run[0], kind)
        journaled = _journal_count(run, kind)
        assert counted == journaled, (
            f"{name}: {kind.spec.counter} = {counted:g} but the journal "
            f"holds {journaled} {kind.value} event(s)")
        seen += journaled
    assert seen > 0, f"no run emits {kind.value}"


class TestCountersWithoutJournal:
    """A registry reads the same with or without a journal attached."""

    def test_online_outage_run(self, small_instance):
        def counters(journal):
            workload = small_instance.new_workload(
                num_requests=25, seed=5, horizon_slots=40)
            engine = OnlineEngine(small_instance, workload,
                                  horizon_slots=40, rng=0, outages=OUTAGE)
            registry = MetricsRegistry()
            with use_journal(journal), use_metrics(registry):
                engine.run(OcorpOnline())
            return registry

        journaled = counters(Journal())
        assert journaled.snapshot()["counters"] \
            == counters(None).snapshot()["counters"]
        assert _counter(journaled, EventKind.STATION_DOWN) == 1
        assert _counter(journaled, EventKind.STATION_UP) == 9

    @pytest.mark.parametrize("policy", ["greedy", "dynamicrr"])
    def test_service_run(self, tmp_path, policy):
        def counters(journaled):
            registry = MetricsRegistry()
            config = _service_config(tmp_path, f"{policy}-{journaled}",
                                     policy, journaled=journaled)
            _drain(AdmissionService(config, registry=registry))
            return registry.snapshot()["counters"]

        assert counters(True) == counters(False)

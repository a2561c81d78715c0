"""Golden ``/metrics`` counters of two fixed-seed service runs.

One greedy and one DynamicRR run, each stopped at a short horizon so
requests are still pending or running when the service closes, and the
DynamicRR run also checkpoints.  The golden file holds every counter
and every deterministic gauge of the run's registry: the host-measured
series (``metrics.host_measured``) are left out.  Any change to
what the service meters shows up here as a named series with its old
and new value.

Regenerate with ``PYTHONPATH=src python tests/service/test_metrics_golden.py``
after an intended change, and say which series moved.
"""

from __future__ import annotations

import json
import pathlib
import tempfile

import pytest

from repro.config import (NetworkConfig, OnlineConfig, RequestConfig,
                          SimulationConfig)
from repro.service import AdmissionService, ServiceConfig
from repro.telemetry.metrics import MetricsRegistry, host_measured

GOLDEN = pathlib.Path(__file__).parent / "golden" / "metrics_counters.json"

#: Run name -> ServiceConfig overrides (a ``checkpoint_every`` run
#: checkpoints to ``service.ckpt`` in the run's directory).
RUNS = {
    "greedy": dict(policy="greedy", queue_limit=8,
                   mean_arrivals_per_slot=6.0),
    "dynamicrr": dict(policy="dynamicrr", queue_limit=32,
                      mean_arrivals_per_slot=4.0, checkpoint_every=10),
}


def _config(directory: pathlib.Path, **overrides) -> ServiceConfig:
    sim = SimulationConfig(
        network=NetworkConfig(num_base_stations=6),
        requests=RequestConfig(stream_duration_slots=10),
        online=OnlineConfig(horizon_slots=40),
        seed=2468,
    ).validate()
    settings = dict(sim=sim, horizon_slots=30, max_arrivals=400)
    settings.update(overrides)
    if "checkpoint_every" in overrides:
        settings["checkpoint_path"] = str(directory / "service.ckpt")
    return ServiceConfig(**settings)


def metered_series(name: str, directory: pathlib.Path) -> dict:
    """Counters and deterministic gauges after one service run."""
    registry = MetricsRegistry()
    service = AdmissionService(_config(directory, **RUNS[name]),
                               registry=registry)
    while not service.done:
        service.tick()
    service.close()
    snapshot = registry.snapshot()
    return {family: {series: value
                     for series, value in snapshot[family].items()
                     if not host_measured(series)}
            for family in ("counters", "gauges")}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_metrics_match_golden(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert metered_series(name, tmp_path) == golden[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        recorded = {name: metered_series(name, pathlib.Path(directory))
                    for name in sorted(RUNS)}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(recorded, indent=2, sort_keys=True)
                      + "\n")

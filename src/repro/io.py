"""JSON serialization of instances and results.

Reproducibility artifacts: a :class:`~repro.core.instance.ProblemInstance`
(topology + delays + capacities) and a
:class:`~repro.core.assignment.ScheduleResult` can be written to JSON
and reloaded bit-exactly, so an experiment's exact network and its
outcome can be archived next to the CSVs.

The format is versioned; loading rejects unknown versions rather than
guessing.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from .config import (NetworkConfig, OnlineConfig, RequestConfig,
                     SimulationConfig)
from .core.assignment import OffloadDecision, ScheduleResult
from .core.instance import ProblemInstance
from .core.latency import LatencyModel
from .exceptions import ConfigurationError
from .network.paths import PathTable
from .network.topology import BaseStation, MECNetwork

PathLike = Union[str, Path]

#: Current schema version of the artifacts.
FORMAT_VERSION = 1


def _check_version(payload: Dict[str, Any], kind: str) -> None:
    version = payload.get("version")
    if version != FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported {kind} format version {version!r} "
            f"(expected {FORMAT_VERSION})")
    if payload.get("kind") != kind:
        raise ConfigurationError(
            f"expected a {kind!r} artifact, got {payload.get('kind')!r}")


# ----------------------------------------------------------------------
# SimulationConfig
# ----------------------------------------------------------------------
def config_to_dict(config: SimulationConfig) -> Dict[str, Any]:
    """Serialize a configuration (plain dict of primitives)."""
    return {
        "network": {
            "num_base_stations": config.network.num_base_stations,
            "capacity_range_mhz": list(config.network.capacity_range_mhz),
            "slot_size_mhz": config.network.slot_size_mhz,
            "waxman_alpha": config.network.waxman_alpha,
            "waxman_beta": config.network.waxman_beta,
            "link_delay_range_ms": list(
                config.network.link_delay_range_ms),
        },
        "requests": {
            "num_requests": config.requests.num_requests,
            "data_rate_range_mbps": list(
                config.requests.data_rate_range_mbps),
            "num_rate_levels": config.requests.num_rate_levels,
            "rate_decay": config.requests.rate_decay,
            "tasks_range": list(config.requests.tasks_range),
            "c_unit_mhz_per_mbps": config.requests.c_unit_mhz_per_mbps,
            "reward_unit_range": list(config.requests.reward_unit_range),
            "deadline_ms": config.requests.deadline_ms,
            "proc_delay_range_ms": list(
                config.requests.proc_delay_range_ms),
            "stream_duration_slots": config.requests.stream_duration_slots,
        },
        "online": {
            "horizon_slots": config.online.horizon_slots,
            "slot_length_ms": config.online.slot_length_ms,
            "threshold_range_mhz": list(
                config.online.threshold_range_mhz),
            "num_arms": config.online.num_arms,
            "confidence_scale": config.online.confidence_scale,
        },
        "seed": config.seed,
    }


def config_from_dict(payload: Dict[str, Any]) -> SimulationConfig:
    """Deserialize a configuration (validated)."""
    net = dict(payload["network"])
    req = dict(payload["requests"])
    onl = dict(payload["online"])
    for mapping, keys in ((net, ("capacity_range_mhz",
                                 "link_delay_range_ms")),
                          (req, ("data_rate_range_mbps", "tasks_range",
                                 "reward_unit_range",
                                 "proc_delay_range_ms")),
                          (onl, ("threshold_range_mhz",))):
        for key in keys:
            mapping[key] = tuple(mapping[key])
    return SimulationConfig(
        network=NetworkConfig(**net),
        requests=RequestConfig(**req),
        online=OnlineConfig(**onl),
        seed=payload["seed"],
    ).validate()


# ----------------------------------------------------------------------
# ProblemInstance
# ----------------------------------------------------------------------
def save_instance(instance: ProblemInstance, path: PathLike) -> Path:
    """Write an instance (topology + delays + config) to JSON."""
    payload = {
        "version": FORMAT_VERSION,
        "kind": "instance",
        "config": config_to_dict(instance.config),
        "slot_size_mhz": instance.network.slot_size_mhz,
        "stations": [
            {
                "id": bs.station_id,
                "capacity_mhz": bs.capacity_mhz,
                "position": list(bs.position),
                "base_delay_ms": instance.latency.base_delay_ms(
                    bs.station_id),
            }
            for bs in instance.network
        ],
        "links": [
            {"u": u, "v": v,
             "delay_ms": instance.network.link_delay_ms(u, v)}
            for u, v in sorted(instance.network.links)
        ],
    }
    path = Path(path)
    path.write_text(json.dumps(payload, indent=1))
    return path


def load_instance(path: PathLike) -> ProblemInstance:
    """Reload an instance written by :func:`save_instance`."""
    payload = json.loads(Path(path).read_text())
    _check_version(payload, "instance")
    config = config_from_dict(payload["config"])

    stations = []
    base_delays = {}
    for entry in payload["stations"]:
        stations.append(BaseStation(
            station_id=entry["id"],
            capacity_mhz=entry["capacity_mhz"],
            position=tuple(entry["position"])))
        base_delays[entry["id"]] = entry["base_delay_ms"]
    links = {(link["u"], link["v"]): link["delay_ms"]
             for link in payload["links"]}
    network = MECNetwork(stations=stations, links=links,
                         slot_size_mhz=payload["slot_size_mhz"])
    paths = PathTable(network)
    latency = LatencyModel(
        network, paths,
        proc_delay_range_ms=config.requests.proc_delay_range_ms, rng=0)
    # Overwrite the randomly drawn base delays with the saved ones.
    latency.restore_base_delays(base_delays)
    return ProblemInstance(network=network, paths=paths,
                           latency=latency, config=config)


# ----------------------------------------------------------------------
# ScheduleResult
# ----------------------------------------------------------------------
def save_result(result: ScheduleResult, path: PathLike) -> Path:
    """Write a schedule result to JSON."""
    payload = {
        "version": FORMAT_VERSION,
        "kind": "result",
        "algorithm": result.algorithm,
        "runtime_s": result.runtime_s,
        "decisions": [
            {
                "request_id": d.request_id,
                "admitted": d.admitted,
                "primary_station": d.primary_station,
                "migrated_tasks": {str(k): v
                                   for k, v in d.migrated_tasks.items()},
                "realized_rate_mbps": d.realized_rate_mbps,
                "reward": d.reward,
                "latency_ms": d.latency_ms,
                "waiting_ms": d.waiting_ms,
                "deadline_met": d.deadline_met,
            }
            for d in result.decisions.values()
        ],
    }
    path = Path(path)
    path.write_text(json.dumps(payload, indent=1))
    return path


def load_result(path: PathLike) -> ScheduleResult:
    """Reload a schedule result written by :func:`save_result`."""
    payload = json.loads(Path(path).read_text())
    _check_version(payload, "result")
    result = ScheduleResult(algorithm=payload["algorithm"])
    result.runtime_s = payload["runtime_s"]
    for entry in payload["decisions"]:
        result.add(OffloadDecision(
            request_id=entry["request_id"],
            admitted=entry["admitted"],
            primary_station=entry["primary_station"],
            migrated_tasks={int(k): v
                            for k, v in entry["migrated_tasks"].items()},
            realized_rate_mbps=entry["realized_rate_mbps"],
            reward=entry["reward"],
            latency_ms=entry["latency_ms"],
            waiting_ms=entry["waiting_ms"],
            deadline_met=entry["deadline_met"],
        ))
    return result

"""Run ledger: per-run provenance manifests and their persistence.

Every sweep or benchmark run can be condensed into one
:class:`RunManifest` - a JSON-serializable record of *what* ran (name,
config hash, seed list), *where* (git revision, python/numpy versions,
platform, worker count), *how long* (per-phase wall-clock, peak RSS),
and *what came out* (headline metrics per algorithm).  Manifests append
to a JSONL **ledger** (one manifest per line, the longitudinal record
a repository accumulates across commits) and export as pretty-printed
``BENCH_<name>.json`` files (one manifest per file, the snapshot CI
diffs against a committed baseline).

The split between *deterministic* and *wall-clock* content mirrors
:mod:`repro.telemetry.export`: ``metrics`` (minus ``runtime_s``) are a
pure function of config + seeds and must match across machines up to
numeric tolerance, while ``phases``, ``peak_rss_kb``, ``created_at``,
and the environment fields legitimately vary.
:mod:`repro.telemetry.regression` encodes that split when diffing two
ledgers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform as platform_module
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple, Union)

from ..exceptions import ConfigurationError
from .export import read_jsonl

#: Manifest schema identifier written into every exported file.
MANIFEST_SCHEMA = "repro.run-manifest/1"

#: Metric names measured from the executing machine's clock; compared
#: advisory-only by :mod:`repro.telemetry.regression`.  The service
#: loadgen's throughput/latency metrics are wall-clock by nature; its
#: deterministic counts (arrivals, sheds, rewards) gate normally.
WALL_CLOCK_METRICS = ("runtime_s", "requests_per_s", "p50_slot_ms",
                      "p95_slot_ms", "p99_slot_ms")


@dataclass(frozen=True)
class RunManifest:
    """Provenance + headline results of one sweep/benchmark run.

    Attributes:
        name: the run's identity; ledgers are diffed per name.
        created_at: ISO-8601 UTC timestamp of manifest creation.
        git_rev: repository revision the run executed from
            (``"unknown"`` outside a git checkout).
        config_hash: stable hash of the experiment configuration (see
            :func:`config_hash`).
        seeds: replication seeds the run covered, sorted.
        workers: worker processes the sweep executed with.
        python_version: ``major.minor.micro`` of the interpreter.
        numpy_version: the NumPy version (percentile semantics and LP
            numerics can shift between releases).
        platform: ``platform.platform()`` of the executing machine.
        peak_rss_kb: peak resident set size in KiB via
            ``resource.getrusage`` (None where unavailable).
        phases: phase name -> wall-clock seconds (e.g. one entry per
            figure sweep, or the tracer's top-level span totals).
        metrics: algorithm -> metric -> mean value over the run's
            records.  ``runtime_s`` rides along but is wall-clock (see
            :data:`WALL_CLOCK_METRICS`).
        extra: free-form labels (scale preset, figure list, ...).
        profiles: algorithm -> serialized
            :class:`~repro.telemetry.profiling.ProfileDigest` when the
            run executed with profiling enabled; empty otherwise.
            ``perf-diff`` consumes this section.  Its calls/counters
            half is deterministic; its ``*_s`` fields are wall clock.
    """

    name: str
    created_at: str
    git_rev: str
    config_hash: str
    seeds: Tuple[int, ...]
    workers: int
    python_version: str
    numpy_version: str
    platform: str
    peak_rss_kb: Optional[int]
    phases: Mapping[str, float]
    metrics: Mapping[str, Mapping[str, float]]
    extra: Mapping[str, Any] = field(default_factory=dict)
    profiles: Mapping[str, Mapping[str, Any]] = field(
        default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """The manifest as a JSON-ready dict (schema field included)."""
        out = dataclasses.asdict(self)
        out["seeds"] = list(self.seeds)
        out["phases"] = dict(self.phases)
        out["metrics"] = {algo: dict(row)
                          for algo, row in self.metrics.items()}
        out["extra"] = dict(self.extra)
        out["profiles"] = {algo: dict(digest)
                           for algo, digest in self.profiles.items()}
        out["schema"] = MANIFEST_SCHEMA
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunManifest":
        """Rebuild a manifest from :meth:`to_dict` output.

        Raises:
            ConfigurationError: on missing required fields.
        """
        try:
            return cls(
                name=data["name"],
                created_at=data.get("created_at", ""),
                git_rev=data.get("git_rev", "unknown"),
                config_hash=data.get("config_hash", ""),
                seeds=tuple(int(s) for s in data.get("seeds", ())),
                workers=int(data.get("workers", 1)),
                python_version=data.get("python_version", ""),
                numpy_version=data.get("numpy_version", ""),
                platform=data.get("platform", ""),
                peak_rss_kb=data.get("peak_rss_kb"),
                phases={str(k): float(v)
                        for k, v in data.get("phases", {}).items()},
                metrics={str(algo): {str(m): float(v)
                                     for m, v in row.items()}
                         for algo, row in data.get("metrics", {}).items()},
                extra=dict(data.get("extra", {})),
                profiles={str(algo): dict(digest)
                          for algo, digest
                          in data.get("profiles", {}).items()},
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ConfigurationError(
                f"malformed run manifest: {error}") from error


# ----------------------------------------------------------------------
# Environment probes
# ----------------------------------------------------------------------
def git_revision(cwd: Optional[Union[str, Path]] = None) -> str:
    """The current git revision, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd, capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def peak_rss_kb() -> Optional[int]:
    """Peak resident set size of this process in KiB (None if unknown).

    ``ru_maxrss`` is KiB on Linux and bytes on macOS; both normalize
    to KiB here.  Platforms without the ``resource`` module (Windows)
    report None.
    """
    try:
        import resource
    except ImportError:
        return None
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return int(maxrss // 1024)
    return int(maxrss)


def _utc_now_iso() -> str:
    import datetime

    return (datetime.datetime.now(datetime.timezone.utc)
            .strftime("%Y-%m-%dT%H:%M:%SZ"))


# ----------------------------------------------------------------------
# Config hashing
# ----------------------------------------------------------------------
def _jsonable(obj: Any) -> Any:
    """Reduce configs/dataclasses/containers to canonical JSON types."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {"__dataclass__": type(obj).__name__,
                "fields": {f.name: _jsonable(getattr(obj, f.name))
                           for f in dataclasses.fields(obj)}}
    if isinstance(obj, Mapping):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if isinstance(obj, float):
        return obj
    return repr(obj)


def config_hash(config: Any) -> str:
    """A stable hex digest of an experiment configuration.

    Accepts any composition of dataclasses (``SimulationConfig``,
    ``ExperimentScale``), mappings, sequences, and scalars.  Two equal
    configurations hash identically across processes and interpreter
    versions (the digest is over canonical sorted-key JSON).
    """
    payload = json.dumps(_jsonable(config), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Building manifests from sweep results
# ----------------------------------------------------------------------
def _mean_metrics(records: Iterable[Any]) -> Dict[str, Dict[str, float]]:
    """Per-algorithm mean of every metric over a record sequence."""
    sums: Dict[str, Dict[str, float]] = {}
    counts: Dict[str, Dict[str, int]] = {}
    for record in records:
        row = sums.setdefault(record.algorithm, {})
        n = counts.setdefault(record.algorithm, {})
        for metric, value in record.metrics.items():
            row[metric] = row.get(metric, 0.0) + float(value)
            n[metric] = n.get(metric, 0) + 1
    return {algo: {metric: row[metric] / counts[algo][metric]
                   for metric in sorted(row)}
            for algo, row in sorted(sums.items())}


def manifest_from_sweeps(name: str,
                         sweeps: Mapping[str, Any],
                         config: Any = None,
                         workers: int = 1,
                         phases: Optional[Mapping[str, float]] = None,
                         extra: Optional[Mapping[str, Any]] = None,
                         profiles: Optional[
                             Mapping[str, Mapping[str, Any]]] = None
                         ) -> RunManifest:
    """Condense one or more sweeps into a :class:`RunManifest`.

    Args:
        name: manifest identity (ledger entries diff per name).
        sweeps: group label -> :class:`~repro.sim.results.SweepResult`
            (or anything with ``records``).  With several groups the
            metric keys are namespaced ``"<group>/<algorithm>"`` so
            e.g. fig3 and fig5 Appro rows stay distinct.
        config: the experiment configuration to hash (scale preset,
            SimulationConfig, dict, ...); hashes the sweep names alone
            when None.
        workers: worker processes the sweeps executed with.
        phases: phase -> wall-clock seconds (caller-measured).
        extra: free-form labels.
        profiles: algorithm -> serialized profile digest.  When None
            (the default) the records themselves are consulted: runs
            executed with profiling enabled carry digests, which merge
            per algorithm with the same ``<group>/<algorithm>``
            namespacing as ``metrics``; unprofiled runs yield an empty
            section.
    """
    if not sweeps:
        raise ConfigurationError("manifest needs at least one sweep")
    namespaced = len(sweeps) > 1
    metrics: Dict[str, Mapping[str, float]] = {}
    seeds: set = set()
    for group in sorted(sweeps):
        records = sweeps[group].records
        seeds.update(int(record.seed) for record in records)
        for algo, row in _mean_metrics(records).items():
            key = f"{group}/{algo}" if namespaced else algo
            metrics[key] = row
    if profiles is None:
        from .profiling import collect_sweep_profiles

        profiles = {algo: digest.to_dict() for algo, digest
                    in collect_sweep_profiles(sweeps).items()}
    return make_manifest(
        name, config if config is not None else sorted(sweeps),
        seeds=seeds, workers=workers, phases=phases or {},
        metrics=metrics, extra=extra, profiles=profiles)


def make_manifest(name: str, config: Any, seeds: Iterable[int],
                  workers: int, phases: Mapping[str, float],
                  metrics: Mapping[str, Mapping[str, float]],
                  extra: Optional[Mapping[str, Any]] = None,
                  profiles: Optional[
                      Mapping[str, Mapping[str, Any]]] = None
                  ) -> RunManifest:
    """A :class:`RunManifest` stamped with this process's environment.

    The one constructor of manifests: it fills ``created_at``,
    ``git_rev``, the python/numpy/platform versions and
    ``peak_rss_kb``, hashes ``config`` (see :func:`config_hash`) and
    sorts ``seeds``.
    """
    import numpy as np

    return RunManifest(
        name=name,
        created_at=_utc_now_iso(),
        git_rev=git_revision(),
        config_hash=config_hash(config),
        seeds=tuple(sorted(int(seed) for seed in seeds)),
        workers=int(workers),
        python_version=platform_module.python_version(),
        numpy_version=np.__version__,
        platform=platform_module.platform(),
        peak_rss_kb=peak_rss_kb(),
        phases=dict(phases),
        metrics=dict(metrics),
        extra=dict(extra or {}),
        profiles={str(algo): dict(digest)
                  for algo, digest in (profiles or {}).items()},
    )


# ----------------------------------------------------------------------
# Persistence: JSONL ledger + BENCH_<name>.json snapshots
# ----------------------------------------------------------------------
def append_ledger(path: Union[str, Path],
                  manifest: RunManifest) -> Path:
    """Append one manifest to a JSONL ledger; returns the path.

    Parent directories are created as needed; the ledger is created on
    first append.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("a") as handle:
        handle.write(json.dumps(manifest.to_dict(), sort_keys=True))
        handle.write("\n")
    return target


def write_bench(path: Union[str, Path],
                manifest: RunManifest) -> Path:
    """Write one manifest as a pretty ``BENCH_<name>.json`` snapshot."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(manifest.to_dict(), sort_keys=True,
                                 indent=2) + "\n")
    return target


def load_manifests(path: Union[str, Path]) -> List[RunManifest]:
    """Load manifests from either format.

    A ``BENCH_*.json`` snapshot (one pretty-printed object) yields a
    single-element list; a JSONL ledger yields all its entries in
    append order.

    Raises:
        ConfigurationError: when the file is neither format, or a
            ledger entry is malformed.
    """
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        return [RunManifest.from_dict(entry) for entry in read_jsonl(path)]
    if isinstance(data, dict):
        return [RunManifest.from_dict(data)]
    raise ConfigurationError(
        f"{path}: expected a manifest object or a JSONL ledger, got "
        f"{type(data).__name__}")


def latest_by_name(manifests: Sequence[RunManifest]
                   ) -> Dict[str, RunManifest]:
    """The last-appended manifest per name (the ledger's head state)."""
    out: Dict[str, RunManifest] = {}
    for manifest in manifests:
        out[manifest.name] = manifest
    return out

"""Long-lived streaming admission service.

The batch experiments answer "what did the horizon earn?"; this package
answers "can the online machinery run *forever*?".  It wraps the
slotted engine in an asyncio admission loop with bounded-queue
backpressure (ADMIT / ADMIT_DEFERRED / SHED journaled as first-class
events), deterministic checkpoint/restore (a killed service resumes
with a byte-identical decision journal), and a load-generator CLI
(``python -m repro.service loadgen``) that measures sustained
throughput, p50/p95/p99 slot latency, and peak RSS into the
repository's run manifest format.

Live observability rides on :mod:`repro.telemetry.metrics`: a
:class:`~repro.telemetry.metrics.MetricsRegistry` attached to the
service is exposed over HTTP by :class:`~repro.service.http.
MetricsEndpoint` (`/metrics` Prometheus text + JSON, `/healthz`,
`/readyz`) and rendered in a terminal by ``python -m repro.service
status`` / ``watch`` (:mod:`repro.service.console`).
"""

from importlib import import_module
from typing import Any

#: Public name -> the submodule defining it.  Loaded on first access,
#: so importing the package (or ticking a service) never loads the
#: scrape endpoint's asyncio stack, the console's urllib, or the
#: loadgen's profiler.
_EXPORTS = {
    "AdmissionService": "loop",
    "ServiceConfig": "loop",
    "SlotReport": "loop",
    "SERVICE_POLICIES": "loop",
    "COUNTER_KEYS": "loop",
    "ServiceCheckpoint": "checkpoint",
    "JournalCursor": "checkpoint",
    "CHECKPOINT_SCHEMA": "checkpoint",
    "MetricsEndpoint": "http",
    "read_checkpoint": "checkpoint",
    "write_checkpoint": "checkpoint",
    "truncate_journal": "checkpoint",
    "build_config": "loadgen",
    "fetch_status": "console",
    "render_status": "console",
    "run_loadgen": "loadgen",
    "run_resume": "loadgen",
    "run_status": "console",
    "run_watch": "console",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value

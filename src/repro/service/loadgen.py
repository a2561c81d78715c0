"""Load generator and resume driver for the admission service.

``python -m repro.service loadgen`` replays a synthetic Poisson
arrival stream through an :class:`~repro.service.loop.AdmissionService`
at a configurable rate, reports sustained throughput (requests/sec),
p50/p95/p99 per-slot latency (from the registry's bounded streaming
``service_slot_latency_seconds`` histogram - RSS stays flat at any
arrival count), the run's tallies, and peak RSS, and writes the result
as a ``BENCH_service.json`` run manifest - the same format the
bench-regression CI job diffs, with the wall-clock metrics classified
advisory (see :data:`repro.telemetry.ledger.WALL_CLOCK_METRICS`).

Every run is metered: the service records into a live
:class:`~repro.telemetry.metrics.MetricsRegistry` (scrapeable via
``--metrics-port``), the one store of its tallies, and the registry's
state checkpoints with the service so a resumed run's counters
continue instead of resetting.

``--kill-at-slot`` simulates a crash: the loop abandons the service
without flushing, exactly like a SIGKILL.  ``python -m repro.service
resume`` then restores the latest checkpoint and runs the remainder;
the CI smoke job trace-diffs the resulting journal against an
uninterrupted run's.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict, Optional

from ..config import SimulationConfig
from ..telemetry import profiling
from ..telemetry.ledger import make_manifest, write_bench
from .loop import AdmissionService, ServiceConfig


def build_config(arrivals: int, rate: float, policy: str = "greedy",
                 seed: int = 0, queue_limit: int = 256,
                 journal_path: Optional[str] = None,
                 checkpoint_path: Optional[str] = None,
                 checkpoint_every: Optional[int] = None,
                 flush_every: int = 1024) -> ServiceConfig:
    """A loadgen :class:`ServiceConfig` with a derived horizon.

    The horizon covers the arrival phase (``arrivals / rate`` slots)
    plus a generous drain margin (stream duration, deadline budget, and
    slack), so a healthy run always finishes by draining rather than by
    hitting the horizon.
    """
    sim = SimulationConfig(seed=seed)
    drain_margin = (sim.requests.stream_duration_slots
                    + int(sim.requests.deadline_ms / 50.0) + 1000)
    horizon = int(arrivals / rate) + drain_margin
    return ServiceConfig(
        sim=sim,
        horizon_slots=horizon,
        mean_arrivals_per_slot=rate,
        max_arrivals=arrivals,
        policy=policy,
        queue_limit=queue_limit,
        journal_path=journal_path,
        flush_every=flush_every,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
    )


def _metrics_row(service: AdmissionService,
                 elapsed_s: float) -> Dict[str, float]:
    """The loadgen's headline metric row (deterministic counts first).

    ``requests_per_s`` and the latency percentiles are wall-clock and
    compare advisory-only in bench-diff; every other entry is a pure
    function of config + seed and gates normally.  Every entry reads the
    service's registry: the tallies through :attr:`AdmissionService.
    counters`, the percentiles from its streaming
    ``service_slot_latency_seconds`` histogram - no per-slot sample list
    exists anywhere, so RSS stays flat at 10^6+ arrivals.
    """
    counters = service.counters
    latency = service.metrics.histogram("service_slot_latency_seconds")
    rate = counters["arrivals"] / elapsed_s if elapsed_s > 0 else 0.0
    return {
        "num_arrivals": counters["arrivals"],
        "num_accepted": counters["accepted"],
        "num_shed": counters["shed"],
        "num_deferred": counters["deferred"],
        "num_started": counters["started"],
        "num_completed": counters["completed"],
        "num_dropped": counters["dropped"],
        "total_reward": counters["reward"],
        "num_slots": counters["slots"],
        "requests_per_s": rate,
        "p50_slot_ms": latency.quantile(50.0) * 1000.0,
        "p95_slot_ms": latency.quantile(95.0) * 1000.0,
        "p99_slot_ms": latency.quantile(99.0) * 1000.0,
        "runtime_s": elapsed_s,
    }


def _serve_with_endpoint(service: AdmissionService, port: int) -> None:
    """Serve to drain with a scrape endpoint on the same event loop.

    The asyncio stack loads here, on the one path that needs it.
    """
    import asyncio

    from .http import MetricsEndpoint

    async def serve() -> None:
        endpoint = await MetricsEndpoint(service, port=port).start()
        print(f"metrics endpoint: {endpoint.url}/metrics",
              file=sys.stderr)
        try:
            await service.serve()
        finally:
            await endpoint.stop()

    asyncio.run(serve())


def _drain(service: AdmissionService) -> None:
    """Tick to drain; no event loop is needed without an endpoint."""
    while not service.done:
        service.tick()


def run_loadgen(arrivals: int = 50_000, rate: float = 8.0,
                policy: str = "greedy", seed: int = 0,
                queue_limit: int = 256,
                journal_path: Optional[str] = None,
                checkpoint_path: Optional[str] = None,
                checkpoint_every: Optional[int] = None,
                flush_every: int = 1024,
                kill_at_slot: Optional[int] = None,
                bench_path: Optional[str] = None,
                name: str = "service",
                metrics_port: Optional[int] = None,
                profile: bool = False,
                profile_out: Optional[str] = None,
                profile_mem: bool = False) -> Dict[str, Any]:
    """Run one loadgen pass; returns a summary dict.

    Args:
        kill_at_slot: abandon the service (crash simulation: nothing
            flushed or finalized) once this slot has executed.  The
            summary then carries ``"killed": True`` and no bench file
            is written.
        bench_path: write a ``BENCH_<name>.json`` manifest here.
        metrics_port: additionally serve `/metrics` / `/healthz` /
            `/readyz` on this port while the run drains (0 = pick a
            free port; printed to stderr).
        profile: capture a span-attribution digest plus cProfile stats
            for the serve loop; the digest lands in the summary under
            ``"profile"`` and in the bench manifest's ``profiles``.
        profile_out: write a collapsed-stack (flamegraph.pl /
            speedscope loadable) ``.folded`` file here; implies
            ``profile``.
        profile_mem: trace allocations with :mod:`tracemalloc` - the
            serve loop publishes ``service_alloc_{current,peak}_kb``
            gauges and the summary gains top allocation sites.
    """
    config = build_config(arrivals, rate, policy=policy, seed=seed,
                          queue_limit=queue_limit,
                          journal_path=journal_path,
                          checkpoint_path=checkpoint_path,
                          checkpoint_every=checkpoint_every,
                          flush_every=flush_every)
    service = AdmissionService(config)
    capture = profiling.Capture(profile=bool(profile or profile_out),
                                profile_mem=profile_mem,
                                registry=service.metrics)
    began = time.perf_counter()  # repro: noqa DET010 -- advisory runtime metric
    killed_summary: Optional[Dict[str, Any]] = None
    with capture:
        if kill_at_slot is not None:
            while not service.done:
                report = service.tick()
                if report.outcome.slot >= kill_at_slot:
                    killed_summary = {
                        "killed": True,
                        "slot": report.outcome.slot,
                        "counters": service.counters,
                        "registry_counters":
                            service.metrics.snapshot()["counters"]}
                    break
        elif metrics_port is not None:
            _serve_with_endpoint(service, metrics_port)
        else:
            _drain(service)
        if killed_summary is None:
            service.close()
    if killed_summary is not None:
        return killed_summary
    elapsed = time.perf_counter() - began  # repro: noqa DET010 -- advisory runtime metric
    return finish_run(service, elapsed, bench_path=bench_path,
                      name=name, captured=capture,
                      profile_out=profile_out)


def run_resume(checkpoint_path: str,
               bench_path: Optional[str] = None,
               name: str = "service",
               metrics_port: Optional[int] = None,
               profile: bool = False,
               profile_out: Optional[str] = None,
               profile_mem: bool = False) -> Dict[str, Any]:
    """Resume a killed service from its checkpoint and run to drain.

    The checkpoint's registry state is restored into a fresh
    registry, so the reported tallies and series continue from their
    pre-kill values.  The ``profile*`` knobs mirror :func:`run_loadgen`
    and cover only the resumed portion.
    """
    service = AdmissionService.resume(checkpoint_path)
    capture = profiling.Capture(profile=bool(profile or profile_out),
                                profile_mem=profile_mem,
                                registry=service.metrics)
    began = time.perf_counter()  # repro: noqa DET010 -- advisory runtime metric
    with capture:
        if metrics_port is not None:
            _serve_with_endpoint(service, metrics_port)
        else:
            _drain(service)
        service.close()
    elapsed = time.perf_counter() - began  # repro: noqa DET010 -- advisory runtime metric
    return finish_run(service, elapsed, bench_path=bench_path,
                      name=name, resumed=True, captured=capture,
                      profile_out=profile_out)


def finish_run(service: AdmissionService, elapsed_s: float,
               bench_path: Optional[str] = None,
               name: str = "service",
               resumed: bool = False,
               captured: Optional[profiling.Capture] = None,
               profile_out: Optional[str] = None) -> Dict[str, Any]:
    """Build the summary (and optionally the bench manifest)."""
    row = _metrics_row(service, elapsed_s)
    summary: Dict[str, Any] = {
        "killed": False,
        "resumed": resumed,
        "policy": service.config.policy,
        "metrics": row,
        "registry_counters": service.metrics.snapshot()["counters"],
    }
    digest = captured.digest if captured else None
    memory = captured.memory if captured else None
    if digest is not None:
        summary["profile"] = digest.to_dict()
        print(profiling.render_digest(digest, top=10),
              file=sys.stderr)
        if profile_out is not None:
            lines = profiling.folded_from_stats(captured.stats)
            path = profiling.write_folded(profile_out, lines)
            print(f"collapsed stacks: {path} ({len(lines)} frames)",
                  file=sys.stderr)
    if memory is not None:
        summary["profile_mem"] = memory
        print(profiling.render_memory_top(memory[:10]),
              file=sys.stderr)
    if bench_path is not None:
        manifest = make_manifest(
            name, service.config, seeds=(service.config.sim.seed,),
            workers=1, phases={"serve": elapsed_s},
            metrics={"loadgen": row},
            profiles=({"loadgen": summary["profile"]}
                      if digest is not None else {}),
            extra={"policy": service.config.policy,
                   "mean_arrivals_per_slot":
                       service.config.mean_arrivals_per_slot,
                   "queue_limit": service.config.queue_limit,
                   "resumed": resumed})
        summary["bench_path"] = str(write_bench(bench_path, manifest))
    return summary

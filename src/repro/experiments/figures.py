"""Drivers for Figures 3-6 of the paper.

Each function reproduces one figure's sweep and returns the
:class:`~repro.sim.results.SweepResult` holding every algorithm's
reward / latency / runtime series.  Pass ``scale=paper_scale()`` for
the full Section VI configuration or ``scale=bench_scale()`` (default)
for a fast run with the same qualitative shapes.

All drivers accept ``workers``: with ``workers > 1`` the sweep's
(algorithm x x x seed) grid executes on a process pool via
:mod:`~repro.experiments.executor`, returning records identical to the
serial run (``workers=0`` means one worker per CPU).  They also take
the observation knobs of
:func:`~repro.experiments.executor.execute_specs` (``trace``,
``journal``, ``profile``, ``profile_mem``, ``progress``) as keywords
and pass them through: records come back carrying what was observed,
and their metrics are identical with the knobs on or off.

:data:`FIGURES` is the one figure table and :func:`run_figures` the one
loop over it; ``python -m repro.experiments`` and
``python -m repro.experiments.report`` both run their figures through
them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..baselines import (GreedyOffline, GreedyOnline, HeuKktOffline,
                         HeuKktOnline, OcorpOffline, OcorpOnline)
from ..core.appro import Appro
from ..core.dynamic_rr import DynamicRR
from ..core.heu import Heu
from ..sim.results import SweepResult
from ..telemetry import (AuditOutcome, ProfileDigest, audit_records,
                         collect_sweep_profiles, collect_sweep_trace,
                         merge_memory, merge_stats)
from .executor import ProgressKnob, resolve_progress
from .runner import run_offline_sweep, run_online_sweep
from .settings import (ExperimentScale, base_config, bench_scale,
                       config_with_max_rate, config_with_stations)

#: Offline comparison set of Fig. 3 / Fig. 5.
OFFLINE_ALGORITHMS = (Appro, Heu, GreedyOffline, OcorpOffline,
                      HeuKktOffline)
#: Online comparison set of Fig. 4 / Fig. 6.
ONLINE_POLICIES = (DynamicRR, GreedyOnline, OcorpOnline, HeuKktOnline)


def figure3(scale: Optional[ExperimentScale] = None,
            workers: Optional[int] = 1, **observe: Any) -> SweepResult:
    """Fig. 3: offline algorithms vs number of requests.

    Series: total reward (a), average latency (b), running time (c),
    for Appro, Heu, Greedy, OCORP, HeuKKT over |R| = 100..300
    (bench scale: 60..180).
    """
    scale = (scale or bench_scale()).validate()
    return run_offline_sweep(
        algorithm_factories=[cls for cls in OFFLINE_ALGORITHMS],
        x_values=list(scale.request_counts),
        make_config=lambda x, seed: base_config(seed),
        num_requests_of=lambda x: int(x),
        num_seeds=scale.num_seeds,
        x_label="num_requests",
        workers=workers,
        **observe,
    )


def figure4(scale: Optional[ExperimentScale] = None,
            workers: Optional[int] = 1, **observe: Any) -> SweepResult:
    """Fig. 4: online algorithms vs number of requests.

    Series: total reward (a) and average latency (b) for DynamicRR,
    Greedy, OCORP, HeuKKT with slotted arrivals over the horizon.
    """
    scale = (scale or bench_scale()).validate()
    return run_online_sweep(
        policy_factories=[cls for cls in ONLINE_POLICIES],
        x_values=list(scale.request_counts),
        make_config=lambda x, seed: base_config(seed),
        num_requests_of=lambda x: int(x),
        horizon_slots=scale.horizon_slots,
        num_seeds=scale.num_seeds,
        x_label="num_requests",
        workers=workers,
        **observe,
    )


def figure5(scale: Optional[ExperimentScale] = None,
            include_online: bool = True,
            workers: Optional[int] = 1, **observe: Any) -> SweepResult:
    """Fig. 5: all algorithms vs number of base stations.

    The paper plots Appro, Heu, DynamicRR, Greedy, OCORP and HeuKKT
    with |R| fixed (150) while |BS| varies from 10 to 50.  The offline
    algorithms run on the batch problem; DynamicRR runs on the slotted
    problem with the same per-seed workload size.
    """
    scale = (scale or bench_scale()).validate()
    sweep = run_offline_sweep(
        algorithm_factories=[cls for cls in OFFLINE_ALGORITHMS],
        x_values=list(scale.station_counts),
        make_config=lambda x, seed: config_with_stations(int(x), seed),
        num_requests_of=lambda x: scale.fig5_num_requests,
        num_seeds=scale.num_seeds,
        x_label="num_stations",
        workers=workers,
        **observe,
    )
    if include_online:
        online = run_online_sweep(
            policy_factories=[DynamicRR],
            x_values=list(scale.station_counts),
            make_config=lambda x, seed: config_with_stations(int(x), seed),
            num_requests_of=lambda x: scale.fig5_num_requests,
            horizon_slots=scale.horizon_slots,
            num_seeds=scale.num_seeds,
            x_label="num_stations",
            workers=workers,
            **observe,
        )
        sweep.extend(online.records)
    return sweep


def figure6(scale: Optional[ExperimentScale] = None,
            workers: Optional[int] = 1, **observe: Any) -> SweepResult:
    """Fig. 6: online algorithms vs the maximum data rate of a request.

    The max rate sweeps 15..35 MB/s (support minimum scales along);
    both reward and latency should increase with the maximum rate.
    """
    scale = (scale or bench_scale()).validate()
    return run_online_sweep(
        policy_factories=[cls for cls in ONLINE_POLICIES],
        x_values=list(scale.max_rates_mbps),
        make_config=lambda x, seed: config_with_max_rate(float(x), seed),
        num_requests_of=lambda x: scale.fig6_num_requests,
        horizon_slots=scale.horizon_slots,
        num_seeds=scale.num_seeds,
        x_label="max_rate_mbps",
        workers=workers,
        **observe,
    )


#: Figure id -> (driver, panels), in run order: the one figure table.
#: :func:`run_figures` reads it when it runs, so a patched entry takes
#: effect in both experiment CLIs.
FIGURES: Dict[str, Tuple[Callable[..., SweepResult], Tuple[str, ...]]] = {
    "3": (figure3, ("total_reward", "avg_latency_ms", "runtime_s")),
    "4": (figure4, ("total_reward", "avg_latency_ms")),
    "5": (figure5, ("total_reward", "avg_latency_ms")),
    "6": (figure6, ("total_reward", "avg_latency_ms")),
}


@dataclass
class FigureRun:
    """The figures one :func:`run_figures` call ran, and what it saw.

    Attributes:
        scale: the validated preset the figures ran at.
        workers: the worker knob they ran with.
        profiled: the runs were profiled (digests, cProfile stats).
        profiled_mem: the runs captured their allocation sites.
        figures: ``(figure id, panels)`` in run order.
        sweeps: ``"fig<id>"`` -> the figure's sweep.
        phases: ``"fig<id>"`` -> wall-clock seconds of its driver.
        trace: the merged trace, each event tagged with its
            ``figure``; None unless traced.
        journal: the merged decision journal, tagged the same way;
            None unless journaled.
    """

    scale: ExperimentScale
    workers: Optional[int]
    profiled: bool = False
    profiled_mem: bool = False
    figures: List[Tuple[str, Tuple[str, ...]]] = field(
        default_factory=list)
    sweeps: Dict[str, SweepResult] = field(default_factory=dict)
    phases: Dict[str, float] = field(default_factory=dict)
    trace: Optional[List[Dict[str, Any]]] = None
    journal: Optional[List[Dict[str, Any]]] = None

    def _records(self):
        return (record for sweep in self.sweeps.values()
                for record in sweep.records)

    @cached_property
    def digests(self) -> Dict[str, ProfileDigest]:
        """Per-algorithm merged profile digests (``fig<id>/<algo>``
        keys when several figures ran)."""
        return collect_sweep_profiles(self.sweeps)

    @cached_property
    def stats(self) -> Dict[str, Any]:
        """The cProfile stats of every profiled run, merged."""
        return merge_stats(record.profile_stats
                           for record in self._records()
                           if record.profile_stats)

    @cached_property
    def memory(self) -> List[Dict[str, Any]]:
        """The top allocation sites of every run, merged."""
        return merge_memory(record.profile_mem
                            for record in self._records()
                            if record.profile_mem)

    @cached_property
    def audits(self) -> Dict[str, AuditOutcome]:
        """``"fig<id>"`` -> its journaled runs replayed through the
        invariant monitor."""
        return {name: audit_records(sweep.records)
                for name, sweep in self.sweeps.items()}


def run_figures(scale: Optional[ExperimentScale] = None,
                figure_ids: Optional[Sequence[str]] = None,
                workers: Optional[int] = 1,
                trace: bool = False,
                journal: bool = False,
                profile: bool = False,
                profile_mem: bool = False,
                progress: ProgressKnob = None,
                on_figure: Optional[Callable[
                    [str, SweepResult, Tuple[str, ...]], None]] = None
                ) -> FigureRun:
    """Run figures from :data:`FIGURES` and merge what they observed.

    Each driver is called as ``driver(scale, workers=N, **knobs)``,
    with only the observation knobs that are on, so a driver without
    the newer knobs keeps working unless one is asked for.

    Args:
        figure_ids: the keys of :data:`FIGURES` to run, in order (all
            of them when None).
        trace / journal / profile / profile_mem / progress: the
            observation knobs of every figure driver; observation
            only, the sweeps are identical with them on or off.
        on_figure: called as ``on_figure(figure_id, sweep, panels)``
            as soon as each figure finishes.
    """
    scale = (scale or bench_scale()).validate()
    run = FigureRun(scale, workers, profiled=profile,
                    profiled_mem=profile_mem,
                    trace=[] if trace else None,
                    journal=[] if journal else None)
    knobs = {name: True for name, on in (
        ("trace", trace), ("journal", journal), ("profile", profile),
        ("profile_mem", profile_mem)) if on}
    reporter = resolve_progress(progress)
    for figure_id in (list(FIGURES) if figure_ids is None
                      else figure_ids):
        driver, panels = FIGURES[figure_id]
        kwargs: Dict[str, Any] = dict(knobs, workers=workers)
        if reporter is not None:
            reporter.set_phase(f"fig{figure_id}")
            kwargs["progress"] = reporter
        started = time.perf_counter()  # repro: noqa DET010 -- advisory runtime metric
        sweep = driver(scale, **kwargs)
        run.phases[f"fig{figure_id}"] = time.perf_counter() - started  # repro: noqa DET010 -- advisory runtime metric
        run.sweeps[f"fig{figure_id}"] = sweep
        run.figures.append((figure_id, panels))
        for stream, merged in (("trace", run.trace),
                               ("journal", run.journal)):
            if merged is not None:
                for event in collect_sweep_trace(sweep.records,
                                                 stream=stream):
                    event["figure"] = figure_id
                    merged.append(event)
        if on_figure is not None:
            on_figure(figure_id, sweep, panels)
    return run

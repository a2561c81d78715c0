"""Per-layer tracing for the end-to-end benchmark, measured from outside.

Each layer is a named set of public functions of the ``repro`` package
(plus the HiGHS core inside scipy).  A traced run wraps every one of
them in a timing shim and restores the originals afterwards; nothing in
``src/`` is edited and none of the repository's own tracer, journal or
profiling hooks is installed, so a change to telemetry internals cannot
change how the benchmark measures.

Patch targets are found by identity: for a module-level function the
benchmark scans every loaded ``repro.*`` module for attributes that *are*
the original function object, so names imported elsewhere
(``from .lp_relaxation import build_lp_pt`` in ``dynamic_rr``) are
wrapped too.  Methods are wrapped once, on the class that defines them.

Self time of a span is its duration minus the time its child spans
cover.  A call into a layer from inside the same layer is counted but
not timed separately: the outer span already covers it.  The op itself
(``execute_run`` or ``AdmissionService.tick``) is the root span, so the
self times of one op sum to the op's time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Layer:
    """One traced layer.

    Attributes:
        name: layer name, after the repository module it covers.
        moves: end-to-end metrics a change to this layer should move.
        dominant: workloads on which the layer is expected to be busy;
            the tests require at least one call on each of them.
        targets: ``"module:qualname"`` of every public call timed.
    """

    name: str
    moves: str
    dominant: Tuple[str, ...]
    targets: Tuple[str, ...]


LAYERS: Tuple[Layer, ...] = (
    Layer("requests", "op_ms_p50, requests_per_s", ("service-greedy",), (
        "repro.requests.generator:RequestGenerator.generate_batch",
        "repro.requests.generator:RequestGenerator.generate_arrivals",
        "repro.requests.arrivals:PoissonArrivalStream.next_batch",
        "repro.requests.distributions:RateRewardDistribution.sample")),
    Layer("latency", "op_ms_p50", ("service-greedy",), (
        "repro.core.latency:LatencyModel.placement_delay_ms",
        "repro.core.latency:LatencyModel.placement_delays",
        "repro.core.latency:LatencyModel.total_delay_ms",
        "repro.core.latency:LatencyModel.split_delay_ms",
        "repro.core.latency:LatencyModel.is_feasible",
        "repro.core.latency:LatencyModel.feasible_stations")),
    Layer("lp_relaxation", "op_ms_p50, requests_per_s",
          ("fig3-offline", "fig4-online"), (
              "repro.core.lp_relaxation:build_lp_relaxation",
              "repro.core.lp_relaxation:build_lp_pt")),
    Layer("solver.highs", "op_ms_p50", ("fig3-offline",), (
        "scipy.optimize._linprog_highs:_highs_wrapper",)),
    Layer("solver.marshal", "op_ms_p50", ("fig3-offline", "fig4-online"), (
        "repro.solver.interface:solve_lp",
        "repro.core.lp_relaxation:LpIndex.options_table")),
    Layer("rounding", "op_ms_p50", ("fig3-offline", "fig4-online"), (
        "repro.core.rounding:randomized_round",
        "repro.core.rounding:admit_slot_by_slot")),
    Layer("bandits", "requests_per_s", ("fig4-online",), (
        "repro.bandits.lipschitz:LipschitzBandit.select_value",
        "repro.bandits.lipschitz:LipschitzBandit.record",
        "repro.core.threshold:select_slot_requests")),
    Layer("policy", "all", ("fig3-offline", "fig4-online", "service-greedy",
                            "service-dynamicrr"), (
        "repro.core.appro:Appro.run",
        "repro.core.heu:Heu.run",
        "repro.core.dynamic_rr:DynamicRR.schedule",
        "repro.core.dynamic_rr:DynamicRR.observe",
        "repro.baselines.base:OnlineBaselinePolicy.schedule")),
    Layer("sim", "requests_per_s, op_ms_p50",
          ("fig4-online", "service-greedy"), (
              "repro.experiments.executor:execute_run",
              "repro.sim.engine:run_offline",
              "repro.sim.online_engine:OnlineEngine.run",
              "repro.sim.online_engine:OnlineEngine.step",
              "repro.sim.online_engine:OnlineEngine.finalize")),
    Layer("telemetry", "op_ms_p50",
          ("service-dynamicrr", "service-greedy"), (
              "repro.telemetry.audit:Journal.record",
              "repro.telemetry.metrics:MetricsRegistry.inc",
              "repro.telemetry.metrics:MetricsRegistry.set_gauge",
              "repro.telemetry.metrics:MetricsRegistry.observe")),
    Layer("service", "op_ms_p50", ("service-greedy",), (
        "repro.service.loop:AdmissionService.tick",)),
    Layer("service.checkpoint", "requests_per_s",
          ("service-dynamicrr",), (
              "repro.service.checkpoint:write_checkpoint",
              "repro.sim.online_engine:OnlineEngine.export_state",
              "repro.core.dynamic_rr:DynamicRR.export_state",
              "repro.requests.arrivals:PoissonArrivalStream.export_state",
              "repro.telemetry.metrics:MetricsRegistry.export_state")),
)


# ----------------------------------------------------------------------
# Counts observed at the call boundaries, for the waste ratios
# ----------------------------------------------------------------------
def _argument(args: tuple, kwargs: dict, position: int, name: str) -> Any:
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else None


def _count(counts: Dict[str, float], key: str, value: float = 1) -> None:
    counts[key] = counts.get(key, 0) + value


def _after_build_lp_pt(counts, args, kwargs, result) -> None:
    workspace = _argument(args, kwargs, 3, "workspace")
    if workspace is not None and workspace.last_mode != "rebuild":
        _count(counts, "lp_pt_reused")


def _after_solve_lp(counts, args, kwargs, result) -> None:
    warm = _argument(args, kwargs, 2, "warm_start")
    if warm is not None and warm.last_mode == "hit":
        _count(counts, "warm_hits")


def _after_admit(counts, args, kwargs, result) -> None:
    _count(counts, "outcomes", len(result))
    _count(counts, "admitted", sum(1 for o in result if o.admitted))


def _after_write_checkpoint(counts, args, kwargs, result) -> None:
    _count(counts, "checkpoint_bytes", os.path.getsize(result))


#: Target -> hook run after each call with ``(counts, args, kwargs,
#: result)``; hooks add the numerators of :data:`RATIOS`.
HOOKS: Dict[str, Callable[..., None]] = {
    "repro.core.lp_relaxation:build_lp_pt": _after_build_lp_pt,
    "repro.solver.interface:solve_lp": _after_solve_lp,
    "repro.core.rounding:admit_slot_by_slot": _after_admit,
    "repro.service.checkpoint:write_checkpoint": _after_write_checkpoint,
}


@dataclass(frozen=True)
class Ratio:
    """A ratio of two counts where a layer can waste work.

    ``numerator`` and ``denominator`` name hook counts or target call
    counts; the denominator ``"ops"`` is the number of traced ops.
    """

    name: str
    unit: str
    better: str
    numerator: str
    denominator: str


RATIOS: Tuple[Ratio, ...] = (
    Ratio("lp_relaxation.reuse_ratio", "fraction", "higher",
          "lp_pt_reused", "repro.core.lp_relaxation:build_lp_pt"),
    Ratio("solver.warm_hit_ratio", "fraction", "higher",
          "warm_hits", "repro.solver.interface:solve_lp"),
    Ratio("rounding.admit_ratio", "fraction", "higher",
          "admitted", "outcomes"),
    Ratio("rounding.rounds_per_solve", "rounds/solve", "lower",
          "repro.core.rounding:randomized_round",
          "repro.solver.interface:solve_lp"),
    Ratio("service.checkpoint.bytes_per_write", "bytes", "lower",
          "checkpoint_bytes", "repro.service.checkpoint:write_checkpoint"),
    Ratio("telemetry.journal_events_per_op", "events/op", "lower",
          "repro.telemetry.audit:Journal.record", "ops"),
)


def per_layer_metrics() -> List[Dict[str, str]]:
    """The ``per_layer`` metric specs, in emission order."""
    specs: List[Dict[str, str]] = []
    for layer in LAYERS:
        # ROADMAP: a path is finished when the HiGHS core is its
        # largest layer, so only that layer's share should grow.
        share_better = "higher" if layer.name == "solver.highs" else "lower"
        specs.append({"name": f"{layer.name}.self_ms_per_op", "unit": "ms",
                      "better": "lower"})
        specs.append({"name": f"{layer.name}.share", "unit": "fraction",
                      "better": share_better})
        specs.append({"name": f"{layer.name}.calls_per_op",
                      "unit": "calls/op", "better": "lower"})
    for ratio in RATIOS:
        specs.append({"name": ratio.name, "unit": ratio.unit,
                      "better": ratio.better})
    return specs


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
@dataclass
class OpTrace:
    """Aggregates of one traced op.

    Attributes:
        op_id: the op's id (its expected-digest key).
        op_s: the op's time as the harness measured it.
        counts: calls per target plus hook counts.
        layers: layer -> ``[calls, total_s, self_s]``.
    """

    op_id: str
    op_s: float
    counts: Dict[str, float]
    layers: Dict[str, List[float]]


class Recorder:
    """Keeps per-(op, layer) aggregates in memory while ops run.

    Args:
        clock: time source (seconds); tests pass a fake one.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        #: Open spans ``[layer, start, child_s]``; None between ops, so
        #: calls made outside an op (service construction) pass through.
        self.frames: Optional[List[list]] = None
        self.counts: Dict[str, float] = {}
        self.layers: Dict[str, List[float]] = {}
        self.op_id = ""
        self.ops: List[OpTrace] = []

    def begin_op(self, op_id: str) -> None:
        self.op_id = op_id
        self.frames = []
        self.counts = {}
        self.layers = {}

    def enter(self, layer: str) -> None:
        self.frames.append([layer, self.clock(), 0.0])

    def leave(self) -> None:
        layer, start, child = self.frames.pop()
        elapsed = self.clock() - start
        agg = self.layers.get(layer)
        if agg is None:
            agg = self.layers[layer] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += elapsed
        agg[2] += elapsed - child
        if self.frames:
            self.frames[-1][2] += elapsed

    def end_op(self, op_s: float) -> OpTrace:
        trace = OpTrace(self.op_id, op_s, self.counts, self.layers)
        self.ops.append(trace)
        self.frames = None
        return trace


def _wrap(original: Callable, target: str, layer: str,
          recorder: Recorder) -> Callable:
    hook = HOOKS.get(target)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        frames = recorder.frames
        if frames is None:
            return original(*args, **kwargs)
        counts = recorder.counts
        counts[target] = counts.get(target, 0) + 1
        if frames and frames[-1][0] == layer:
            result = original(*args, **kwargs)
        else:
            recorder.enter(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.leave()
        if hook is not None:
            hook(counts, args, kwargs, result)
        return result

    traced.e2e_bench_target = target
    return traced


# ----------------------------------------------------------------------
# Patching
# ----------------------------------------------------------------------
def resolve(target: str) -> Tuple[Any, str, Callable]:
    """``(owner, attribute, original)`` of one ``"module:qualname"``.

    Raises:
        LookupError: the module, class or function no longer exists
            under that name, or the method is inherited rather than
            defined on the named class.
    """
    module_name, qualname = target.split(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError as error:
        raise LookupError(f"{target}: {error}") from error
    owner: Any = module
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"{target}: no {part} in {module_name}")
    if isinstance(owner, type):
        original = owner.__dict__.get(attribute)
    else:
        original = getattr(owner, attribute, None)
    if not callable(original):
        raise LookupError(f"{target}: not a function defined there")
    return owner, attribute, original


def _holders(original: Callable, home: str):
    """``(module, attribute)`` of every loaded module holding ``original``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == home or name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                yield module, attribute


def all_targets() -> List[Tuple[str, str]]:
    """``(layer, target)`` for every target of every layer."""
    return [(layer.name, target) for layer in LAYERS
            for target in layer.targets]


class Patcher:
    """Installs the timing shims; restores every attribute on exit."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        #: ``(owner, attribute, original)`` of every attribute replaced.
        self.saved: List[Tuple[Any, str, Callable]] = []

    def install(self) -> None:
        for layer, target in all_targets():
            owner, attribute, original = resolve(target)
            traced = _wrap(original, target, layer, self.recorder)
            if isinstance(owner, type):
                holders = [(owner, attribute)]
            else:
                holders = list(_holders(original, owner.__name__))
            for holder, name in holders:
                self.saved.append((holder, name, original))
                setattr(holder, name, traced)

    def restore(self) -> None:
        while self.saved:
            holder, name, original = self.saved.pop()
            setattr(holder, name, original)

    def __enter__(self) -> "Patcher":
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
def summarize(ops: List[OpTrace]) -> Dict[str, Any]:
    """Per-layer totals, the per-layer metrics and the ratios."""
    num_ops = len(ops)
    op_s = sum(op.op_s for op in ops)
    counts: Dict[str, float] = {"ops": num_ops}
    layer_s: Dict[str, List[float]] = {layer.name: [0.0, 0.0]
                                       for layer in LAYERS}
    for op in ops:
        for key, value in op.counts.items():
            counts[key] = counts.get(key, 0) + value
        for name, (_spans, total, self_s) in op.layers.items():
            layer_s[name][0] += total
            layer_s[name][1] += self_s
    per_op = max(num_ops, 1)
    layers: Dict[str, Dict[str, Any]] = {}
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        calls = sum(counts.get(target, 0) for target in layer.targets)
        total, self_s = layer_s[layer.name]
        row = {
            "self_ms_per_op": self_s * 1000.0 / per_op,
            "share": self_s / op_s if op_s > 0 else 0.0,
            "calls_per_op": calls / per_op,
            "total_ms_per_op": total * 1000.0 / per_op,
            "calls": {target: counts.get(target, 0)
                      for target in layer.targets},
        }
        layers[layer.name] = row
        for key in ("self_ms_per_op", "share", "calls_per_op"):
            metrics[f"{layer.name}.{key}"] = row[key]
    ratios: Dict[str, Dict[str, float]] = {}
    for ratio in RATIOS:
        numerator = counts.get(ratio.numerator, 0)
        denominator = counts.get(ratio.denominator, 0)
        value = numerator / denominator if denominator else 0.0
        ratios[ratio.name] = {"value": value, "numerator": numerator,
                              "denominator": denominator}
        metrics[ratio.name] = value
    attributed = sum(row["share"] for row in layers.values())
    return {"ops": num_ops, "op_ms_per_op": op_s * 1000.0 / per_op,
            "attributed": attributed, "layers": layers, "ratios": ratios,
            "metrics": metrics}


def render(summary: Dict[str, Any]) -> str:
    """The layer table of one workload, with ratios and their bases."""
    lines = [f"{'layer':<20}{'self ms/op':>12}{'share':>8}"
             f"{'calls/op':>11}  should move"]
    for layer in LAYERS:
        row = summary["layers"][layer.name]
        lines.append(f"{layer.name:<20}{row['self_ms_per_op']:>12.3f}"
                     f"{row['share']:>8.1%}{row['calls_per_op']:>11.1f}"
                     f"  {layer.moves}")
    lines.append(f"{'sum of self times':<20}{'':>12}"
                 f"{summary['attributed']:>8.1%}  of op time")
    for ratio in RATIOS:
        entry = summary["ratios"][ratio.name]
        lines.append(f"{ratio.name:<38}{entry['value']:>12.4g}  "
                     f"({entry['numerator']:g} / {entry['denominator']:g} "
                     f"{_base_label(ratio.denominator)})")
    return "\n".join(lines)


def _base_label(denominator: str) -> str:
    if denominator == "ops":
        return "ops"
    if ":" in denominator:
        return denominator.split(":")[1] + " calls"
    return denominator


def write_trace(directory: str, workload: str, ops: List[OpTrace],
                summary: Dict[str, Any], extra: Dict[str, Any]) -> None:
    """Write ``spans.jsonl`` (one line per op and per (op, layer), with
    the op id as parent) and ``layers.json`` (the summary)."""
    os.makedirs(directory, exist_ok=True)
    targets = {layer.name: layer.targets for layer in LAYERS}
    with open(os.path.join(directory, "spans.jsonl"), "w",
              encoding="utf-8") as handle:
        for op in ops:
            root = f"op:{op.op_id}"
            handle.write(json.dumps({"span": root, "parent": None,
                                     "ms": op.op_s * 1000.0}) + "\n")
            for name, (spans, total, self_s) in sorted(op.layers.items()):
                handle.write(json.dumps({
                    "span": f"{root}/{name}", "parent": root,
                    "layer": name, "spans": spans,
                    "calls": sum(op.counts.get(target, 0)
                                 for target in targets[name]),
                    "total_ms": total * 1000.0,
                    "self_ms": self_s * 1000.0}) + "\n")
    report = {"workload": workload, **extra, **summary}
    with open(os.path.join(directory, "layers.json"), "w",
              encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")

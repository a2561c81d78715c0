"""Whole-program rules: DET010 transitive nondeterminism, CONC001
shared mutable state, CONC002 blocking-in-async, PKL010 pickling
reachability, UNIT010 interprocedural unit flow.

These are the call-graph upgrades of the file-local catalogue: where
DET001 flags a ``time.time()`` *call*, DET010 follows its *value*
through returns, arguments, and ``self`` attributes until it reaches a
serialization sink; where PKL001 spots a lambda in a payload
expression, PKL010 walks the type closure of everything a payload can
carry.  All five share one :class:`~repro.analysis.dataflow.ProjectContext`
per scan.  See docs/ANALYSIS.md "Whole-program rules" for each rule's
sources/sinks/sanitizers tables and the over-approximation policy.
"""

from __future__ import annotations

from typing import (Dict, FrozenSet, Iterator, List, Optional, Set,
                    Tuple)

from .callgraph import split_node_key
from .dataflow import ProjectContext, TaintAnalysis, async_functions
from .findings import Finding
from .framework import DataflowRule, register
from .symbols import CallSite, FunctionSummary, unit_family

#: Wall-clock / OS-entropy callables whose values DET010 tracks.
DET010_SOURCES: FrozenSet[str] = frozenset({
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "os.urandom", "uuid.uuid1", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex",
    "secrets.token_urlsafe",
})

#: The telemetry *exposition layer*: functions here are opaque to
#: DET010 taint (scrape timestamps, advisory latency histograms, and
#: provenance clocks are wall-clock by meaning and cannot reach the
#: decision path - docs/ANALYSIS.md "DET001 and the exposition layer").
DET010_SANITIZERS: Tuple[str, ...] = (
    "telemetry/ledger.py",
    "telemetry/tracer.py",
    "telemetry/progress.py",
    "telemetry/metrics.py",
    "service/http.py",
    "service/console.py",
)

#: Serialization sinks: constructors of journaled/checkpointed records
#: and the journal's emission points (``emit`` builds its Event from
#: ``**fields``, which the taint pass does not follow into the callee).
_SINK_CALLS = ("Event", "ServiceCheckpoint", "emit", "emit_many")


def _sink_name(site: CallSite) -> Optional[str]:
    """The sink a call site writes into, or None."""
    if site.chain is None:
        return None
    parts = site.chain.split(".")
    leaf = parts[-1]
    if leaf in _SINK_CALLS:
        return leaf
    if leaf == "record" and len(parts) >= 2 \
            and "journal" in parts[-2].lower():
        return f"{parts[-2]}.record"
    return None


@register
class TransitiveNondeterminismRule(DataflowRule):
    """DET010: wall-clock/entropy values reaching serialization."""

    rule_id = "DET010"
    title = "wall-clock/OS-entropy value reaches a serialization sink"
    rationale = (
        "DET001 catches the call; this catches the *value*: a "
        "perf_counter reading laundered through two helpers into an "
        "Event payload or a ServiceCheckpoint field still breaks "
        "byte-identical replay.  Sinks are Event(...), "
        "ServiceCheckpoint(...), emit(...)/emit_many(...), and "
        "journal .record(...); the "
        "telemetry exposition layer is a declared sanitizer.")
    hint = ("keep wall-clock values inside the telemetry exposition "
            "layer (metrics/tracer/ledger); derive journaled fields "
            "from slots, seeds, and domain state only")

    def check_context(self, context: ProjectContext
                      ) -> Iterator[Finding]:
        analysis = TaintAnalysis(context, DET010_SOURCES,
                                 DET010_SANITIZERS)
        for key, summary, function in context.functions():
            if analysis.sanitized_path(summary.relpath):
                continue
            for site in function.calls:
                sink = _sink_name(site)
                if sink is None:
                    continue
                witness = analysis.site_arg_witness(
                    key, function, site.index)
                if witness is not None:
                    yield self.context_finding(
                        context, summary.relpath, site.lineno,
                        f"nondeterministic value flows into "
                        f"{sink}(...): {witness}",
                        col=site.col)


#: The sanctioned ambient-state idiom: ``use_tracer``/``use_journal``/
#: ``use_metrics`` swap a module-level ``_current`` in a context
#: manager.  Worker processes each get their own interpreter and the
#: service tick swaps it in a ``with`` block, so these writes are the
#: one blessed exception.
CONC001_BLESSED: Tuple[Tuple[str, str], ...] = (
    ("telemetry/tracer.py", "_current"),
    ("telemetry/audit.py", "_current"),
    ("telemetry/metrics.py", "_current"),
)

#: Concurrent entry points declared by path suffix + qualname (the
#: service tick and its coroutine driver), on top of the auto-detected
#: ``pool.submit``/``pool.map`` targets.
CONC001_DECLARED: Tuple[Tuple[str, str], ...] = (
    ("service/loop.py", "AdmissionService.tick"),
    ("service/loop.py", "AdmissionService.serve"),
)


@register
class SharedMutableStateRule(DataflowRule):
    """CONC001: globals written from concurrent entry points."""

    rule_id = "CONC001"
    title = "module-level global written from worker-reachable code"
    rationale = (
        "ROADMAP item 3 shards the engine across workers; a "
        "module-level dict or list written from code reachable from a "
        "ProcessPool target or the service tick is cross-run shared "
        "state - exactly what the determinism contract forbids.")
    hint = ("pass state explicitly (through the spec/config) or use "
            "the blessed use_tracer/use_journal/use_metrics ambient "
            "idiom; never write module globals from worker paths")

    def _entry_points(self, context: ProjectContext) -> List[str]:
        from .callgraph import pool_entry_points

        entries = pool_entry_points(context.summaries, context.table)
        for node in context.graph.nodes:
            relpath, qualname = split_node_key(node)
            for suffix, declared in CONC001_DECLARED:
                if relpath.endswith(suffix) and qualname == declared \
                        and node not in entries:
                    entries.append(node)
        return entries

    def check_context(self, context: ProjectContext
                      ) -> Iterator[Finding]:
        entries = self._entry_points(context)
        if not entries:
            return
        parents = context.graph.reachable(entries)
        seen: Set[Tuple[str, int, str]] = set()
        for reached in sorted(parents):
            relpath, qualname = split_node_key(reached)
            summary = context.summaries.get(relpath)
            if summary is None:
                continue
            function = summary.functions.get(qualname)
            if function is None:
                continue
            for row in function.global_writes:
                kind, name, lineno = str(row[0]), str(row[1]), \
                    int(row[2])
                if summary.globals.get(name) == "contextvar":
                    continue
                if any(relpath.endswith(path) and name == blessed
                       for path, blessed in CONC001_BLESSED):
                    continue
                anchor = (relpath, lineno, name)
                if anchor in seen:
                    continue
                seen.add(anchor)
                chain = context.graph.chain_to(parents, reached)
                route = " -> ".join(
                    split_node_key(step)[1] for step in chain)
                verb = "rebound" if kind == "rebind" \
                    else "mutated in place"
                yield self.context_finding(
                    context, relpath, lineno,
                    f"module-level global {name!r} is {verb} in "
                    f"{qualname}, reachable from concurrent entry "
                    f"point via {route}")


#: Calls that block the event loop when awaited nowhere.
CONC002_BLOCKING: FrozenSet[str] = frozenset({
    "time.sleep", "os.system",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output",
    "urllib.request.urlopen",
    "socket.create_connection", "select.select",
    "input",
})


@register
class BlockingInAsyncRule(DataflowRule):
    """CONC002: blocking call reachable from ``async def``."""

    rule_id = "CONC002"
    title = "blocking call reachable from async code"
    rationale = (
        "serve() multiplexes the admission loop with the scrape "
        "endpoint on one event loop; a time.sleep or synchronous "
        "urlopen anywhere in an async call chain stalls every "
        "coroutine - health probes go dark while a slot runs.")
    hint = ("await asyncio.sleep(...) instead, or hop the call off "
            "the loop via loop.run_in_executor / asyncio.to_thread "
            "(function references passed there are exempt)")

    def _is_blocking(self, context: ProjectContext, key: str,
                     site: CallSite) -> Optional[str]:
        resolution = context.graph.resolution(key, site.index)
        if resolution.kind == "external" \
                and resolution.qualified in CONC002_BLOCKING:
            return resolution.qualified
        if site.chain in CONC002_BLOCKING:
            return site.chain
        return None

    def check_context(self, context: ProjectContext
                      ) -> Iterator[Finding]:
        for async_key in async_functions(context):
            async_relpath, async_qualname = split_node_key(async_key)
            async_summary = context.summaries[async_relpath]
            async_fn = async_summary.functions[async_qualname]
            parents = context.graph.reachable([async_key])
            reported: Set[Tuple[str, int]] = set()
            for reached in sorted(parents):
                relpath, qualname = split_node_key(reached)
                function = context.summaries[relpath].functions.get(
                    qualname)
                if function is None:
                    continue
                for site in function.calls:
                    blocking = self._is_blocking(context, reached,
                                                 site)
                    if blocking is None:
                        continue
                    if reached == async_key:
                        anchor = (relpath, site.lineno)
                        if anchor in reported:
                            continue
                        reported.add(anchor)
                        yield self.context_finding(
                            context, relpath, site.lineno,
                            f"async {async_qualname} calls blocking "
                            f"{blocking}() directly", col=site.col)
                    else:
                        anchor = (relpath, site.lineno)
                        if anchor in reported:
                            continue
                        reported.add(anchor)
                        chain = context.graph.chain_to(parents,
                                                       reached)
                        route = " -> ".join(
                            split_node_key(step)[1]
                            for step in chain)
                        yield self.context_finding(
                            context, async_relpath, async_fn.lineno,
                            f"async {async_qualname} reaches blocking "
                            f"{blocking}() at {relpath}:{site.lineno} "
                            f"via {route}")


#: Constructors whose instances cannot cross a pickle boundary.
PKL010_UNPICKLABLE: FrozenSet[str] = frozenset({
    "threading.Lock", "threading.RLock", "threading.Event",
    "threading.Condition", "threading.Semaphore",
    "threading.BoundedSemaphore", "_thread.allocate_lock",
    "contextvars.ContextVar", "socket.socket", "subprocess.Popen",
    "mmap.mmap", "sqlite3.connect",
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.ThreadPoolExecutor",
    "concurrent.futures.process.ProcessPoolExecutor",
    "concurrent.futures.thread.ThreadPoolExecutor",
    "open", "io.open", "builtins.open",
    "tempfile.TemporaryFile", "tempfile.NamedTemporaryFile",
})

#: Payload roots whose transitive type closure must stay picklable.
_PKL_ROOTS = ("RunSpec", "ServiceCheckpoint")


@register
class PicklingReachabilityRule(DataflowRule):
    """PKL010: unpicklable types reachable from payload closures."""

    rule_id = "PKL010"
    title = "unpicklable type reachable from a RunSpec/ServiceCheckpoint"
    rationale = (
        "PKL001 spots a lambda at the payload call; this walks what "
        "the payload *carries*: a class two attribute-hops inside a "
        "checkpointed object that holds a threading.Lock or an open "
        "file fails to pickle only when --workers or checkpointing "
        "is actually exercised, far from the bug.")
    hint = ("keep payload object graphs to plain data (dataclasses, "
            "dicts, tuples); acquire locks/files/pools in the worker, "
            "not in state that crosses the boundary")

    def _descriptor_classes(self, context: ProjectContext,
                            relpath: str,
                            function: Optional[FunctionSummary],
                            descriptor: Optional[List[str]]
                            ) -> List[Tuple[str, str]]:
        if descriptor is None:
            return []
        summary = context.summaries[relpath]
        kind, detail = descriptor[0], descriptor[1]
        if kind == "ctor":
            ref = context.table.resolve_class_chain(summary, function,
                                                    detail)
            return [ref] if ref is not None else []
        if kind == "selfattr" and function is not None \
                and function.class_name is not None:
            refs = context.table.class_attr_types(
                relpath, function.class_name)
            return list(refs.get(detail, []))
        return []

    def _closure_roots(self, context: ProjectContext
                       ) -> Dict[Tuple[str, str], str]:
        roots: Dict[Tuple[str, str], str] = {}
        for key, summary, function in context.functions():
            for site in function.calls:
                if site.chain is None:
                    continue
                leaf = site.chain.split(".")[-1]
                if leaf not in _PKL_ROOTS:
                    continue
                provenance = (f"{leaf}(...) at "
                              f"{summary.relpath}:{site.lineno}")
                descriptors = list(site.arg_types) \
                    + [site.kw_types[name]
                       for name in sorted(site.kw_types)]
                for descriptor in descriptors:
                    for ref in self._descriptor_classes(
                            context, summary.relpath, function,
                            descriptor):
                        roots.setdefault(ref, provenance)
        for relpath in sorted(context.summaries):
            summary = context.summaries[relpath]
            for name in _PKL_ROOTS:
                cls = summary.classes.get(name)
                if cls is None:
                    continue
                for attr in sorted(cls.fields):
                    for chain in cls.fields[attr]:
                        ref = context.table.resolve_class_chain(
                            summary, None, chain)
                        if ref is not None:
                            roots.setdefault(
                                ref, f"{name}.{attr} field")
        return roots

    def check_context(self, context: ProjectContext
                      ) -> Iterator[Finding]:
        roots = self._closure_roots(context)
        # Transitive closure over typed attributes.
        worklist = sorted(roots)
        closure: Dict[Tuple[str, str], str] = dict(roots)
        while worklist:
            relpath, class_name = worklist.pop(0)
            provenance = closure[(relpath, class_name)]
            refs = context.table.class_attr_types(relpath, class_name)
            for attr in sorted(refs):
                for ref in refs[attr]:
                    if ref not in closure:
                        closure[ref] = provenance
                        worklist.append(ref)
        seen: Set[Tuple[str, int, str]] = set()
        for relpath, class_name in sorted(closure):
            provenance = closure[(relpath, class_name)]
            summary = context.summaries.get(relpath)
            if summary is None or class_name not in summary.classes:
                continue
            prefix = f"{class_name}."
            for qualname in sorted(summary.functions):
                if not qualname.startswith(prefix):
                    continue
                function = summary.functions[qualname]
                for lambda_row in function.attr_lambdas:
                    attr, lineno = str(lambda_row[0]), \
                        int(lambda_row[1])
                    anchor = (relpath, lineno, attr)
                    if anchor in seen:
                        continue
                    seen.add(anchor)
                    yield self.context_finding(
                        context, relpath, lineno,
                        f"{class_name}.{attr} holds a lambda; "
                        f"{class_name} is reachable from "
                        f"{provenance} and must pickle")
                for type_row in function.attr_types:
                    attr, chain, lineno = str(type_row[0]), \
                        str(type_row[1]), int(type_row[2])
                    qualified = self._external_name(context, relpath,
                                                    function, chain)
                    if qualified is None \
                            or qualified not in PKL010_UNPICKLABLE:
                        continue
                    anchor = (relpath, lineno, attr)
                    if anchor in seen:
                        continue
                    seen.add(anchor)
                    yield self.context_finding(
                        context, relpath, lineno,
                        f"{class_name}.{attr} holds {qualified}(); "
                        f"{class_name} is reachable from "
                        f"{provenance} and must pickle")

    def _external_name(self, context: ProjectContext, relpath: str,
                       function: FunctionSummary,
                       chain: str) -> Optional[str]:
        summary = context.summaries[relpath]
        resolution = context.table.resolve_chain(summary, function,
                                                 chain)
        if resolution.kind == "external":
            return resolution.qualified
        if resolution.kind == "unknown":
            return chain
        return None


@register
class InterproceduralUnitRule(DataflowRule):
    """UNIT010: mhz/mbps families tracked through calls and returns."""

    rule_id = "UNIT010"
    title = "mhz/mbps unit family crosses a call boundary unconverted"
    rationale = (
        "UNIT001 sees one expression at a time; a *_mbps return "
        "feeding a *_mhz parameter two modules away is the same 8x "
        "bug with a call boundary hiding it.  Families flow through "
        "parameter names, return names, and returned calls; "
        "repro.units converters are the declared crossing point.")
    hint = ("convert at the boundary via repro.units, or rename the "
            "parameter/return to the family actually carried")

    def _return_units(self, context: ProjectContext
                      ) -> Dict[str, Optional[str]]:
        units: Dict[str, Optional[str]] = {}
        for _ in range(10):
            changed = False
            for key, summary, function in context.functions():
                families: Set[str] = set(function.return_units)
                # The function's own name declares its return family
                # (``capacity_mhz()`` returns mhz even when the body
                # returns a bare constant).
                own = unit_family(function.qualname.rsplit(".", 1)[-1])
                if own is not None:
                    families.add(own)
                for call_index in function.return_calls:
                    family = self._callee_unit(context, units, key,
                                               function, call_index)
                    if family is not None:
                        families.add(family)
                resolved = families.pop() if len(families) == 1 \
                    else None
                if units.get(key) != resolved:
                    units[key] = resolved
                    changed = True
            if not changed:
                break
        return units

    @staticmethod
    def _is_units_module(relpath: str) -> bool:
        return relpath == "units.py" or relpath.endswith("/units.py")

    def _callee_unit(self, context: ProjectContext,
                     units: Dict[str, Optional[str]], key: str,
                     function: FunctionSummary,
                     call_index: int) -> Optional[str]:
        resolution = context.graph.resolution(key, call_index)
        if resolution.kind != "func" \
                or len(resolution.functions) != 1:
            return None
        target = resolution.functions[0]
        relpath, qualname = split_node_key(target)
        if self._is_units_module(relpath):
            return unit_family(qualname.rsplit(".", 1)[-1])
        return units.get(target)

    def _arg_family(self, context: ProjectContext,
                    units: Dict[str, Optional[str]], key: str,
                    function: FunctionSummary,
                    unit_desc: Optional[str]) -> Optional[str]:
        if unit_desc in ("mhz", "mbps"):
            return unit_desc
        if unit_desc is not None and unit_desc.startswith("call:"):
            return self._callee_unit(context, units, key, function,
                                     int(unit_desc.split(":", 1)[1]))
        return None

    def check_context(self, context: ProjectContext
                      ) -> Iterator[Finding]:
        units = self._return_units(context)
        for key, summary, function in context.functions():
            if self._is_units_module(summary.relpath):
                continue
            for site in function.calls:
                resolution = context.graph.resolution(key, site.index)
                if resolution.kind != "func" \
                        or len(resolution.functions) != 1:
                    continue
                target = resolution.functions[0]
                target_relpath, _ = split_node_key(target)
                if self._is_units_module(target_relpath):
                    continue
                callee = context.table.function(target)
                if callee is None:
                    continue
                offset = callee.param_offset() if resolution.bound \
                    else 0
                for position, unit_desc in enumerate(site.arg_units):
                    family = self._arg_family(context, units, key,
                                              function, unit_desc)
                    if family is None:
                        continue
                    index = position + offset
                    if index >= len(callee.params):
                        continue
                    expected = unit_family(callee.params[index])
                    if expected is not None and expected != family:
                        yield self.context_finding(
                            context, summary.relpath, site.lineno,
                            f"passes a *_{family} value into "
                            f"parameter {callee.params[index]!r} "
                            f"(*_{expected}) of {callee.qualname}",
                            col=site.col)
                for name in sorted(site.kw_units):
                    family = self._arg_family(context, units, key,
                                              function,
                                              site.kw_units[name])
                    expected = unit_family(name)
                    if family is not None and expected is not None \
                            and expected != family \
                            and callee.param_index(name) is not None:
                        yield self.context_finding(
                            context, summary.relpath, site.lineno,
                            f"passes a *_{family} value into "
                            f"parameter {name!r} (*_{expected}) of "
                            f"{callee.qualname}", col=site.col)
            for assign_row in function.unit_assigns:
                target_family, call_index, lineno = \
                    str(assign_row[0]), int(assign_row[1]), \
                    int(assign_row[2])
                family = self._callee_unit(context, units, key,
                                           function, call_index)
                if family is not None and family != target_family:
                    site = function.calls[call_index]
                    callee_name = site.chain or "<call>"
                    yield self.context_finding(
                        context, summary.relpath, lineno,
                        f"assigns the *_{family} return of "
                        f"{callee_name}(...) to a *_{target_family} "
                        f"name")

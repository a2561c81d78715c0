"""Whole-program rules: DET010 nondeterminism, CONC001 shared mutable
state, CONC002 blocking-in-async, PKL010 pickling, UNIT010 unit flow.

Each bug class has one rule.  DET010, PKL010 and UNIT010 check both
the file-local site (a ``time.time()`` call outside the clock
allowlist, a lambda passed into a payload constructor, a ``*_mhz``
operand meeting a ``*_mbps`` one) and the whole-program flow (the
clock's *value* reaching a serialization sink through any call chain,
an unpicklable type in a payload's type closure, a unit family
crossing a call boundary).  The flow checks share one
:class:`~repro.analysis.dataflow.ProjectContext` per scan.  See
docs/ANALYSIS.md "Whole-program rules" for each rule's
sources/sinks/sanitizers tables and the over-approximation policy.
"""

from __future__ import annotations

import ast
from typing import (Dict, FrozenSet, Iterator, List, Optional, Set,
                    Tuple)

from .callgraph import split_node_key
from .dataflow import ProjectContext, TaintAnalysis, async_functions
from .findings import Finding
from .framework import DataflowRule, ModuleInfo, dotted_name, register
from .symbols import (CallSite, FunctionSummary, collect_imports,
                      qualified_call, trailing_identifier, unit_family)

#: Wall-clock reads: flagged at the call site and tracked as values.
CLOCK_CALLS: FrozenSet[str] = frozenset({
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: OS-entropy draws: tracked as values only (seeding is DET002's).
ENTROPY_CALLS: FrozenSet[str] = frozenset({
    "os.urandom", "uuid.uuid1", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex",
    "secrets.token_urlsafe",
})

#: Callables whose values DET010 tracks to serialization sinks.
DET010_SOURCES: FrozenSet[str] = CLOCK_CALLS | ENTROPY_CALLS

#: Modules that may call a clock: provenance clocks (ledger, tracer,
#: progress) and the service's *exposition layer* (scrape timestamps
#: and poll pacing are wall-clock by meaning, and nothing there can
#: reach journals, checkpoints, or records - docs/ANALYSIS.md, "DET010
#: and the exposition layer").
CLOCK_ALLOWLIST: Tuple[str, ...] = (
    "telemetry/ledger.py",
    "telemetry/tracer.py",
    "telemetry/progress.py",
    "service/http.py",
    "service/console.py",
)

#: Modules opaque to DET010's taint: the clock allowlist plus the
#: metrics registry, whose advisory latency histograms take clock
#: values from callers without calling a clock itself.
DET010_SANITIZERS: Tuple[str, ...] = CLOCK_ALLOWLIST + (
    "telemetry/metrics.py",)

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
    """DET010: wall-clock calls, and clock/entropy values reaching
    serialization."""

    rule_id = "DET010"
    title = ("wall-clock call outside the allowlist, or a wall-clock/"
             "OS-entropy value reaching a serialization sink")
    rationale = (
        "Wall-clock values leak machine-specific noise into records; "
        "PRs 2-4 each had to scrub clock fields out of serialized "
        "output to keep run replays byte-identical.  The rule flags "
        "the clock call itself and follows its *value*: a "
        "perf_counter reading laundered through two helpers into an "
        "Event payload or a ServiceCheckpoint field is reported at "
        "the sink.  Sinks are Event(...), ServiceCheckpoint(...), "
        "emit(...)/emit_many(...), and journal .record(...); the "
        "telemetry exposition layer is a declared sanitizer.")
    hint = ("route timing through repro.telemetry and derive "
            "journaled fields from slots, seeds, and domain state "
            "only; a justified advisory measurement needs "
            "'# repro: noqa DET010 -- why'")
    allowlist = CLOCK_ALLOWLIST

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        imports = collect_imports(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = qualified_call(imports, node)
            if qualified in CLOCK_CALLS:
                yield self.finding(
                    module, node,
                    f"wall-clock call {qualified}() in "
                    f"non-allowlisted module")

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

#: Payload constructors: RunSpecs cross the process-pool boundary,
#: Events are journaled, ServiceCheckpoints are pickled to disk.  Their
#: arguments and transitive type closures must stay picklable.
PKL_PAYLOADS = ("RunSpec", "Event", "ServiceCheckpoint")

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _shallow(scope: ast.AST) -> Iterator[ast.AST]:
    """Every node in ``scope`` without entering nested function bodies.

    Nested function nodes themselves are yielded (so callers can
    recurse into them explicitly); their bodies are not.
    """
    stack: List[ast.AST] = [scope]
    while stack:
        node = stack.pop()
        yield node
        if node is not scope and isinstance(node, _FUNCTION_NODES):
            continue
        stack.extend(ast.iter_child_nodes(node))


@register
class PicklingReachabilityRule(DataflowRule):
    """PKL010: unpicklable values passed into payloads, and unpicklable
    types reachable from their closures."""

    rule_id = "PKL010"
    title = ("unpicklable value or type in a RunSpec/Event/"
             "ServiceCheckpoint payload")
    rationale = (
        "Payloads cross the process-pool boundary, the journal, and "
        "the checkpoint file; a lambda, closure, or local class "
        "passed into one - or a class two attribute-hops inside it "
        "that holds a threading.Lock or an open file - fails to "
        "pickle only when --workers or checkpointing is actually "
        "exercised, far from the bug.")
    hint = ("pass module-level functions and classes (functools."
            "partial over module-level callables if needed) and keep "
            "payload object graphs to plain data; acquire locks/"
            "files/pools in the worker, not in state that crosses the "
            "boundary")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        yield from self._check_scope(module, module.tree, set())

    def _check_scope(self, module: ModuleInfo, scope: ast.AST,
                     inherited: Set[str]) -> Iterator[Finding]:
        local = set(inherited)
        nested: List[ast.AST] = []
        in_function = isinstance(scope, _FUNCTION_NODES)
        for node in _shallow(scope):
            if node is scope:
                continue
            if isinstance(node, _FUNCTION_NODES):
                nested.append(node)
                if in_function:
                    local.add(node.name)
            elif isinstance(node, ast.ClassDef) and in_function:
                local.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) \
                    and isinstance(node.value, ast.Lambda) and in_function:
                # ``cfg = lambda: 0`` pickles no better than the lambda.
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                local.update(target.id for target in targets
                             if isinstance(target, ast.Name))
        for node in _shallow(scope):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node, local)
        for child in nested:
            yield from self._check_scope(module, child, local)

    def _check_call(self, module: ModuleInfo, node: ast.Call,
                    local_names: Set[str]) -> Iterator[Finding]:
        chain = dotted_name(node.func)
        if chain is None:
            return
        ctor = chain.rsplit(".", 1)[-1]
        if ctor not in PKL_PAYLOADS:
            return
        values: List[ast.expr] = list(node.args)
        values.extend(kw.value for kw in node.keywords)
        for value in values:
            for inner in ast.walk(value):
                if isinstance(inner, ast.Lambda):
                    yield self.finding(
                        module, inner,
                        f"lambda passed into {ctor}(...) cannot be "
                        f"pickled")
                elif isinstance(inner, ast.Name) \
                        and inner.id in local_names:
                    yield self.finding(
                        module, inner,
                        f"locally-defined {inner.id!r} passed into "
                        f"{ctor}(...) cannot be pickled")

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
                if leaf not in PKL_PAYLOADS:
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
            for name in PKL_PAYLOADS:
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


def _families(*operands: ast.AST) -> Set[str]:
    """The unit families the operands' suffixes name."""
    return {family for family in
            (unit_family(trailing_identifier(operand))
             for operand in operands) if family is not None}


@register
class InterproceduralUnitRule(DataflowRule):
    """UNIT010: mhz/mbps mixed in an expression, or tracked through
    calls and returns."""

    rule_id = "UNIT010"
    title = ("mhz/mbps quantities mixed or passed across a call "
             "boundary outside repro.units")
    rationale = (
        "The paper mixes MHz compute and MB/s-vs-Mbps stream rates; "
        "repro.units centralizes every conversion so no bare constant "
        "can silently be off by 8x.  The rule checks each expression "
        "and follows families through parameter names, return names, "
        "and returned calls: a *_mbps return feeding a *_mhz "
        "parameter two modules away is the same bug with a call "
        "boundary hiding it.")
    hint = ("convert explicitly via repro.units (demand_mhz, "
            "rate_from_demand, mbps_to_mbytes_per_s, ...), or rename "
            "the parameter/return to the family actually carried")
    allowlist = ("repro/units.py",)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.BinOp):
                if len(_families(node.left, node.right)) > 1:
                    yield self.finding(
                        module, node,
                        "arithmetic mixes *_mhz and *_mbps operands")
            elif isinstance(node, ast.Compare):
                if len(_families(node.left, *node.comparators)) > 1:
                    yield self.finding(
                        module, node,
                        "comparison mixes *_mhz and *_mbps operands")
            elif isinstance(node, ast.Assign) \
                    and len(node.targets) == 1:
                target = unit_family(
                    trailing_identifier(node.targets[0]))
                value = unit_family(trailing_identifier(node.value))
                if target and value and target != value:
                    yield self.finding(
                        module, node,
                        f"assigns a *_{value} value to a *_{target} "
                        f"name")

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

"""Forward taint/dataflow over the project call graph.

:func:`build_context` assembles everything the interprocedural rules
share: per-module summaries, the symbol table, and the
call graph.  :class:`TaintAnalysis` then runs a forward fixpoint for
one rule's ``(sources, sanitizers)`` declaration:

* a call to a *source* (``time.time``, ``os.urandom``, ...) taints its
  return value;
* taint propagates through assignments (tracked as value *origins* by
  :mod:`repro.analysis.symbols`), through arguments into resolved
  project callees' parameters, through their returns back to call
  sites, and through ``self.attr`` stores into every reader of that
  attribute;
* calls that cannot be resolved (externals, widened method calls) pass
  taint from arguments to their return value - the conservative
  over-approximation that keeps ``float(tainted)`` or
  ``f"{tainted}"`` tainted;
* functions defined in a *sanitizer* module are opaque: nothing inside
  them taints, and calls into them return clean values.  This is how
  the telemetry exposition layer (metrics registries, scrape handlers)
  is declared out of scope for DET010.

Every tainted fact carries a human-readable witness chain
(``"time.perf_counter() at repro/service/loop.py:343 -> ..."``) so a
finding three call-hops from its source still names the source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Tuple)

from .callgraph import (CallGraph, Resolution, SymbolTable,
                        build_callgraph, node_key, split_node_key)
from .framework import ModuleInfo
from .symbols import (CallSite, FunctionSummary, ModuleSummary, Origin,
                      summarize_module)

#: Longest witness chain carried on a finding message.
_WITNESS_CAP = 280


@dataclass
class ProjectContext:
    """Shared whole-program state handed to the dataflow rules."""

    modules: Dict[str, ModuleInfo] = field(default_factory=dict)
    summaries: Dict[str, ModuleSummary] = field(default_factory=dict)
    table: SymbolTable = field(
        default_factory=lambda: SymbolTable({}))
    graph: CallGraph = field(default_factory=CallGraph)

    def snippet(self, relpath: str, lineno: int) -> str:
        module = self.modules.get(relpath)
        return module.line(lineno) if module is not None else ""

    def functions(self) -> Iterable[Tuple[str, ModuleSummary,
                                          FunctionSummary]]:
        """Every project function as ``(node key, module, function)``,
        in deterministic order."""
        for relpath in sorted(self.summaries):
            summary = self.summaries[relpath]
            for qualname in sorted(summary.functions):
                yield (node_key(relpath, qualname), summary,
                       summary.functions[qualname])


def build_context(modules: Sequence[ModuleInfo]) -> ProjectContext:
    """Summarize every module and build the graph."""
    context = ProjectContext()
    for module in modules:
        context.modules[module.relpath] = module
        context.summaries[module.relpath] = summarize_module(module)
    context.table = SymbolTable(context.summaries)
    context.graph = build_callgraph(context.summaries, context.table)
    return context


def _clip(witness: str) -> str:
    if len(witness) <= _WITNESS_CAP:
        return witness
    return witness[:140] + " ... " + witness[-120:]


class TaintAnalysis:
    """One rule's taint fixpoint over a built :class:`ProjectContext`.

    Args:
        context: the shared project state.
        sources: fully-qualified external callables whose return
            values are tainted.
        sanitizer_suffixes: module relpath suffixes whose functions
            are opaque to this analysis (see the module docstring).
    """

    def __init__(self, context: ProjectContext,
                 sources: FrozenSet[str],
                 sanitizer_suffixes: Tuple[str, ...] = ()) -> None:
        self.context = context
        self.sources = sources
        self.sanitizer_suffixes = sanitizer_suffixes
        #: (function node key, call index) -> witness chain.
        self.call_taint: Dict[Tuple[str, int], str] = {}
        #: function node key -> witness chain for its return value.
        self.ret_taint: Dict[str, str] = {}
        #: (function node key, parameter index) -> witness chain.
        self.param_taint: Dict[Tuple[str, int], str] = {}
        #: (class node key, attribute name) -> witness chain.
        self.attr_taint: Dict[Tuple[str, str], str] = {}
        self._run()

    # -- queries -------------------------------------------------------
    def sanitized_path(self, relpath: str) -> bool:
        return any(relpath.endswith(suffix)
                   for suffix in self.sanitizer_suffixes)

    def origin_witness(self, key: str, function: FunctionSummary,
                       origin: Origin) -> Optional[str]:
        """Witness chain if this origin is tainted inside ``key``."""
        kind, detail = origin
        if kind == "param":
            return self.param_taint.get((key, int(detail)))
        if kind == "call":
            return self.call_taint.get((key, int(detail)))
        if kind == "attr" and function.class_name is not None:
            relpath, _ = split_node_key(key)
            class_key = node_key(relpath, function.class_name)
            return self.attr_taint.get((class_key, detail))
        return None

    def origins_witness(self, key: str, function: FunctionSummary,
                        origins: Iterable[Origin]) -> Optional[str]:
        for origin in sorted(origins):
            witness = self.origin_witness(key, function, origin)
            if witness is not None:
                return witness
        return None

    # -- fixpoint ------------------------------------------------------
    def _targets(self, resolution: Resolution
                 ) -> List[Tuple[str, FunctionSummary]]:
        out: List[Tuple[str, FunctionSummary]] = []
        for target in resolution.functions:
            function = self.context.table.function(target)
            if function is not None:
                out.append((target, function))
        return out

    def _all_sanitized(self, resolution: Resolution) -> bool:
        keys = list(resolution.functions)
        if resolution.class_key is not None:
            keys.append(resolution.class_key)
        if not keys:
            return False
        return all(self.sanitized_path(split_node_key(k)[0])
                   for k in keys)

    def site_arg_witness(self, key: str, function: FunctionSummary,
                          site_index: int) -> Optional[str]:
        site = function.calls[site_index]
        for origins in site.arg_origins:
            witness = self.origins_witness(key, function, origins)
            if witness is not None:
                return witness
        for name in sorted(site.kw_origins):
            witness = self.origins_witness(key, function,
                                           site.kw_origins[name])
            if witness is not None:
                return witness
        return None

    def _run(self) -> None:
        for _ in range(60):
            if not self._pass():
                break

    def _set(self, table: Dict[Any, str], fact: Any,
             witness: str) -> bool:
        if fact in table:
            return False
        table[fact] = _clip(witness)
        return True

    def _pass(self) -> bool:
        changed = False
        for key, summary, function in self.context.functions():
            if self.sanitized_path(summary.relpath):
                continue
            for site in function.calls:
                resolution = self.context.graph.resolution(
                    key, site.index)
                fact = (key, site.index)
                # 1. source call -> tainted return.
                if resolution.kind == "external" \
                        and resolution.qualified in self.sources:
                    changed = self._set(
                        self.call_taint, fact,
                        f"{resolution.qualified}() at "
                        f"{summary.relpath}:{site.lineno}") or changed
                    continue
                sanitized = self._all_sanitized(resolution)
                targets = [] if sanitized \
                    else self._targets(resolution)
                if resolution.kind in ("func", "class") \
                        and (targets or sanitized):
                    # 2. resolved project callee: returns carry its
                    # ret-taint; arguments taint its parameters.
                    for target, callee in targets:
                        witness = self.ret_taint.get(target)
                        if witness is not None:
                            changed = self._set(
                                self.call_taint, fact,
                                witness) or changed
                        changed = self._propagate_args(
                            key, function, site, resolution, target,
                            callee) or changed
                    if resolution.kind == "class" and not sanitized:
                        # Constructed objects wrap their arguments.
                        witness = self.site_arg_witness(
                            key, function, site.index)
                        if witness is not None:
                            changed = self._set(
                                self.call_taint, fact,
                                witness) or changed
                elif not sanitized:
                    # 3. external / unknown / widened: conservative
                    # argument pass-through.
                    witness = self.site_arg_witness(
                        key, function, site.index)
                    if witness is not None:
                        changed = self._set(
                            self.call_taint, fact, witness) or changed
            # 4. return taint.
            witness = self.origins_witness(key, function,
                                           function.return_origins)
            if witness is not None:
                changed = self._set(
                    self.ret_taint, key,
                    f"{witness} -> return of "
                    f"{function.qualname}") or changed
            # 5. attribute-store taint.
            if function.class_name is not None:
                class_key = node_key(summary.relpath,
                                     function.class_name)
                for row in function.attr_stores:
                    attr, origins = str(row[0]), row[1]
                    witness = self.origins_witness(key, function,
                                                   origins)
                    if witness is not None:
                        changed = self._set(
                            self.attr_taint, (class_key, attr),
                            f"{witness} -> self.{attr}") or changed
        return changed

    def _propagate_args(self, key: str, function: FunctionSummary,
                        site: CallSite, resolution: Resolution,
                        target: str,
                        callee: FunctionSummary) -> bool:
        changed = False
        offset = callee.param_offset() if resolution.bound else 0
        for position, origins in enumerate(site.arg_origins):
            witness = self.origins_witness(key, function, origins)
            if witness is None:
                continue
            index = position + offset
            if index < len(callee.params):
                changed = self._set(
                    self.param_taint, (target, index),
                    f"{witness} -> {callee.qualname}("
                    f"{callee.params[index]})") or changed
        for name in sorted(site.kw_origins):
            witness = self.origins_witness(key, function,
                                           site.kw_origins[name])
            if witness is None:
                continue
            index_opt = callee.param_index(name)
            if index_opt is not None:
                changed = self._set(
                    self.param_taint, (target, index_opt),
                    f"{witness} -> {callee.qualname}({name})") \
                    or changed
        return changed


def async_functions(context: ProjectContext) -> List[str]:
    """Node keys of every ``async def`` in the scanned tree."""
    return [key for key, _, function in context.functions()
            if function.is_async]

"""Per-module symbol summaries for the whole-program analysis pass.

:func:`summarize_module` distils one parsed module into a
:class:`ModuleSummary`: every import (relative imports resolved against
the module's dotted path), every top-level function and method with its
call sites, the *origins* each value derives from (parameters, call
returns, ``self`` attributes), module-level globals with their
mutability kind, and the functions handed to process pools.

Summaries are deliberately file-local - nothing here looks at another
module.  All cross-module resolution happens later, in
:mod:`repro.analysis.callgraph` and :mod:`repro.analysis.dataflow`.

The origin taxonomy (``Origin = (kind, detail)``):

``("param", "2")``
    derives from the function's parameter at index 2;
``("call", "5")``
    derives from the return value of this function's call site #5;
``("attr", "name")``
    derives from ``self.name`` of the enclosing class;
``("lambda", "")``
    is a lambda expression (pickling rules care).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from .framework import ModuleInfo, dotted_name

#: ``(kind, detail)`` provenance of a value (see the module docstring).
Origin = Tuple[str, str]

#: Method names that mutate their receiver in place (CONC001's notion
#: of "writing" a module-level container).
MUTATOR_METHODS = frozenset({
    "append", "appendleft", "add", "clear", "discard", "extend",
    "insert", "pop", "popleft", "popitem", "remove", "setdefault",
    "update", "sort", "reverse",
})

#: Constructors whose module-level result counts as a mutable global.
_MUTABLE_CTORS = frozenset({
    "dict", "list", "set", "deque", "defaultdict", "Counter",
    "OrderedDict",
})

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                ast.ClassDef)


def unit_family(identifier: Optional[str]) -> Optional[str]:
    """``"mhz"``/``"mbps"`` from a trailing unit suffix, else None."""
    if not identifier:
        return None
    tail = identifier.lower().rsplit("_", 1)[-1]
    return tail if tail in ("mhz", "mbps") else None


def trailing_identifier(node: ast.AST) -> Optional[str]:
    """The trailing identifier of a Name/Attribute operand."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


@dataclass
class CallSite:
    """One call expression inside a function body.

    ``chain`` is the callee exactly as written (``"time.time"``,
    ``"self._engine.export_state"``); resolution to a project function
    happens later.  ``arg_units`` entries are a unit family, a
    ``"call:<index>"`` reference to another call site whose return unit
    decides, or None.  ``arg_types`` entries are candidate value-type
    descriptors: ``["ctor", "Engine"]``, ``["name", "spec"]`` (typed
    via ``var_types``), or ``["selfattr", "_engine"]``.
    """

    index: int
    lineno: int
    col: int
    chain: Optional[str]
    arg_origins: List[List[Origin]] = field(default_factory=list)
    kw_origins: Dict[str, List[Origin]] = field(default_factory=dict)
    arg_units: List[Optional[str]] = field(default_factory=list)
    kw_units: Dict[str, Optional[str]] = field(default_factory=dict)
    arg_types: List[Optional[List[str]]] = field(default_factory=list)
    kw_types: Dict[str, Optional[List[str]]] = field(default_factory=dict)


@dataclass
class FunctionSummary:
    """Everything the cross-module stages need about one function.

    ``qualname`` is the module-local qualified name
    (``"AdmissionService.tick"`` for methods, bare for functions).
    ``global_writes`` rows are ``[kind, name, lineno]`` with kind
    ``"rebind"`` (``global x; x = ...``) or ``"mutate"`` (in-place
    write to a module-level container).  ``attr_stores`` rows are
    ``[attr, origins, lineno]`` for ``self.attr = value``;
    ``attr_types``/``attr_lambdas`` record the stored value's type
    chain / lambda-ness for the pickling closure.
    """

    qualname: str
    lineno: int
    is_async: bool
    params: List[str] = field(default_factory=list)
    param_chains: List[List[str]] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    return_origins: List[Origin] = field(default_factory=list)
    return_units: List[str] = field(default_factory=list)
    return_calls: List[int] = field(default_factory=list)
    global_writes: List[List[Any]] = field(default_factory=list)
    attr_stores: List[List[Any]] = field(default_factory=list)
    attr_types: List[List[Any]] = field(default_factory=list)
    attr_lambdas: List[List[Any]] = field(default_factory=list)
    unit_assigns: List[List[Any]] = field(default_factory=list)
    var_types: Dict[str, List[str]] = field(default_factory=dict)
    var_attrs: Dict[str, str] = field(default_factory=dict)

    @property
    def class_name(self) -> Optional[str]:
        """Enclosing class for methods, None for plain functions."""
        if "." in self.qualname:
            return self.qualname.rsplit(".", 1)[0]
        return None

    def param_offset(self) -> int:
        """1 when the first parameter is a bound receiver."""
        if self.params and self.params[0] in ("self", "cls"):
            return 1
        return 0

    def param_index(self, name: str) -> Optional[int]:
        try:
            return self.params.index(name)
        except ValueError:
            return None


@dataclass
class ClassSummary:
    """One top-level class: bases and annotated fields."""

    name: str
    lineno: int
    bases: List[str] = field(default_factory=list)
    fields: Dict[str, List[str]] = field(default_factory=dict)


@dataclass
class ModuleSummary:
    """The file-local facts one module contributes to the project."""

    relpath: str
    module: str
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    classes: Dict[str, ClassSummary] = field(default_factory=dict)
    globals: Dict[str, str] = field(default_factory=dict)
    pool_targets: List[str] = field(default_factory=list)


def module_dotted_name(relpath: str) -> str:
    """``repro/service/loop.py`` -> ``repro.service.loop``."""
    trimmed = relpath[:-3] if relpath.endswith(".py") else relpath
    parts = trimmed.split("/")
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else trimmed


def collect_imports(module: ModuleInfo) -> Dict[str, str]:
    """Local name -> fully-qualified origin for every import.

    ``import numpy as np`` maps ``np -> numpy``; ``from datetime
    import datetime`` maps ``datetime -> datetime.datetime``; relative
    imports resolve against the module's dotted path.  Imports are
    collected at every nesting level (function-local imports are
    common for optional dependencies).
    """
    table: Dict[str, str] = {}
    dotted = module_dotted_name(module.relpath)
    is_package = module.relpath.endswith("__init__.py")
    parts = dotted.split(".") if dotted else []
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                table[local] = alias.name if alias.asname \
                    else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                drop = node.level - (1 if is_package else 0)
                base = parts[:len(parts) - drop] if drop > 0 \
                    else list(parts)
                prefix = ".".join(base + ([node.module]
                                          if node.module else []))
            else:
                prefix = node.module or ""
            if not prefix:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                table[local] = f"{prefix}.{alias.name}"
    return table


def qualified_call(imports: Dict[str, str],
                   node: ast.Call) -> Optional[str]:
    """The callee's fully-qualified dotted name, import-resolved."""
    chain = dotted_name(node.func)
    if chain is None:
        return None
    head, _, rest = chain.partition(".")
    origin = imports.get(head)
    if origin is None:
        return chain
    return f"{origin}.{rest}" if rest else origin


def _annotation_chains(node: Optional[ast.AST]) -> List[str]:
    """Every dotted Name/Attribute chain inside an annotation."""
    if node is None:
        return []
    chains: List[str] = []
    for inner in ast.walk(node):
        if isinstance(inner, (ast.Name, ast.Attribute)):
            chain = dotted_name(inner)
            if chain is not None and chain not in chains:
                chains.append(chain)
    # Attribute chains are walked outer-first; keep only maximal ones
    # ("datetime.datetime" should not also yield "datetime").
    maximal = [c for c in chains
               if not any(other != c and other.startswith(c + ".")
                          for other in chains)]
    return maximal


def _global_kind(value: Optional[ast.AST]) -> str:
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                          ast.ListComp, ast.SetComp)):
        return "mutable"
    if isinstance(value, ast.Call):
        chain = dotted_name(value.func)
        if chain is not None:
            leaf = chain.rsplit(".", 1)[-1]
            if leaf in _MUTABLE_CTORS:
                return "mutable"
            if leaf == "ContextVar":
                return "contextvar"
    return "other"


class _FunctionExtractor:
    """Single-function origin/call extraction (see module docstring)."""

    def __init__(self, node: ast.AST, qualname: str) -> None:
        self.node = node
        self.qualname = qualname
        args = getattr(node, "args", None)
        self.params: List[str] = []
        self.param_chains: List[List[str]] = []
        if args is not None:
            all_args = (list(getattr(args, "posonlyargs", []))
                        + list(args.args) + list(args.kwonlyargs))
            for arg in all_args:
                self.params.append(arg.arg)
                self.param_chains.append(
                    _annotation_chains(arg.annotation))
        self.env: Dict[str, Set[Origin]] = {
            name: {("param", str(i))}
            for i, name in enumerate(self.params)}
        self.local_names: Set[str] = set(self.params)
        self.declared_globals: Set[str] = set()
        self.call_nodes: List[ast.Call] = []
        self.call_index: Dict[int, int] = {}
        self.var_types: Dict[str, List[str]] = {}
        self.var_attrs: Dict[str, str] = {}
        for shallow in self._shallow_nodes():
            if isinstance(shallow, ast.Call):
                self.call_index[id(shallow)] = len(self.call_nodes)
                self.call_nodes.append(shallow)
            elif isinstance(shallow, ast.Global):
                self.declared_globals.update(shallow.names)

    def _shallow_nodes(self) -> Iterable[ast.AST]:
        """Walk the body without entering nested scopes."""
        stack: List[ast.AST] = list(
            ast.iter_child_nodes(self.node))[::-1]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, _SCOPE_NODES):
                continue
            stack.extend(list(ast.iter_child_nodes(node))[::-1])

    # -- origins -------------------------------------------------------
    def origins(self, node: Optional[ast.AST]) -> Set[Origin]:
        if node is None:
            return set()
        if isinstance(node, ast.Name):
            return set(self.env.get(node.id, ()))
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) \
                    and node.value.id == "self":
                return {("attr", node.attr)}
            return self.origins(node.value)
        if isinstance(node, ast.Call):
            index = self.call_index.get(id(node))
            if index is None:
                return set()
            return {("call", str(index))}
        if isinstance(node, ast.Lambda):
            return {("lambda", "")}
        if isinstance(node, ast.Await):
            return self.origins(node.value)
        if isinstance(node, ast.NamedExpr):
            return self.origins(node.value)
        if isinstance(node, (ast.BinOp,)):
            return self.origins(node.left) | self.origins(node.right)
        if isinstance(node, ast.UnaryOp):
            return self.origins(node.operand)
        if isinstance(node, ast.BoolOp):
            out: Set[Origin] = set()
            for value in node.values:
                out |= self.origins(value)
            return out
        if isinstance(node, ast.Compare):
            out = self.origins(node.left)
            for comparator in node.comparators:
                out |= self.origins(comparator)
            return out
        if isinstance(node, ast.IfExp):
            return self.origins(node.body) | self.origins(node.orelse)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out = set()
            for element in node.elts:
                out |= self.origins(element)
            return out
        if isinstance(node, ast.Dict):
            out = set()
            for key in node.keys:
                out |= self.origins(key)
            for value in node.values:
                out |= self.origins(value)
            return out
        if isinstance(node, ast.Subscript):
            return self.origins(node.value)
        if isinstance(node, ast.Starred):
            return self.origins(node.value)
        if isinstance(node, ast.JoinedStr):
            out = set()
            for value in node.values:
                out |= self.origins(value)
            return out
        if isinstance(node, ast.FormattedValue):
            return self.origins(node.value)
        if isinstance(node, (ast.ListComp, ast.SetComp,
                             ast.GeneratorExp)):
            out = set()
            for generator in node.generators:
                out |= self.origins(generator.iter)
            return out
        if isinstance(node, ast.DictComp):
            out = set()
            for generator in node.generators:
                out |= self.origins(generator.iter)
            return out
        return set()

    # -- binding fixpoint ---------------------------------------------
    def _bind(self, name: str, origins: Set[Origin]) -> bool:
        self.local_names.add(name)
        current = self.env.setdefault(name, set())
        before = len(current)
        current |= origins
        return len(current) != before

    def _bind_target(self, target: ast.AST,
                     origins: Set[Origin]) -> bool:
        changed = False
        if isinstance(target, ast.Name):
            changed = self._bind(target.id, origins)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                changed = self._bind_target(element, origins) or changed
        elif isinstance(target, ast.Starred):
            changed = self._bind_target(target.value, origins)
        return changed

    def _value_type(self, value: ast.AST) -> Optional[List[str]]:
        """Candidate type descriptor of an expression, if visible."""
        if isinstance(value, ast.Call):
            chain = dotted_name(value.func)
            if chain is not None:
                return ["ctor", chain]
            return None
        if isinstance(value, ast.Attribute) \
                and isinstance(value.value, ast.Name) \
                and value.value.id == "self":
            return ["selfattr", value.attr]
        if isinstance(value, ast.Name):
            return ["name", value.id]
        return None

    def _run_bindings(self) -> None:
        for _ in range(10):
            changed = False
            for node in self._shallow_nodes():
                if isinstance(node, ast.Assign):
                    origins = self.origins(node.value)
                    for target in node.targets:
                        changed = self._bind_target(target, origins) \
                            or changed
                elif isinstance(node, ast.AnnAssign):
                    if node.value is not None:
                        changed = self._bind_target(
                            node.target, self.origins(node.value)) \
                            or changed
                elif isinstance(node, ast.AugAssign):
                    changed = self._bind_target(
                        node.target, self.origins(node.value)) \
                        or changed
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    changed = self._bind_target(
                        node.target, self.origins(node.iter)) or changed
                elif isinstance(node, (ast.With, ast.AsyncWith)):
                    for item in node.items:
                        if item.optional_vars is not None:
                            changed = self._bind_target(
                                item.optional_vars,
                                self.origins(item.context_expr)) \
                                or changed
                elif isinstance(node, ast.NamedExpr):
                    changed = self._bind(
                        node.target.id,
                        self.origins(node.value)) or changed
            if not changed:
                break

    def _record_var_types(self) -> None:
        for node in self._shallow_nodes():
            value: Optional[ast.AST] = None
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, list(node.targets)
            elif isinstance(node, ast.AnnAssign) \
                    and node.value is not None:
                value, targets = node.value, [node.target]
            if value is None:
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if isinstance(value, ast.Call):
                    chain = dotted_name(value.func)
                    if chain is not None:
                        self.var_types.setdefault(
                            target.id, []).append(chain)
                elif isinstance(value, ast.Attribute) \
                        and isinstance(value.value, ast.Name) \
                        and value.value.id == "self":
                    self.var_attrs.setdefault(target.id, value.attr)

    def _is_module_global(self, name: str,
                          module_globals: Dict[str, str]) -> bool:
        if name in self.declared_globals:
            return True
        return name in module_globals and name not in self.local_names

    # -- extraction ----------------------------------------------------
    def extract(self, module_globals: Dict[str, str]
                ) -> FunctionSummary:
        self._run_bindings()
        self._record_var_types()
        summary = FunctionSummary(
            qualname=self.qualname,
            lineno=getattr(self.node, "lineno", 1),
            is_async=isinstance(self.node, ast.AsyncFunctionDef),
            params=self.params, param_chains=self.param_chains,
            var_types={k: sorted(set(v))
                       for k, v in self.var_types.items()},
            var_attrs=dict(self.var_attrs))

        for call in self.call_nodes:
            site = CallSite(
                index=self.call_index[id(call)],
                lineno=call.lineno, col=call.col_offset,
                chain=dotted_name(call.func))
            for arg in call.args:
                site.arg_origins.append(
                    sorted(self.origins(arg)))
                site.arg_units.append(self._arg_unit(arg))
                site.arg_types.append(self._arg_type(arg))
            for keyword in call.keywords:
                if keyword.arg is None:
                    continue
                site.kw_origins[keyword.arg] = sorted(
                    self.origins(keyword.value))
                site.kw_units[keyword.arg] = self._arg_unit(
                    keyword.value)
                site.kw_types[keyword.arg] = self._arg_type(
                    keyword.value)
            summary.calls.append(site)

        return_origins: Set[Origin] = set()
        for node in self._shallow_nodes():
            if isinstance(node, ast.Return) and node.value is not None:
                return_origins |= self.origins(node.value)
                family = unit_family(
                    trailing_identifier(node.value))
                if family is not None:
                    summary.return_units.append(family)
                if isinstance(node.value, ast.Call):
                    index = self.call_index.get(id(node.value))
                    if index is not None:
                        summary.return_calls.append(index)
            elif isinstance(node, ast.Assign):
                self._extract_assign(node, module_globals, summary)
            elif isinstance(node, ast.AnnAssign):
                if node.value is not None:
                    self._extract_store(node.target, node.value,
                                        node.lineno, module_globals,
                                        summary)
            elif isinstance(node, ast.AugAssign):
                self._extract_store(node.target, node.value,
                                    node.lineno, module_globals,
                                    summary, augmented=True)
            elif isinstance(node, ast.Expr) \
                    and isinstance(node.value, ast.Call):
                self._extract_mutator_call(node.value, module_globals,
                                           summary)
        summary.return_origins = sorted(return_origins)
        return summary

    def _arg_unit(self, value: ast.AST) -> Optional[str]:
        family = unit_family(trailing_identifier(value))
        if family is not None:
            return family
        if isinstance(value, ast.Call):
            index = self.call_index.get(id(value))
            if index is not None:
                return f"call:{index}"
        return None

    def _arg_type(self, value: ast.AST) -> Optional[List[str]]:
        descriptor = self._value_type(value)
        if descriptor is not None and descriptor[0] == "name":
            name = descriptor[1]
            if name in self.var_types:
                return ["ctor", self.var_types[name][0]]
            index = self.param_index_of(name)
            if index is not None and self.param_chains[index]:
                return ["ctor", self.param_chains[index][0]]
            return descriptor
        return descriptor

    def param_index_of(self, name: str) -> Optional[int]:
        try:
            return self.params.index(name)
        except ValueError:
            return None

    def _extract_assign(self, node: ast.Assign,
                        module_globals: Dict[str, str],
                        summary: FunctionSummary) -> None:
        for target in node.targets:
            self._extract_store(target, node.value, node.lineno,
                                module_globals, summary)
        if len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and isinstance(node.value, ast.Call):
            family = unit_family(node.targets[0].id)
            index = self.call_index.get(id(node.value))
            if family is not None and index is not None:
                summary.unit_assigns.append(
                    [family, index, node.lineno])

    def _extract_store(self, target: ast.AST, value: ast.AST,
                       lineno: int, module_globals: Dict[str, str],
                       summary: FunctionSummary,
                       augmented: bool = False) -> None:
        if isinstance(target, ast.Name):
            if target.id in self.declared_globals:
                summary.global_writes.append(
                    ["rebind", target.id, lineno])
        elif isinstance(target, ast.Attribute):
            base = target.value
            if isinstance(base, ast.Name) and base.id == "self":
                summary.attr_stores.append(
                    [target.attr, sorted(self.origins(value)), lineno])
                if isinstance(value, ast.Lambda):
                    summary.attr_lambdas.append([target.attr, lineno])
                descriptor = self._attr_type_chains(value)
                for chain in descriptor:
                    summary.attr_types.append(
                        [target.attr, chain, lineno])
            elif isinstance(base, ast.Name) \
                    and self._is_module_global(base.id, module_globals):
                summary.global_writes.append(
                    ["mutate", base.id, lineno])
        elif isinstance(target, ast.Subscript):
            head = target.value
            while isinstance(head, (ast.Subscript, ast.Attribute)):
                head = head.value
            if isinstance(head, ast.Name) \
                    and self._is_module_global(head.id, module_globals):
                summary.global_writes.append(
                    ["mutate", head.id, lineno])
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._extract_store(element, value, lineno,
                                    module_globals, summary,
                                    augmented=augmented)

    def _attr_type_chains(self, value: ast.AST) -> List[str]:
        if isinstance(value, ast.Call):
            chain = dotted_name(value.func)
            return [chain] if chain is not None else []
        if isinstance(value, ast.Name):
            if value.id in self.var_types:
                return list(self.var_types[value.id])
            index = self.param_index_of(value.id)
            if index is not None:
                return list(self.param_chains[index])
        return []

    def _extract_mutator_call(self, call: ast.Call,
                              module_globals: Dict[str, str],
                              summary: FunctionSummary) -> None:
        if not isinstance(call.func, ast.Attribute):
            return
        if call.func.attr not in MUTATOR_METHODS:
            return
        base = call.func.value
        if isinstance(base, ast.Name) \
                and self._is_module_global(base.id, module_globals):
            summary.global_writes.append(
                ["mutate", base.id, call.lineno])


def _module_globals(tree: ast.Module) -> Dict[str, str]:
    table: Dict[str, str] = {}
    for node in tree.body:
        targets: List[ast.AST] = []
        value: Optional[ast.AST] = None
        if isinstance(node, ast.Assign):
            targets, value = list(node.targets), node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        for target in targets:
            if isinstance(target, ast.Name):
                kind = _global_kind(value)
                # A name is as mutable as its most mutable binding.
                if table.get(target.id) != "mutable":
                    table[target.id] = kind
    return table


def _pool_targets(tree: ast.Module) -> List[str]:
    targets: List[str] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if not isinstance(node.func, ast.Attribute):
            continue
        if node.func.attr not in ("submit", "map"):
            continue
        if node.args and isinstance(node.args[0], ast.Name):
            targets.append(node.args[0].id)
    return sorted(set(targets))


def summarize_module(module: ModuleInfo) -> ModuleSummary:
    """Extract the file-local :class:`ModuleSummary` of one module."""
    summary = ModuleSummary(
        relpath=module.relpath,
        module=module_dotted_name(module.relpath),
        imports=collect_imports(module),
        globals=_module_globals(module.tree),
        pool_targets=_pool_targets(module.tree))
    for node in module.tree.body:
        if isinstance(node, _FUNCTION_NODES):
            extractor = _FunctionExtractor(node, node.name)
            summary.functions[node.name] = extractor.extract(
                summary.globals)
        elif isinstance(node, ast.ClassDef):
            cls = ClassSummary(
                name=node.name, lineno=node.lineno,
                bases=[chain for chain in
                       (dotted_name(base) for base in node.bases)
                       if chain is not None])
            for item in node.body:
                if isinstance(item, _FUNCTION_NODES):
                    qualname = f"{node.name}.{item.name}"
                    extractor = _FunctionExtractor(item, qualname)
                    summary.functions[qualname] = extractor.extract(
                        summary.globals)
                elif isinstance(item, ast.AnnAssign) \
                        and isinstance(item.target, ast.Name):
                    cls.fields[item.target.id] = _annotation_chains(
                        item.annotation)
            summary.classes[node.name] = cls
    return summary

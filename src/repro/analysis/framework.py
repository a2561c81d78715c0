"""Rule framework for the determinism / domain static-analysis pass.

The pass is a small, dependency-free AST walker.  Each rule is a class
with an id, a rationale, and a ``check`` hook that sees one parsed
module at a time; a dataflow rule (:class:`DataflowRule`) also has a
``check_context`` hook that sees the whole-program call graph built
over the scanned tree.

Suppression uses a project-specific pragma so it can never collide
with flake8/ruff ``# noqa`` handling::

    reading = time.perf_counter()  # repro: noqa DET010 -- advisory metric

A bare ``# repro: noqa`` suppresses every rule on its line; one or
more comma/space-separated rule ids suppress only those rules.  A
pragma naming an id that no rule registers fails the scan, so a stale
or mistyped id cannot pass quietly.  The text after ``--`` is a
free-form justification (encouraged, unchecked).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import (TYPE_CHECKING, Dict, Iterator, List, Optional,
                    Sequence, Set, Tuple, Type)

from ..exceptions import ConfigurationError
from .findings import Finding, sort_findings

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .dataflow import ProjectContext

#: Sentinel noqa entry meaning "every rule suppressed on this line".
ALL_RULES = "*"

#: A rule-id-shaped token: registered ids are three or four capitals
#: and three digits (``DET010``, ``UNIT010``); anything else of this
#: shape (``DET01O``) is parsed too, so it can be reported as unknown.
_CODE = r"[A-Z]+\d[A-Z\d]*"
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa"
    rf"(?P<codes>(?:[\s:,]+{_CODE})*)"
    r"(?:\s*--\s*(?P<why>.*))?",
)
_CODE_RE = re.compile(_CODE)


@dataclass(frozen=True)
class ModuleInfo:
    """One parsed source file handed to the rules.

    Attributes:
        relpath: POSIX path relative to the scanned root - what
            findings report and what allowlists match against.
        tree: the parsed AST.
        lines: raw source lines (1-based access via :meth:`line`).
        noqa: line number -> set of suppressed rule ids
            (:data:`ALL_RULES` means all).
    """

    relpath: str
    tree: ast.Module
    lines: Tuple[str, ...]
    noqa: Dict[int, Set[str]] = field(default_factory=dict)

    def line(self, lineno: int) -> str:
        """The stripped source line at ``lineno`` (1-based)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def suppressed(self, lineno: int, rule_id: str) -> bool:
        """True when a ``# repro: noqa`` pragma covers this finding."""
        codes = self.noqa.get(lineno)
        if codes is None:
            return False
        return ALL_RULES in codes or rule_id in codes

    def matches(self, suffixes: Sequence[str]) -> bool:
        """True when the module path ends with any of the suffixes."""
        return any(self.relpath.endswith(suffix) for suffix in suffixes)


def parse_noqa(lines: Sequence[str]) -> Dict[int, Set[str]]:
    """Extract ``# repro: noqa`` pragmas from the comments of source lines.

    Only comment tokens are read: a pragma quoted in a string or a
    docstring waives nothing.
    """
    table: Dict[int, Set[str]] = {}
    if not any("repro:" in text for text in lines):
        return table
    readline = io.StringIO("\n".join(lines) + "\n").readline
    for token in tokenize.generate_tokens(readline):
        if token.type != tokenize.COMMENT or "repro:" not in token.string:
            continue
        match = _NOQA_RE.search(token.string)
        if match is None:
            continue
        codes = _CODE_RE.findall(match.group("codes") or "")
        table[token.start[0]] = set(codes) if codes else {ALL_RULES}
    return table


def module_from_source(source: str, relpath: str) -> ModuleInfo:
    """Parse in-memory source into a :class:`ModuleInfo`.

    Raises:
        ConfigurationError: when the source does not parse - the scan
            cannot vouch for a tree it cannot read.
    """
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as error:
        raise ConfigurationError(
            f"{relpath}: cannot parse: {error}") from error
    lines = tuple(source.splitlines())
    return ModuleInfo(relpath=relpath, tree=tree, lines=lines,
                      noqa=parse_noqa(lines))


class Rule:
    """Base class of every check: one rule id, one ``check`` hook.

    ``check`` sees one module at a time and is skipped on modules
    matching ``allowlist``.
    """

    #: Identifier reported in findings and matched by noqa pragmas.
    rule_id: str = ""
    #: One-line summary shown by ``--list-rules``.
    title: str = ""
    #: Why the project enforces this (the bug class it prevents).
    rationale: str = ""
    #: Default fix hint attached to findings.
    hint: str = ""
    #: Relpath suffixes exempt from this rule.
    allowlist: Tuple[str, ...] = ()

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        """Yield findings for one module."""
        raise NotImplementedError
        yield  # pragma: no cover

    def finding(self, module: ModuleInfo, node: ast.AST, message: str,
                hint: Optional[str] = None) -> Finding:
        """Build a finding anchored at ``node``."""
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(rule=self.rule_id, path=module.relpath,
                       line=lineno, col=col, message=message,
                       hint=self.hint if hint is None else hint,
                       snippet=module.line(lineno))


class DataflowRule(Rule):
    """A rule that also sees the whole-program call-graph context.

    The framework builds one :class:`~repro.analysis.dataflow.ProjectContext`
    per scan (summaries, symbol table, call graph) and hands it to
    every active dataflow rule's ``check_context``; each rule layers
    its own taint or reachability query on top.  A rule whose bug
    class also has a file-local site check overrides ``check`` too.
    """

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        return iter(())

    def check_context(self, context: "ProjectContext"
                      ) -> Iterator[Finding]:
        """Yield findings from the built whole-program context."""
        raise NotImplementedError
        yield  # pragma: no cover

    def context_finding(self, context: "ProjectContext", relpath: str,
                        lineno: int, message: str, col: int = 0,
                        hint: Optional[str] = None) -> Finding:
        """Build a finding anchored at a (relpath, line) location."""
        return Finding(rule=self.rule_id, path=relpath, line=lineno,
                       col=col, message=message,
                       hint=self.hint if hint is None else hint,
                       snippet=context.snippet(relpath, lineno))


#: rule id -> rule class, in catalogue order.
RULES: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id:
        raise ConfigurationError(f"rule {cls.__name__} has no rule_id")
    if cls.rule_id in RULES:
        raise ConfigurationError(f"duplicate rule id {cls.rule_id}")
    RULES[cls.rule_id] = cls
    return cls


def resolve_rules(select: Optional[Sequence[str]] = None,
                  ignore: Optional[Sequence[str]] = None) -> List[Rule]:
    """Instantiate the requested subset of the registry.

    Raises:
        ConfigurationError: on unknown rule ids.
    """
    known = set(RULES)
    for requested in list(select or []) + list(ignore or []):
        if requested not in known:
            raise ConfigurationError(
                f"unknown rule {requested!r}; known: {', '.join(sorted(known))}")
    active = list(select) if select else list(RULES)
    dropped = set(ignore or [])
    return [RULES[rule_id]() for rule_id in active
            if rule_id not in dropped]


# ----------------------------------------------------------------------
# AST helpers shared by the rules
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# ----------------------------------------------------------------------
# Tree scanning
# ----------------------------------------------------------------------
@dataclass
class AnalysisReport:
    """Outcome of one scan.

    Attributes:
        findings: surviving findings in canonical order.
        files_scanned: number of python files parsed.
        suppressed: findings silenced by ``# repro: noqa`` pragmas.
        graph_nodes: project functions in the call graph.
        graph_edges: resolved + widened call edges.
        context: the built whole-program context (None when no
            dataflow rule ran) - the CLI's DOT export reads it.
    """

    findings: List[Finding]
    files_scanned: int
    suppressed: int
    graph_nodes: int = 0
    graph_edges: int = 0
    context: Optional["ProjectContext"] = None


def iter_python_files(root: Path) -> List[Path]:
    """Every ``.py`` file under ``root`` (or ``root`` itself), sorted."""
    if root.is_file():
        return [root]
    if not root.is_dir():
        raise ConfigurationError(f"no such file or directory: {root}")
    return sorted(path for path in root.rglob("*.py")
                  if "__pycache__" not in path.parts)


def load_modules(paths: Sequence[Path]) -> List[ModuleInfo]:
    """Parse every python file under the given roots."""
    modules: List[ModuleInfo] = []
    for root in paths:
        base = root if root.is_dir() else root.parent
        for file_path in iter_python_files(root):
            relpath = file_path.relative_to(base).as_posix()
            modules.append(module_from_source(
                file_path.read_text(encoding="utf-8"), relpath))
    return modules


def _check_noqa_ids(modules: Sequence[ModuleInfo]) -> None:
    """Reject pragmas naming ids that no rule registers.

    Raises:
        ConfigurationError: naming the first path, line and unknown id.
    """
    for module in modules:
        for lineno in sorted(module.noqa):
            unknown = sorted(module.noqa[lineno] - set(RULES)
                             - {ALL_RULES})
            if unknown:
                raise ConfigurationError(
                    f"{module.relpath}:{lineno}: noqa names unknown "
                    f"rule {', '.join(unknown)}")


def run_rules(modules: Sequence[ModuleInfo],
              rules: Sequence[Rule]) -> AnalysisReport:
    """Run rules over parsed modules, applying noqa suppression.

    Every rule's ``check`` runs on each module outside its allowlist;
    a :class:`DataflowRule` also runs ``check_context`` over the
    whole-program context (summaries, call graph), built once, lazily,
    iff any dataflow rule is active.

    Raises:
        ConfigurationError: when a pragma names an unknown rule id.
    """
    _check_noqa_ids(modules)
    kept: List[Finding] = []
    suppressed = 0
    by_relpath = {module.relpath: module for module in modules}

    def admit(finding: Finding) -> None:
        nonlocal suppressed
        module = by_relpath.get(finding.path)
        if module is not None and module.suppressed(finding.line,
                                                    finding.rule):
            suppressed += 1
        else:
            kept.append(finding)

    context: Optional["ProjectContext"] = None
    if any(isinstance(rule, DataflowRule) for rule in rules):
        from .dataflow import build_context

        context = build_context(modules)

    for rule in rules:
        for module in modules:
            if module.matches(rule.allowlist):
                continue
            for finding in rule.check(module):
                admit(finding)
        if isinstance(rule, DataflowRule):
            assert context is not None
            for finding in rule.check_context(context):
                admit(finding)
    report = AnalysisReport(findings=sort_findings(kept),
                            files_scanned=len(modules),
                            suppressed=suppressed)
    if context is not None:
        report.graph_nodes = len(context.graph.nodes)
        report.graph_edges = context.graph.edge_count
        report.context = context
    return report


def run_analysis(paths: Sequence[Path],
                 select: Optional[Sequence[str]] = None,
                 ignore: Optional[Sequence[str]] = None
                 ) -> AnalysisReport:
    """Scan source roots with the (subset of the) registered rules."""
    return run_rules(load_modules(paths), resolve_rules(select, ignore))


def analyze_source(source: str, relpath: str = "module.py",
                   select: Optional[Sequence[str]] = None
                   ) -> List[Finding]:
    """Run rules over one in-memory module (the test harness surface)."""
    report = run_rules([module_from_source(source, relpath)],
                       resolve_rules(select))
    return report.findings

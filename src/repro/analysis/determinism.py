"""File-local determinism rules: DET002 OS-entropy RNG, DET003
unordered iteration feeding serialized output.

These encode the determinism contract the repository keeps re-learning
dynamically: every replayed run must produce byte-identical records
(serial vs ``--workers N`` journal identity is CI-gated), which an
unseeded RNG, a wall-clock read in a canonical record, or an
unordered-container iteration order can silently break.  Wall-clock
reads are DET010's (:mod:`repro.analysis.interprocedural`), which
checks both the call site and where its value flows.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional, Set, Tuple

from .findings import Finding
from .framework import ModuleInfo, Rule, dotted_name, register
from .symbols import collect_imports, qualified_call


#: numpy.random constructors that are deterministic *when seeded*.
_SEEDABLE_CTORS = {"default_rng", "Generator", "SeedSequence",
                   "PCG64", "Philox", "SFC64", "MT19937",
                   "BitGenerator"}

#: Keywords that carry a seedable constructor's seed.
_SEED_KEYWORDS = ("seed", "entropy", "bit_generator")


def _unseeded(node: ast.Call) -> bool:
    """True when a seedable constructor gets no seed or a literal None.

    ``default_rng()``, ``default_rng(None)``,
    ``SeedSequence(entropy=None)`` and ``SeedSequence(spawn_key=(1,))``
    all draw from OS entropy.  A ``**mapping`` may carry the seed, so it
    counts as seeded.
    """
    if node.args:
        seed: Optional[ast.expr] = node.args[0]
    else:
        seed = next((kw.value for kw in node.keywords
                     if kw.arg in _SEED_KEYWORDS), None)
        if seed is None:
            return all(kw.arg is not None for kw in node.keywords)
    return isinstance(seed, ast.Constant) and seed.value is None


@register
class GlobalRngRule(Rule):
    """DET002: global/OS-entropy RNG outside ``repro/rng.py``."""

    rule_id = "DET002"
    title = "global or OS-entropy RNG outside repro.rng"
    rationale = (
        "PR 1's Figs. 4-6 bug: DynamicRR seeded from OS entropy, so "
        "no two sweeps matched.  All randomness must come from seeded "
        "repro.rng.RngForks streams.")
    hint = ("draw from a seeded numpy Generator obtained via "
            "repro.rng (ensure_rng / RngForks.child)")
    allowlist = ("repro/rng.py",)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        imports = collect_imports(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = qualified_call(imports, node)
            if qualified is None:
                continue
            if qualified.startswith("random.") or qualified == "random":
                yield self.finding(
                    module, node,
                    f"stdlib global RNG call {qualified}()")
                continue
            if not qualified.startswith("numpy.random."):
                continue
            leaf = qualified.rsplit(".", 1)[1]
            if leaf in _SEEDABLE_CTORS:
                if _unseeded(node):
                    yield self.finding(
                        module, node,
                        f"{qualified}() without a seed draws from OS "
                        f"entropy")
            else:
                yield self.finding(
                    module, node,
                    f"legacy numpy global-state RNG call "
                    f"{qualified}()")


_SERIAL_CONTEXT = re.compile(
    r"to_record|to_dict|to_json|serial|export|dump|emit|journal|"
    r"record|canonical|write|merge", re.IGNORECASE)


def _is_unordered_iterable(node: ast.AST) -> Optional[str]:
    """Describe why iterating ``node`` is order-unstable, or None."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set expression"
    if isinstance(node, ast.Call):
        chain = dotted_name(node.func)
        if chain in ("set", "frozenset"):
            return f"a {chain}(...) call"
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr == "keys":
            return "dict .keys() (insertion-history order)"
    return None


@register
class UnorderedSerializationRule(Rule):
    """DET003: unordered iteration in a serialization context."""

    rule_id = "DET003"
    title = "unsorted set/dict-keys iteration feeding serialized output"
    rationale = (
        "Set iteration order varies with hash seeding and insertion "
        "history; journals, records, and exports must be canonical so "
        "trace-diff/bench-diff compare runs byte for byte.")
    hint = "wrap the iterable in sorted(...) to fix the emission order"

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        in_telemetry = "telemetry/" in module.relpath
        for scope in ast.walk(module.tree):
            if not isinstance(scope, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                continue
            if not in_telemetry \
                    and not _SERIAL_CONTEXT.search(scope.name):
                continue
            for finding in self._check_scope(module, scope):
                yield finding

    def _check_scope(self, module: ModuleInfo,
                     scope: ast.AST) -> Iterator[Finding]:
        seen: Set[Tuple[int, int]] = set()
        for node in ast.walk(scope):
            iters = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for candidate in iters:
                why = _is_unordered_iterable(candidate)
                key = (getattr(candidate, "lineno", 0),
                       getattr(candidate, "col_offset", 0))
                if why is not None and key not in seen:
                    seen.add(key)
                    yield self.finding(
                        module, candidate,
                        f"iterating {why} in serialization context "
                        f"without sorted(...)")

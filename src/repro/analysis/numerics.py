"""Numeric-discipline rule NUM001: float equality.

NUM001 targets the reward/capacity/rate arithmetic the paper's
theorems quantify over - exact ``==``/``!=`` on those floats is almost
always a latent tolerance bug.  Unit-suffix discipline (``*_mhz`` vs
``*_mbps``) is UNIT010's, in :mod:`repro.analysis.interprocedural`.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from .findings import Finding
from .framework import ModuleInfo, Rule, register
from .symbols import trailing_identifier

#: snake_case tokens marking a domain quantity (reward/capacity/rate
#: expressions in the paper's objective and constraints).
_DOMAIN_TOKENS: Set[str] = {
    "reward", "rewards", "capacity", "capacities", "rate", "rates",
    "mhz", "mbps", "latency", "demand", "demands", "share", "shares",
    "coef", "coeff", "coefs", "tol",
}


def _is_domain_name(node: ast.AST) -> bool:
    ident = trailing_identifier(node)
    if ident is None:
        return False
    return any(token in _DOMAIN_TOKENS
               for token in ident.lower().split("_"))


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) \
            and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) \
        and isinstance(node.value, float)


@register
class FloatEqualityRule(Rule):
    """NUM001: exact float equality on domain quantities."""

    rule_id = "NUM001"
    title = "float ==/!= on a reward/capacity/rate expression"
    rationale = (
        "Theorem 1's ratio and the capacity/reward accounting checks "
        "all compare floats; exact equality silently flips with "
        "harmless reassociation.  Use a tolerance.")
    hint = ("use math.isclose(a, b, rel_tol=..., abs_tol=...) or an "
            "explicit tolerance; an intended exact comparison (e.g. a "
            "structural zero) needs '# repro: noqa NUM001 -- why'")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands,
                                       operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_float_literal(left) or _is_float_literal(right):
                    yield self.finding(
                        module, node,
                        "exact equality against a float literal")
                elif _is_domain_name(left) and _is_domain_name(right):
                    yield self.finding(
                        module, node,
                        "exact equality between domain float "
                        "quantities "
                        f"({trailing_identifier(left)!r} vs "
                        f"{trailing_identifier(right)!r})")

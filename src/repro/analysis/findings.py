"""Finding records produced by the static-analysis rules.

A :class:`Finding` pins one rule violation to a source location and
carries everything the reporting layer needs: the human-readable
message, a fix hint, and the stripped source line (``snippet``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class Finding:
    """One rule violation located in a scanned source tree.

    Attributes:
        rule: rule identifier (``"DET002"`` ... ``"UNIT010"``).
        path: path of the offending file, relative to the scanned
            root, in POSIX form.
        line: 1-based line number of the violation.
        col: 0-based column offset.
        message: what is wrong, in one sentence.
        hint: how to fix it (or how to suppress it legitimately).
        snippet: the stripped source line, shown in the JSON report.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""
    snippet: str = ""

    def sort_key(self) -> Tuple[str, int, int, str, str, str]:
        """Total order over findings.

        ``snippet`` and ``message`` break ties between two findings
        from the same rule at the same location (e.g. two distinct
        taint witnesses into one call), so ``--format json`` output is
        byte-stable run to run.
        """
        return (self.path, self.line, self.col, self.rule,
                self.snippet, self.message)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (the CI artifact row)."""
        return dataclasses.asdict(self)

    def render(self) -> str:
        """One ``path:line:col RULE message`` report line."""
        text = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


def sort_findings(findings: Sequence[Finding]) -> List[Finding]:
    """Findings in canonical report order (path, line, col, rule,
    snippet, message)."""
    return sorted(findings, key=Finding.sort_key)

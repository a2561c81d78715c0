"""Committed-baseline handling for the static-analysis pass.

A baseline freezes pre-existing findings so the pass can gate *new*
violations in CI from day one without first paying down every old one.
Entries match on ``(rule, path, snippet)`` - the stripped source line -
with multiplicity, so unrelated edits elsewhere in a file never
invalidate the baseline, while touching a baselined line (the snippet
changes) surfaces the finding again.

Baselines are written with sorted keys and a schema marker so the
committed file diffs cleanly.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import List, Sequence, Tuple, Union

from ..exceptions import ConfigurationError
from .findings import Finding

#: Schema identifier written into every baseline file.
BASELINE_SCHEMA = "repro.analysis-baseline/1"

Fingerprint = Tuple[str, str, str]


def save_baseline(path: Union[str, Path],
                  findings: Sequence[Finding]) -> Path:
    """Write the findings as a baseline file; returns the path."""
    counts: Counter = Counter(f.fingerprint for f in findings)
    entries = [{"rule": rule, "path": rel, "snippet": snippet,
                "count": count}
               for (rule, rel, snippet), count in sorted(counts.items())]
    target = Path(path)
    target.write_text(json.dumps(
        {"schema": BASELINE_SCHEMA, "findings": entries},
        indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return target


def refreeze_baseline(path: Union[str, Path],
                      findings: Sequence[Finding]
                      ) -> Tuple[Path, int]:
    """Rewrite the baseline from current findings, pruning stale debt.

    Returns ``(path, pruned)`` where *pruned* counts the baseline
    capacity (entry multiplicity included) that no current finding
    consumes - frozen findings that have since been fixed.  A missing
    or unreadable previous baseline prunes nothing.
    """
    pruned = 0
    target = Path(path)
    if target.exists():
        previous: "Counter[Fingerprint]"
        try:
            previous = load_baseline(target)
        except ConfigurationError:
            previous = Counter()
        remaining: "Counter[Fingerprint]" = Counter(previous)
        remaining.subtract(Counter(f.fingerprint for f in findings))
        pruned = sum(count for count in remaining.values()
                     if count > 0)
    save_baseline(target, findings)
    return target, pruned


def load_baseline(path: Union[str, Path]) -> "Counter[Fingerprint]":
    """Read a baseline file into a fingerprint multiset.

    Raises:
        ConfigurationError: on unreadable/malformed baseline files.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        raise ConfigurationError(
            f"cannot read baseline {path}: {error}") from error
    if not isinstance(data, dict) \
            or data.get("schema") != BASELINE_SCHEMA:
        raise ConfigurationError(
            f"{path}: not a {BASELINE_SCHEMA} baseline file")
    counts: "Counter[Fingerprint]" = Counter()
    for entry in data.get("findings", []):
        try:
            fingerprint = (str(entry["rule"]), str(entry["path"]),
                           str(entry["snippet"]))
            counts[fingerprint] += int(entry.get("count", 1))
        except (KeyError, TypeError, ValueError) as error:
            raise ConfigurationError(
                f"{path}: malformed baseline entry {entry!r}: "
                f"{error}") from error
    return counts


def apply_baseline(findings: Sequence[Finding],
                   baseline: "Counter[Fingerprint]"
                   ) -> Tuple[List[Finding], int, List[Fingerprint]]:
    """Split findings into (new, matched-count, stale-entries).

    Findings matching a baseline entry are consumed greedily with
    multiplicity; leftover baseline capacity is reported as *stale*
    (the finding it froze no longer exists - the baseline should be
    regenerated with ``--write-baseline``).
    """
    remaining: "Counter[Fingerprint]" = Counter(baseline)
    new: List[Finding] = []
    matched = 0
    for finding in findings:
        if remaining.get(finding.fingerprint, 0) > 0:
            remaining[finding.fingerprint] -= 1
            matched += 1
        else:
            new.append(finding)
    stale: List[Fingerprint] = sorted(
        fp for fp, count in remaining.items() if count > 0)
    return new, matched, stale


"""``python -m repro.analysis`` - the determinism/domain lint gate.

Exit codes match ``bench-diff`` / ``trace-diff``:

* ``0`` - no findings;
* ``1`` - at least one finding (each is printed with a fix hint);
* ``2`` - the scan itself could not run (bad path, unparsable file,
  unknown rule id on the command line or in a noqa pragma).

Typical invocations::

    python -m repro.analysis src                 # gate (CI default)
    python -m repro.analysis src --format json   # machine-readable
    python -m repro.analysis --list-rules        # rule catalogue
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from ..exceptions import ConfigurationError
from .framework import RULES, AnalysisReport, run_analysis

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def _split_rule_list(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [part.strip() for part in raw.split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Determinism & domain-rule static analysis for "
                    "the repro source tree.")
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to scan (default: src)")
    parser.add_argument(
        "--select", metavar="RULES",
        help="comma-separated rule ids to run (default: all)")
    parser.add_argument(
        "--ignore", metavar="RULES",
        help="comma-separated rule ids to skip")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format on stdout (default: text)")
    parser.add_argument(
        "--output", metavar="FILE",
        help="also write the JSON findings report to FILE (the CI "
             "artifact)")
    parser.add_argument(
        "--stats", action="store_true",
        help="print a scan-statistics line (files, call-graph size, "
             "wall time) to stderr")
    parser.add_argument(
        "--dot", metavar="FILE",
        help="write the project call graph in Graphviz DOT form to "
             "FILE (requires at least one whole-program rule active)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit")
    return parser


def _list_rules() -> str:
    lines = []
    for rule_id, cls in RULES.items():
        lines.append(f"{rule_id}  {cls.title}")
        lines.append(f"    why:  {cls.rationale}")
        lines.append(f"    fix:  {cls.hint}")
        if cls.allowlist:
            lines.append(f"    allowlisted: "
                         f"{', '.join(cls.allowlist)}")
    return "\n".join(lines)


def _json_report(report: AnalysisReport) -> Dict[str, Any]:
    return {
        "schema": "repro.analysis-report/2",
        "files_scanned": report.files_scanned,
        "suppressed": report.suppressed,
        "findings": [finding.to_dict() for finding in report.findings],
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        print(_list_rules())
        return EXIT_OK
    started = time.perf_counter()  # repro: noqa DET010 -- advisory scan timing for --stats, never serialized
    try:
        report = run_analysis(
            [Path(p) for p in args.paths],
            select=_split_rule_list(args.select),
            ignore=_split_rule_list(args.ignore))
    except ConfigurationError as error:
        print(f"analysis error: {error}", file=sys.stderr)
        return EXIT_ERROR
    elapsed = time.perf_counter() - started  # repro: noqa DET010 -- advisory scan timing for --stats, never serialized

    if args.stats:
        print(f"stats: {report.files_scanned} file(s) scanned, "
              f"call graph {report.graph_nodes} node(s) / "
              f"{report.graph_edges} edge(s), {elapsed:.2f}s wall",
              file=sys.stderr)
    if args.dot:
        if report.context is None:
            print("analysis error: --dot needs a whole-program rule "
                  "active (none selected)", file=sys.stderr)
            return EXIT_ERROR
        Path(args.dot).write_text(report.context.graph.to_dot(),
                                  encoding="utf-8")

    payload = _json_report(report)
    if args.output:
        Path(args.output).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for finding in report.findings:
            print(finding.render())
        print(f"checked {report.files_scanned} file(s): "
              f"{len(report.findings)} finding(s), "
              f"{report.suppressed} noqa-suppressed")
    return EXIT_FINDINGS if report.findings else EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

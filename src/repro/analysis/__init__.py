"""Static enforcement of the project's determinism & domain rules.

Four PRs fought the same bug class at *runtime* - OS-entropy seeding,
wall-clock leakage into serialized records, unordered emission breaking
serial-vs-parallel byte identity.  This package turns those hard-won
contracts into named AST checks that fail in CI before the code runs:

=========  ==========================================================
rule       enforces
=========  ==========================================================
DET002     no global/OS-entropy RNG outside ``repro.rng``
DET003     no unsorted set/dict-keys iteration feeding serialization
NUM001     no float ``==``/``!=`` on reward/capacity/rate expressions
DET010     no wall-clock call outside the clock allowlist, and no
           wall-clock/entropy *value* reaching a serialization sink
           through any call chain (whole-program taint)
CONC001    no module-level global written from worker-reachable code
CONC002    no blocking call reachable from ``async def``
PKL010     no lambda/closure/local class passed into a RunSpec/Event/
           ServiceCheckpoint payload, and no unpicklable type in its
           type closure
UNIT010    ``*_mhz``/``*_mbps`` only mix via ``repro.units``, within
           an expression and across calls and returns
=========  ==========================================================

Run it with ``python -m repro.analysis src`` (exit 0 clean / 1
findings / 2 unusable input, matching ``bench-diff``/``trace-diff``).
Suppress a justified finding in place with ``# repro: noqa RULE --
why``; a pragma naming an unregistered id fails the scan.  Every scan
summarizes every file afresh; there is no result cache.  Each bug
class has one rule: DET010, PKL010 and UNIT010 check both the
file-local site and the whole-program flow.  See ``docs/ANALYSIS.md``
for the full catalogue.
"""

from __future__ import annotations

# Importing the rule modules populates the registry, in catalogue order.
from . import determinism as _determinism  # noqa: F401
from . import numerics as _numerics  # noqa: F401
from . import interprocedural as _interprocedural  # noqa: F401
from .cli import main
from .dataflow import ProjectContext, TaintAnalysis, build_context
from .findings import Finding, sort_findings
from .framework import (RULES, AnalysisReport, DataflowRule,
                        ModuleInfo, Rule, analyze_source,
                        module_from_source, register, run_analysis)

__all__ = [
    "AnalysisReport",
    "DataflowRule",
    "Finding",
    "ModuleInfo",
    "ProjectContext",
    "RULES",
    "Rule",
    "TaintAnalysis",
    "analyze_source",
    "build_context",
    "main",
    "module_from_source",
    "register",
    "run_analysis",
    "sort_findings",
]

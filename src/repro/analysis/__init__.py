"""Static enforcement of the project's determinism & domain rules.

Four PRs fought the same bug class at *runtime* - OS-entropy seeding,
wall-clock leakage into serialized records, unordered emission breaking
serial-vs-parallel byte identity.  This package turns those hard-won
contracts into named AST checks that fail in CI before the code runs:

=========  ==========================================================
rule       enforces
=========  ==========================================================
DET001     no wall-clock calls outside the telemetry allowlist
DET002     no global/OS-entropy RNG outside ``repro.rng``
DET003     no unsorted set/dict-keys iteration feeding serialization
NUM001     no float ``==``/``!=`` on reward/capacity/rate expressions
UNIT001    ``*_mhz``/``*_mbps`` only mix via ``repro.units``
PKL001     no lambdas/closures/local classes in RunSpec/Event payloads
DET010     no wall-clock/entropy *value* reaching a serialization
           sink through any call chain (whole-program taint)
CONC001    no module-level global written from worker-reachable code
CONC002    no blocking call reachable from ``async def``
PKL010     no unpicklable type in a RunSpec/ServiceCheckpoint closure
UNIT010    unit families tracked through calls and returns
=========  ==========================================================

Run it with ``python -m repro.analysis src`` (exit 0 clean / 1 new
findings / 2 unusable input, matching ``bench-diff``/``trace-diff``).
Suppress a justified finding in place with ``# repro: noqa RULE --
why``; freeze pre-existing debt with ``--write-baseline``.  Every scan
summarizes every file afresh; there is no result cache.  The file-local
``*001`` rules and their whole-program ``*010`` counterparts both stay:
neither tier flags what the other is built to catch.  See
``docs/ANALYSIS.md`` for the full catalogue.
"""

from __future__ import annotations

# Importing the rule modules populates the registry.
from . import determinism as _determinism  # noqa: F401
from . import interprocedural as _interprocedural  # noqa: F401
from . import numerics as _numerics  # noqa: F401
from . import pickles as _pickles  # noqa: F401
from .baseline import (apply_baseline, load_baseline,
                       refreeze_baseline, save_baseline)
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
    "apply_baseline",
    "build_context",
    "load_baseline",
    "main",
    "module_from_source",
    "refreeze_baseline",
    "register",
    "run_analysis",
    "save_baseline",
    "sort_findings",
]

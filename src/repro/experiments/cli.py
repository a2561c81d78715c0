"""What the two experiment CLIs share: flags, the run, the artifacts.

``python -m repro.experiments`` and ``python -m repro.experiments.report``
take the same twelve flags (:func:`add_run_flags`), run their figures
through the one loop (:func:`run_from_args` over
:func:`~repro.experiments.figures.run_figures`) and write the same
artifacts (:func:`write_artifacts`).  Each CLI keeps only its own
flags and its own rendering.
"""

from __future__ import annotations

import argparse
from typing import Any, Callable, Mapping, Optional, Sequence

from ..telemetry import (folded_from_stats, manifest_from_sweeps,
                         write_folded, write_jsonl)
from ..telemetry.ledger import append_ledger, write_bench
from .executor import resolve_workers, workers_type
from .figures import FigureRun, run_figures
from .settings import bench_scale, paper_scale

#: Artifact kinds :func:`write_artifacts` knows, in its default order.
ARTIFACTS = ("trace", "journal", "folded", "ledger", "bench")


def add_run_flags(parser: argparse.ArgumentParser) -> None:
    """Add the flags both experiment CLIs take."""
    parser.add_argument("--scale", choices=["bench", "paper"],
                        default="bench",
                        help="sweep size preset (default: bench)")
    parser.add_argument("--workers", type=workers_type, default=1,
                        metavar="N",
                        help="worker processes per sweep (1 = serial, "
                             "0 = one per CPU; results are identical "
                             "for every value)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="record a telemetry trace of every run "
                             "and write the merged JSONL here (the "
                             "report also gains a Telemetry section)")
    parser.add_argument("--trace-summary", action="store_true",
                        help="show the profile digest of the merged "
                             "trace: every span path and counter "
                             "series (implies tracing)")
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="record a decision audit journal of every "
                             "run and write the merged JSONL here "
                             "(diffable with trace-diff; the report "
                             "also gains a Bandit diagnostics section)")
    parser.add_argument("--audit", action="store_true",
                        help="replay every journaled run through the "
                             "invariant monitor, show the audit and "
                             "exit 1 on a violation (implies "
                             "journaling)")
    parser.add_argument("--profile", action="store_true",
                        help="record a performance-attribution digest "
                             "(span tree + domain counters) and "
                             "cProfile stats per run; digests show per "
                             "algorithm and embed into any "
                             "--ledger/--bench-out manifest (records "
                             "are unchanged)")
    parser.add_argument("--profile-out", default=None, metavar="PATH",
                        help="write a collapsed-stack flamegraph "
                             "(.folded, speedscope/flamegraph.pl "
                             "loadable) of the merged cProfile stats "
                             "(implies --profile)")
    parser.add_argument("--profile-mem", action="store_true",
                        help="additionally capture tracemalloc top "
                             "allocation sites per run and show the "
                             "merged table")
    parser.add_argument("--progress", action="store_true",
                        help="live stderr heartbeat while sweeps run "
                             "(completed/total specs, throughput, ETA; "
                             "records are unchanged)")
    parser.add_argument("--ledger", default=None, metavar="PATH",
                        help="append a RunManifest for this invocation "
                             "to a JSONL run ledger")
    parser.add_argument("--bench-out", default=None, metavar="PATH",
                        help="export the RunManifest as a "
                             "BENCH_<name>.json snapshot")


def run_from_args(args: argparse.Namespace,
                  figure_ids: Optional[Sequence[str]] = None,
                  on_figure: Optional[Callable[..., None]] = None,
                  profile: bool = False) -> FigureRun:
    """Run the figures with the observation the shared flags ask for.

    ``profile`` switches profiling on for a CLI-only flag that implies
    it (the main CLI's ``--profile-json``).
    """
    return run_figures(
        paper_scale() if args.scale == "paper" else bench_scale(),
        figure_ids, workers=args.workers,
        trace=bool(args.trace or args.trace_summary),
        journal=bool(args.journal or args.audit),
        profile=bool(profile or args.profile or args.profile_out),
        profile_mem=args.profile_mem, progress=args.progress,
        on_figure=on_figure)


def write_artifacts(args: argparse.Namespace, run: FigureRun,
                    name: str, extra: Mapping[str, Any],
                    *kinds: str) -> None:
    """Write the artifacts the shared flags ask for, one line each.

    ``kinds`` picks which of :data:`ARTIFACTS` to write and in what
    order (all of them, in that order, when empty), so each CLI keeps
    its own stdout order.  The ledger and BENCH manifest is named
    ``name`` and carries ``extra``.
    """
    kinds = kinds or ARTIFACTS
    manifest = None
    if (args.ledger and "ledger" in kinds) \
            or (args.bench_out and "bench" in kinds):
        manifest = manifest_from_sweeps(
            name, run.sweeps,
            config={"scale": run.scale,
                    "figures": [fid for fid, _ in run.figures]},
            workers=resolve_workers(run.workers), phases=run.phases,
            extra=extra)
    for kind in kinds:
        if kind == "trace" and args.trace:
            path = write_jsonl(args.trace, run.trace)
            print(f"wrote trace ({len(run.trace)} events) to {path}")
        elif kind == "journal" and args.journal:
            path = write_jsonl(args.journal, run.journal)
            print(f"wrote journal ({len(run.journal)} events) to {path}")
        elif kind == "folded" and args.profile_out:
            path = write_folded(args.profile_out,
                                folded_from_stats(run.stats))
            print(f"wrote collapsed stacks to {path}")
        elif kind == "ledger" and args.ledger:
            path = append_ledger(args.ledger, manifest)
            print(f"appended manifest {name!r} to {path}")
        elif kind == "bench" and args.bench_out:
            path = write_bench(args.bench_out, manifest)
            print(f"wrote manifest {name!r} to {path}")

"""Command-line driver: ``python -m repro.experiments``.

Runs the Section VI figures and prints the paper-style tables, with
optional CSV export::

    python -m repro.experiments --figures 3 4 --scale bench
    python -m repro.experiments --figures all --scale paper --out results/

The bench scale finishes in about a minute; the paper scale runs the
full Section VI sweeps (several minutes).

Telemetry: ``--trace PATH`` records a :mod:`repro.telemetry` trace of
every run (one JSONL event stream, merged in canonical RunSpec order)
and ``--trace-summary`` prints where the milliseconds went: the
:class:`~repro.telemetry.ProfileDigest` of the merged trace, every
span path with its calls and total / self time, then every counter
series::

    python -m repro.experiments --figures 3 --trace fig3.jsonl --trace-summary

Observability across runs: ``--progress`` adds a live stderr heartbeat
(completed/total specs, throughput, ETA) while sweeps execute;
``--ledger PATH`` appends a :class:`~repro.telemetry.RunManifest`
(config hash, git rev, seeds, peak RSS, per-figure wall-clock,
headline metrics per algorithm) to a JSONL ledger and ``--bench-out
PATH`` exports it as a ``BENCH_<name>.json`` snapshot.  The
``bench-diff`` subcommand compares two such files and exits non-zero
on regression::

    python -m repro.experiments --figures 3 --bench-out BENCH_new.json
    python -m repro.experiments bench-diff BENCH_old.json BENCH_new.json --tol 0.05

Decision auditing: ``--journal PATH`` records every scheduling
decision (arrivals, starts, drops, migrations, rounding admissions,
bandit arm plays/eliminations, station outages) to a canonical JSONL
journal, ``--audit`` replays each run's journal through the invariant
monitor and prints the audit, and the ``trace-diff`` subcommand aligns
two journals and localizes the first divergent event (exit 0/1/2 like
bench-diff)::

    python -m repro.experiments --figures 3 --journal serial.jsonl
    python -m repro.experiments --figures 3 --workers 2 --journal par.jsonl
    python -m repro.experiments trace-diff serial.jsonl par.jsonl

Performance attribution: ``--profile`` records a
:class:`~repro.telemetry.ProfileDigest` per run (span-tree self/cum
time, call counts, domain counters joined onto their owning spans)
plus cProfile stats, merged per algorithm and embedded into any
``--ledger`` / ``--bench-out`` manifest; ``--profile-json PATH``
exports the digests as ``PROF_<name>.json``, ``--profile-out PATH``
writes a collapsed-stack flamegraph (speedscope / flamegraph.pl), and
``--profile-mem`` captures top allocation sites.  The ``perf-diff``
subcommand compares two digest-bearing artifacts and localizes the
worst regressed span (exit 0/1/2 like bench-diff)::

    python -m repro.experiments --figures 3 --profile --bench-out BENCH_new.json
    python -m repro.experiments perf-diff benchmarks/PROF_baseline.json BENCH_new.json

Profiling is observation-only: records, journals, and manifest metrics
are byte-identical with it on or off (see ``docs/PROFILING.md``).

The streaming admission service (``python -m repro.service loadgen`` /
``resume``) emits the same journal format and ``BENCH_service.json``
manifests, so ``trace-diff`` doubles as its resume byte-identity gate
and ``bench-diff`` as its throughput-regression check - see
``docs/SERVICE.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..telemetry import (digest_from_events, render_digest,
                         render_memory_top, write_profile_set)
from .cli import add_run_flags, run_from_args, write_artifacts
from .export import export_figure
from .reporting import render_ascii_plot, render_figure


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's figures (ICDCS 2021 MEC/AR "
                    "offloading reproduction).  The bench-diff "
                    "subcommand (python -m repro.experiments "
                    "bench-diff OLD NEW) compares two run ledgers; the "
                    "trace-diff subcommand (python -m repro.experiments "
                    "trace-diff A.jsonl B.jsonl) localizes the first "
                    "divergent event between two decision journals.")
    parser.add_argument("--figures", nargs="+", default=["all"],
                        choices=["3", "4", "5", "6", "all"],
                        help="which figures to run (default: all)")
    add_run_flags(parser)
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="directory for CSV export (optional)")
    parser.add_argument("--plot", action="store_true",
                        help="also render ASCII line plots")
    parser.add_argument("--profile-json", default=None, metavar="PATH",
                        help="export the merged per-algorithm digests "
                             "as PROF_<name>.json (perf-diff input; "
                             "implies --profile)")
    parser.add_argument("--bench-name", default=None, metavar="NAME",
                        help="manifest name (default: "
                             "figures-<ids>-<scale>)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "bench-diff":
        from ..telemetry.regression import main as bench_diff_main
        return bench_diff_main(argv[1:])
    if argv and argv[0] == "trace-diff":
        from ..telemetry.tracediff import main as trace_diff_main
        return trace_diff_main(argv[1:])
    if argv and argv[0] == "perf-diff":
        from ..telemetry.perfdiff import main as perf_diff_main
        return perf_diff_main(argv[1:])
    args = build_parser().parse_args(argv)
    wanted = None if "all" in args.figures else args.figures

    def print_figure(fig_id, sweep, panels) -> None:
        print(render_figure(sweep, panels, f"Figure {fig_id}"))
        print()
        if args.plot:
            for metric in panels:
                print(render_ascii_plot(
                    sweep, metric,
                    title=f"Figure {fig_id}: {metric}"))
                print()
        if args.out:
            for path in export_figure(sweep, args.out, f"fig{fig_id}"):
                print(f"  wrote {path}")
            print()

    run = run_from_args(args, wanted, on_figure=print_figure,
                        profile=bool(args.profile_json))
    ids = [fig_id for fig_id, _ in run.figures]
    name = args.bench_name or f"figures-{'-'.join(ids)}-{args.scale}"
    extra = {"scale": args.scale, "figures": ids}
    write_artifacts(args, run, name, extra, "ledger", "bench")
    if run.profiled:
        print()
        print("Profile digests")
        for algo in sorted(run.digests):
            print(f"== {algo} ==")
            print(render_digest(run.digests[algo], top=10))
            print()
        if args.profile_json:
            path = write_profile_set(args.profile_json, run.digests)
            print(f"wrote {len(run.digests)} digest(s) to {path}")
        write_artifacts(args, run, name, extra, "folded")
    if run.profiled_mem:
        print()
        print("Top allocation sites")
        print(render_memory_top(run.memory))
    write_artifacts(args, run, name, extra, "trace")
    if args.trace_summary:
        print()
        print("Telemetry summary")
        digest = digest_from_events(run.trace)
        print(render_digest(digest, top=len(digest.spans)))
    write_artifacts(args, run, name, extra, "journal")
    if args.audit:
        print()
        print("Invariant audit")
        for group, outcome in run.audits.items():
            verdict = ("ok" if not outcome.violations
                       else f"{len(outcome.violations)} violation(s)")
            checks = sum(outcome.checks.values())
            print(f"  {group}: {outcome.runs_audited} run(s), "
                  f"{checks} checks, {verdict}")
            for tag, violation in outcome.violations:
                print(f"    {tag}: {violation}")
        if any(outcome.violations for outcome in run.audits.values()):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

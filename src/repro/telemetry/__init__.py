"""Structured observability: spans, metrics, journals, trace export.

The subsystem answers "where did the milliseconds go" for any run -
an LP solve, an Appro rounding pass, a Heu migration, a DynamicRR
bandit round, a simulated slot::

    from repro.telemetry import (Tracer, digest_from_events,
                                 render_digest, use_tracer)

    tracer = Tracer()
    with use_tracer(tracer):
        run_offline(Appro(), instance, workload)
    print(render_digest(digest_from_events(tracer.events())))

Each quantity has one store: the :class:`Tracer` keeps spans, the
:class:`MetricsRegistry` every count (solver nodes, rounding passes,
bandit steps, event counts), and the decision :class:`Journal` what
was decided.  Instrumented code never imports a concrete store; it
calls :func:`get_tracer` / :func:`get_metrics` / :func:`get_journal`
and records through whatever is current.  The defaults are no-ops, so
uninstrumented runs pay nothing measurable.  Sweeps enable tracing per
:class:`~repro.experiments.executor.RunSpec` (``--trace`` on the
experiment CLIs): a traced run's trace is its spans followed by its
registry's counters (:class:`~repro.telemetry.profiling.Capture`);
each worker traces its own runs and :func:`collect_sweep_trace` merges
the fragments deterministically in canonical spec order.

Beyond in-process tracing, the subsystem persists observability
*across* runs: :mod:`~repro.telemetry.ledger` condenses a sweep into a
:class:`RunManifest` (config hash, git rev, seeds, peak RSS, per-phase
wall-clock, headline metrics per algorithm) appended to a JSONL ledger
or exported as ``BENCH_<name>.json``; :mod:`~repro.telemetry.regression`
diffs two ledgers with tolerance gates (``python -m repro.experiments
bench-diff OLD NEW``); and :mod:`~repro.telemetry.progress` provides
the live stderr heartbeat behind the CLIs' ``--progress`` flag.

:mod:`~repro.telemetry.audit` adds the *decision* audit trail: a
canonical :class:`Journal` of every scheduling decision (lifecycle,
migrations, rounding admissions/rejections, bandit arm plays and
eliminations, station outages), an online :class:`InvariantMonitor`
checking the paper's invariants over that stream in ``strict`` or
``collect`` mode, and - via :mod:`~repro.telemetry.tracediff` - the
``trace-diff`` CLI that localizes the first divergent event between
two journals (``python -m repro.experiments trace-diff A B``).

:mod:`~repro.telemetry.profiling` is the performance-attribution
layer: a canonical :class:`ProfileDigest` per run (span-tree self/cum
time + call counts + domain counters joined onto their owning spans),
opt-in ``cProfile``/``tracemalloc`` deep capture with collapsed-stack
flamegraph export, and - via :mod:`~repro.telemetry.perfdiff` - the
``perf-diff`` CLI that localizes the worst regressed span between two
digests (``python -m repro.experiments perf-diff OLD NEW``).  All three
diff CLIs run on one core, :mod:`~repro.telemetry.diffcore`.
"""

from .audit import (INVARIANTS, NULL_JOURNAL, AuditOutcome,
                    InvariantMonitor, Journal, NullJournal, Violation,
                    audit_records, collect_sweep_journal, emit,
                    emit_many, get_journal, set_journal, use_journal)
from .export import (WALL_CLOCK_FIELDS, canonical_events,
                     collect_sweep_trace, read_jsonl, write_jsonl)
from .ledger import (MANIFEST_SCHEMA, WALL_CLOCK_METRICS, RunManifest,
                     append_ledger, config_hash, git_revision,
                     latest_by_name, load_manifests,
                     manifest_from_sweeps, peak_rss_kb, write_bench)
from .metrics import (NULL_REGISTRY, MetricsRegistry, NullRegistry,
                      StreamingHistogram, get_metrics, set_metrics,
                      use_metrics)
from .perfdiff import diff_profile_sets
from .profiling import (COUNTER_OWNERS, DIGEST_SCHEMA,
                        PROFILE_SET_SCHEMA, ProfileDigest, SpanProfile,
                        canonical_digest, collect_sweep_profiles,
                        counter_owner, digest_from_events,
                        folded_from_digest, folded_from_stats,
                        load_profile_set,
                        merge_digests, merge_memory, merge_stats,
                        render_digest, render_memory_top,
                        write_folded, write_profile_set)
from .progress import ProgressReporter
from .regression import (DEFAULT_METRIC_TOL, DEFAULT_WALL_TOL, Delta,
                         DiffReport, diff_ledgers, diff_manifests)
from .tracer import (NULL_TRACER, NullTracer, Tracer, get_tracer,
                     set_tracer, use_tracer)

__all__ = [
    "AuditOutcome",
    "COUNTER_OWNERS",
    "DEFAULT_METRIC_TOL",
    "DIGEST_SCHEMA",
    "PROFILE_SET_SCHEMA",
    "ProfileDigest",
    "SpanProfile",
    "DEFAULT_WALL_TOL",
    "Delta",
    "DiffReport",
    "INVARIANTS",
    "InvariantMonitor",
    "Journal",
    "MANIFEST_SCHEMA",
    "MetricsRegistry",
    "NULL_JOURNAL",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullJournal",
    "NullRegistry",
    "NullTracer",
    "StreamingHistogram",
    "ProgressReporter",
    "RunManifest",
    "Tracer",
    "WALL_CLOCK_FIELDS",
    "WALL_CLOCK_METRICS",
    "Violation",
    "append_ledger",
    "audit_records",
    "canonical_digest",
    "canonical_events",
    "collect_sweep_journal",
    "collect_sweep_profiles",
    "collect_sweep_trace",
    "config_hash",
    "counter_owner",
    "digest_from_events",
    "emit",
    "emit_many",
    "get_journal",
    "get_metrics",
    "diff_ledgers",
    "diff_manifests",
    "diff_profile_sets",
    "folded_from_digest",
    "folded_from_stats",
    "get_tracer",
    "git_revision",
    "latest_by_name",
    "load_manifests",
    "load_profile_set",
    "manifest_from_sweeps",
    "merge_digests",
    "merge_memory",
    "merge_stats",
    "peak_rss_kb",
    "read_jsonl",
    "render_digest",
    "render_memory_top",
    "set_journal",
    "set_metrics",
    "set_tracer",
    "use_journal",
    "use_metrics",
    "use_tracer",
    "write_bench",
    "write_folded",
    "write_jsonl",
    "write_profile_set",
]

"""One-shot reproduction report generator.

``build_report`` renders a :class:`~repro.experiments.figures.FigureRun`
(and optionally the ablation studies) as a self-contained Markdown
report in the style of the repository's ``EXPERIMENTS.md`` - tables
per figure panel plus the theorem-check summary - so a user can
regenerate the whole evidence base with one call::

    from repro.experiments.figures import run_figures
    from repro.experiments.report import build_report
    text = build_report(run_figures(bench_scale()))
    Path("my_experiments.md").write_text(text)

or from the shell::

    python -m repro.experiments.report --scale bench --out report.md
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence,
                    Tuple)

from ..config import OnlineConfig
from ..sim.events import EventKind
from ..sim.results import SweepResult
from ..telemetry import (INVARIANTS, AuditOutcome, audit_records,
                         digest_from_events, render_digest,
                         render_memory_top)
from ..telemetry.summary import table_lines
from .ablations import (approximation_ratio_study, clairvoyant_study,
                        system_regret_study)
from . import figures
from .cli import add_run_flags, run_from_args, write_artifacts
from .figures import FigureRun

#: The report's heading (and its manifest's ``title`` label).
DEFAULT_TITLE = "Reproduction report"


def _markdown_table(sweep: SweepResult, metric: str) -> str:
    """One metric of a sweep as a Markdown table."""
    xs = sweep.x_values()
    rows: List[List[str]] = []
    for algorithm in sweep.algorithms():
        xs_a, means, _ = sweep.series(algorithm, metric)
        by_x = dict(zip(xs_a, means))
        rows.append([algorithm] + [f"{by_x[x]:.1f}" if x in by_x else "-"
                                   for x in xs])
    return "\n".join(table_lines(["algorithm"] + [f"{x:g}" for x in xs],
                                 rows, markdown=True))


def render_figure_markdown(sweep: SweepResult, figure_id: str,
                           panels: Sequence[str]) -> str:
    """One figure as a Markdown section with a table per panel."""
    parts = [f"## Figure {figure_id} (x = {sweep.x_label})"]
    labels = "abcdefgh"
    for i, metric in enumerate(panels):
        parts.append(f"### ({labels[i]}) {metric}")
        parts.append(_markdown_table(sweep, metric))
    return "\n\n".join(parts)


def theorem_checks_markdown(fast: bool = True) -> str:
    """Run the theorem-check studies and render their summary."""
    if fast:
        ratio_mean, _ = approximation_ratio_study(num_requests=8,
                                                  seeds=(0, 1))
        regret = system_regret_study(thresholds=(200.0, 600.0, 1000.0),
                                     num_requests=80, horizon_slots=40)
        clair = clairvoyant_study(num_requests=80, horizon_slots=40)
    else:
        ratio_mean, _ = approximation_ratio_study()
        regret = system_regret_study()
        clair = clairvoyant_study()
    lines = [
        "## Theorem checks",
        "",
        "| claim | measured |",
        "|---|---|",
        f"| Thm. 1: Appro >= Opt/8 (single pass) | empirical mean "
        f"ratio {ratio_mean:.3f} (bound: 0.125) |",
        f"| Thm. 3: regret vs best fixed C^th | relative regret "
        f"{regret['relative_regret']:+.1%} (best arm "
        f"{regret['best_threshold']:.0f} MHz) |",
        f"| Competitive ratio vs clairvoyant bound | "
        f"{clair['competitive_ratio']:.3f} |",
    ]
    return "\n".join(lines)


#: Journal event kinds that make up the bandit learning trajectory.
_SELECTED = EventKind.ARM_SELECTED.value
_ELIMINATED = EventKind.ARM_ELIMINATED.value
_START = EventKind.START.value


def bandit_rounds(journal: Iterable[Dict]) -> Dict[Tuple, List[List]]:
    """Every learning run's bandit rounds, walked from a journal.

    Each ``ARM_SELECTED`` opens a round ``[slot, arm, threshold,
    reward, eliminated]``: the round's reward is the sum of that slot's
    ``START`` rewards, in journal order as the engine sums a slot's,
    and ``eliminated`` counts that slot's ``ARM_ELIMINATED`` events.
    Runs are keyed by the ``(figure, run, algorithm, x, seed)`` tags of
    :func:`~repro.telemetry.export.collect_sweep_trace`; the events of
    an untagged journal form one run.
    """
    runs: Dict[Tuple, List[List]] = {}
    for event in journal:
        kind = event.get("kind")
        if kind not in (_SELECTED, _ELIMINATED, _START):
            continue
        key = (str(event.get("figure")), event.get("run"),
               event.get("algorithm"), event.get("x"),
               event.get("seed"))
        if kind == _SELECTED:
            runs.setdefault(key, []).append(
                [event["slot"], event["arm"], event["value"], 0.0, 0])
            continue
        rounds = runs.get(key)
        if rounds and rounds[-1][0] == event["slot"]:
            if kind == _START:
                rounds[-1][3] += event["reward"]
            else:
                rounds[-1][4] += 1
    return runs


def bandit_diagnostics_markdown(journal: Sequence[Dict],
                                num_arms: int = OnlineConfig.num_arms,
                                max_rows: int = 10) -> Optional[str]:
    """Render the DynamicRR learning trajectory from a merged journal.

    The rounds are :func:`bandit_rounds`'.  A round's surviving arms
    are ``num_arms`` minus the ``ARM_ELIMINATED`` events so far, and
    its cumulative reward the running sum of the rounds' rewards.  The
    first journaled learning run is rendered as a round-by-round table
    - the Theorem 3 regret curve made inspectable.  Returns None when
    no run played an arm (e.g. an offline-only report).

    Args:
        journal: a merged journal, tagged as
            :func:`~repro.telemetry.export.collect_sweep_trace` tags.
        num_arms: the runs' arm-grid size; every figure builds
            DynamicRR on the default :class:`OnlineConfig`.
        max_rows: table rows before rounds are sampled.
    """
    runs = bandit_rounds(journal)
    if not runs:
        return None
    first_key = sorted(runs)[0]
    figure, _run, algorithm, x, seed = first_key
    trajectory = []  # (threshold, surviving arms, cumulative reward)
    alive, total = num_arms, 0.0
    for _slot, _arm, threshold, reward, eliminated in runs[first_key]:
        alive -= eliminated
        total += reward
        trajectory.append((threshold, alive, total))
    rounds = len(trajectory)
    step = max(1, -(-rounds // max_rows))  # ceil division
    indices = list(range(0, rounds, step))
    if indices[-1] != rounds - 1:
        indices.append(rounds - 1)
    lines = [
        "## Bandit diagnostics (DynamicRR)",
        "",
        f"Traced learning runs: {len(runs)}.  Trajectory below: "
        f"figure {figure}, {algorithm}, x={x:g}, seed={seed} "
        f"({rounds} bandit rounds).",
        "",
    ] + table_lines(
        ["round", "threshold (MHz)", "surviving arms",
         "cumulative reward"],
        [[str(i + 1), f"{trajectory[i][0]:.0f}", str(trajectory[i][1]),
          f"{trajectory[i][2]:.1f}"] for i in indices], markdown=True)
    lines.append("")
    lines.append(
        f"Final surviving arms: {alive}; the threshold trajectory "
        f"converging while arms die off is Theorem 3's sublinear "
        f"regret at work.")
    return "\n".join(lines)


def invariant_audit_markdown(sweeps: Dict[str, SweepResult]
                             ) -> Optional[str]:
    """The "Invariant audit" section: every journaled run, checked.

    Replays each run's decision journal through a collect-mode
    :class:`~repro.telemetry.InvariantMonitor` (closed with the run's
    own metric row) and renders the per-invariant check counts plus
    any violations.  Returns None when no run carried a journal.
    """
    return _audit_markdown({name: audit_records(sweep.records)
                            for name, sweep in sweeps.items()})


def _audit_markdown(outcomes: Mapping[str, AuditOutcome]
                    ) -> Optional[str]:
    """:func:`invariant_audit_markdown` over audits already run."""
    outcomes = {name: out for name, out in outcomes.items()
                if out.runs_audited}
    if not outcomes:
        return None
    runs = sum(out.runs_audited for out in outcomes.values())
    violations = [(name, tag, v) for name, out in outcomes.items()
                  for tag, v in out.violations]
    verdict = ("all invariants held" if not violations
               else f"{len(violations)} VIOLATION(S)")
    lines = [
        "## Invariant audit",
        "",
        f"Audited {runs} journaled run(s) across "
        f"{len(outcomes)} sweep(s): **{verdict}**.",
        "",
    ]
    rows = []
    for name in INVARIANTS:
        checks = sum(out.checks[name] for out in outcomes.values())
        fails = sum(1 for _f, _t, v in violations
                    if v.invariant == name)
        rows.append([name, str(checks), "FAIL" if fails else
                     "ok" if checks else "not exercised"])
    lines += table_lines(["invariant", "checks", "status"], rows,
                         markdown=True)
    for figure, tag, violation in violations:
        lines.append("")
        lines.append(f"- `{figure}` {tag}: {violation}")
    return "\n".join(lines)


def timing_markdown(timings: Sequence[Tuple[str, float, float]],
                    workers: int) -> str:
    """Render per-figure wall-clock (and speedup when measured).

    Args:
        timings: ``(figure id, elapsed seconds, serial seconds)`` rows;
            serial seconds is NaN when no baseline was measured.
        workers: worker processes the report ran with.
    """
    rows = []
    for figure_id, elapsed, serial in timings:
        if serial == serial:  # not NaN: a baseline was measured
            speedup = f"{serial / elapsed:.2f}x" if elapsed > 0 else "-"
            rows.append([figure_id, f"{elapsed:.2f}", f"{serial:.2f}",
                         speedup])
        else:
            rows.append([figure_id, f"{elapsed:.2f}", "-", "-"])
    total = sum(t[1] for t in timings)
    rows.append(["total", f"{total:.2f}", "-", "-"])
    return "\n".join(
        ["## Wall-clock", "", f"Sweeps executed with `workers={workers}`.",
         ""] + table_lines(["figure", "wall-clock (s)", "serial (s)",
                            "speedup"], rows, markdown=True))


def build_report(run: FigureRun,
                 include_theorems: bool = True,
                 title: str = DEFAULT_TITLE,
                 measure_speedup: bool = False) -> str:
    """Render a figure run as the full Markdown report.

    Args:
        run: the figures to report, from
            :func:`~repro.experiments.figures.run_figures`.  The
            observation it carries adds sections: a trace adds
            "Telemetry", a journal "Bandit diagnostics" and the
            "Invariant audit", profiling the "Profile digests" and
            allocation capture the "Top allocation sites".
        include_theorems: append the theorem-check studies.
        title: report heading.
        measure_speedup: when True and the run used ``workers != 1``,
            re-run each figure serially and report the wall-clock
            speedup (results stay identical by construction).
    """
    scale = run.scale
    parts = [f"# {title}",
             "",
             f"Sweeps: |R| in {scale.request_counts}, |BS| in "
             f"{scale.station_counts}, max rate in "
             f"{scale.max_rates_mbps}; {scale.num_seeds} seed(s) per "
             f"point; online horizon {scale.horizon_slots} slots."]
    timings: List[Tuple[str, float, float]] = []
    for figure_id, panels in run.figures:
        serial_s = float("nan")
        if measure_speedup and run.workers != 1:
            driver, _panels = figures.FIGURES[figure_id]
            start = time.perf_counter()  # repro: noqa DET010 -- advisory runtime metric
            driver(scale, workers=1)
            serial_s = time.perf_counter() - start  # repro: noqa DET010 -- advisory runtime metric
        timings.append((figure_id, run.phases[f"fig{figure_id}"],
                        serial_s))
        parts.append(render_figure_markdown(
            run.sweeps[f"fig{figure_id}"], figure_id, panels))
    parts.append(timing_markdown(timings, run.workers))
    if run.trace is not None:
        digest = digest_from_events(run.trace)
        parts.append("## Telemetry\n\n"
                     + render_digest(digest, top=len(digest.spans),
                                     markdown=True))
    if run.journal is not None:
        diagnostics = bandit_diagnostics_markdown(run.journal)
        if diagnostics is not None:
            parts.append(diagnostics)
        audit = _audit_markdown(run.audits)
        if audit is not None:
            parts.append(audit)
    if run.profiled:
        digest_parts = ["## Profile digests"]
        for name in sorted(run.digests):
            digest_parts.append(f"### {name}")
            digest_parts.append(render_digest(run.digests[name], top=10,
                                              markdown=True))
        parts.append("\n\n".join(digest_parts))
    if run.profiled_mem:
        parts.append("## Top allocation sites\n\n"
                     + render_memory_top(run.memory, markdown=True))
    if include_theorems:
        parts.append(theorem_checks_markdown(fast=True))
    return "\n\n".join(parts) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    """CLI: ``python -m repro.experiments.report``.

    Exits 1 when ``--audit`` finds an invariant violation.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.report",
        description="Generate a Markdown reproduction report.")
    add_run_flags(parser)
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the report here (default: stdout)")
    parser.add_argument("--no-theorems", action="store_true",
                        help="skip the theorem-check studies")
    parser.add_argument("--speedup", action="store_true",
                        help="also run each sweep serially and report "
                             "the wall-clock speedup")
    args = parser.parse_args(argv)
    run = run_from_args(args)
    text = build_report(run, include_theorems=not args.no_theorems,
                        measure_speedup=args.speedup)
    write_artifacts(args, run, "report", {"title": DEFAULT_TITLE})
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    failed = args.audit and any(outcome.violations
                                for outcome in run.audits.values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

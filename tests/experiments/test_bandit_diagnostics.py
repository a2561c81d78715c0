"""The report's "Bandit diagnostics" section, pinned to golden text.

The goldens were rendered from traced runs when the trajectory was
still stored as tracer value series; the section is now rebuilt from
the decision journal and must reproduce them byte for byte.  Two runs:
a small Fig. 4 DynamicRR sweep (no eliminations inside its horizon)
and the 11-arm Theorem 3 config of ``test_dynamic_rr.py``, whose six
eliminations move the surviving-arms column.
"""

from functools import partial
from pathlib import Path

import pytest

from repro.config import (NetworkConfig, OnlineConfig, RequestConfig,
                          SimulationConfig)
from repro.core.dynamic_rr import DynamicRR
from repro.experiments import figures
from repro.experiments.executor import ONLINE, RunSpec, execute_run
from repro.experiments.figures import run_figures
from repro.experiments.report import (bandit_diagnostics_markdown,
                                      build_report)
from repro.experiments.runner import run_online_sweep
from repro.experiments.settings import base_config
from repro.sim.results import SweepResult

GOLDEN = Path(__file__).parent / "golden"

THEOREM3 = SimulationConfig(
    network=NetworkConfig(num_base_stations=8),
    requests=RequestConfig(num_requests=150, stream_duration_slots=10),
    online=OnlineConfig(horizon_slots=150, num_arms=11,
                        confidence_scale=0.05),
    seed=7,
).validate()


def fig4_driver(scale, workers=1, **observe):
    """Fig. 4's DynamicRR series at one small point."""
    return run_online_sweep(
        [DynamicRR], x_values=[60],
        make_config=lambda x, seed: base_config(seed),
        num_requests_of=int, horizon_slots=30, num_seeds=1,
        x_label="num_requests", workers=workers, **observe)


def theorem3_driver(scale, workers=1, **observe):
    """One DynamicRR run of the Theorem 3 end-to-end config."""
    spec = RunSpec(mode=ONLINE,
                   factory=partial(DynamicRR, THEOREM3.online, rng=7),
                   x=150, seed=7, config=THEOREM3, num_requests=150,
                   horizon_slots=150, **observe)
    sweep = SweepResult("num_requests")
    sweep.add(execute_run(spec))
    return sweep


def section(text):
    """The report's Bandit diagnostics section, newline-terminated."""
    start = text.index("## Bandit diagnostics")
    end = text.find("\n\n## ", start)
    return text[start:end if end >= 0 else len(text.rstrip())] + "\n"


@pytest.fixture()
def figure_table(monkeypatch):
    monkeypatch.setattr(figures, "FIGURES", {
        "4": (fig4_driver, ("total_reward",)),
        "t3": (theorem3_driver, ("total_reward",))})


@pytest.mark.usefixtures("figure_table")
def test_journaled_report_reproduces_fig4_golden():
    run = run_figures(figure_ids=["4"], journal=True)
    text = build_report(run, include_theorems=False)
    assert section(text) \
        == (GOLDEN / "bandit_diagnostics_fig4.md").read_text()


@pytest.mark.usefixtures("figure_table")
def test_theorem3_journal_reproduces_golden():
    run = run_figures(figure_ids=["t3"], journal=True)
    assert sum(event["kind"] == "arm_eliminated"
               for event in run.journal) == 6
    text = bandit_diagnostics_markdown(
        run.journal, num_arms=THEOREM3.online.num_arms)
    assert text + "\n" \
        == (GOLDEN / "bandit_diagnostics_theorem3.md").read_text()


@pytest.mark.usefixtures("figure_table")
def test_trace_alone_adds_no_diagnostics():
    run = run_figures(figure_ids=["4"], trace=True)
    assert "Bandit diagnostics" not in build_report(
        run, include_theorems=False)


def test_no_arm_played_renders_nothing():
    assert bandit_diagnostics_markdown(
        [{"kind": "start", "slot": 0, "request": 1, "reward": 1.0}]) \
        is None

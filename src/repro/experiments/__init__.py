"""Experiment drivers that regenerate the paper's figures.

Each ``figure*`` function in :mod:`~repro.experiments.figures` runs the
sweep behind one figure of Section VI and returns a
:class:`~repro.sim.results.SweepResult` whose series have the same
shape as the paper's plots.  :mod:`~repro.experiments.reporting`
renders them as ASCII tables (the benches print those), and
:mod:`~repro.experiments.settings` holds the paper-scale and
bench-scale parameter presets.  :mod:`~repro.experiments.executor`
fans sweep grids out over worker processes (the ``workers`` knob on
every driver) with records identical to the serial path.
"""

from .settings import ExperimentScale, bench_scale, paper_scale
from .executor import (RunSpec, execute_run, execute_specs,
                       execute_sweep, resolve_workers)
from .runner import (build_offline_specs, build_online_specs,
                     run_offline_sweep, run_online_sweep)
from .figures import figure3, figure4, figure5, figure6
from .reporting import render_ascii_plot, render_figure, render_table

__all__ = [
    "ExperimentScale",
    "paper_scale",
    "bench_scale",
    "RunSpec",
    "execute_run",
    "execute_specs",
    "execute_sweep",
    "resolve_workers",
    "build_offline_specs",
    "build_online_specs",
    "run_offline_sweep",
    "run_online_sweep",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "render_table",
    "render_ascii_plot",
    "render_figure",
]

"""``LinearProgram.objective_value`` against an explicit left-to-right loop.

The objective value is ``sum(c[k] * x[k])`` accumulated in column order
from ``0.0``, one rounding per addition, whatever the BLAS or the
Python version (CPython 3.12 made ``sum()`` of floats compensated).  The
reference below is that loop written out; the model's value must equal
it bit for bit - sign of zero included - on the Fig. 3 LP, on every
LP-PT of a seed-0 Fig. 4 run (solved there, so ``x`` is a real HiGHS
vertex), and on random and degenerate vectors.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.dynamic_rr import DynamicRR
from repro.core.instance import ProblemInstance
from repro.core.lp_relaxation import build_lp_relaxation
from repro.experiments.executor import ONLINE, RunSpec, execute_run
from repro.experiments.settings import base_config
from repro.solver import interface, scipy_backend
from repro.solver.model import LinearProgram

#: The Fig. 4 run: DynamicRR on 300 requests over 100 slots, seed 0.
FIG4_REQUESTS = 300
FIG4_HORIZON_SLOTS = 100


def loop_sum(c, x) -> float:
    """The documented arithmetic: ``acc += a * b`` from ``acc = 0.0``."""
    acc = 0.0
    for a, b in zip(np.asarray(c, dtype=float).tolist(),
                    np.asarray(x, dtype=float).tolist()):
        acc += a * b
    return acc


def same_float(a: float, b: float) -> bool:
    """Bit-equal, with every NaN equal to every NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def model_with(objective) -> LinearProgram:
    lp = LinearProgram(name="vector")
    for k, coefficient in enumerate(objective):
        lp.add_variable(f"x{k}", high=1.0, objective=float(coefficient))
    return lp


def test_fig3_lp_at_its_optimum_and_at_random_points():
    instance = ProblemInstance.build(base_config(0), seed=0)
    workload = instance.new_workload(num_requests=300, seed=0)
    lp = build_lp_relaxation(instance, workload)[0]
    c = lp.objective_vector()
    _, x = scipy_backend.solve_lp_scipy(lp)
    points = [x] + [np.random.default_rng(k).random(c.size)
                    for k in range(3)]
    for point in points:
        assert same_float(lp.objective_value(point), loop_sum(c, point))


def test_every_lp_pt_of_a_fig4_run():
    checked = []

    def solve(lp):
        objective, x = scipy_backend.solve_lp_scipy(lp)
        checked.append(same_float(objective,
                                  loop_sum(lp.objective_vector(), x)))
        return objective, x

    spec = RunSpec(mode=ONLINE, factory=DynamicRR,
                   x=float(FIG4_REQUESTS), seed=0, config=base_config(0),
                   num_requests=FIG4_REQUESTS,
                   horizon_slots=FIG4_HORIZON_SLOTS)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(interface, "solve_lp_scipy", solve)
        execute_run(spec)
    assert len(checked) > 50
    assert all(checked)


@pytest.mark.parametrize("seed", range(40))
def test_random_vectors(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 400))
    c = rng.normal(size=size) * 10.0 ** rng.integers(-8, 8, size=size)
    x = rng.normal(size=size) * 10.0 ** rng.integers(-8, 8, size=size)
    x[rng.random(size) < 0.2] = 0.0
    x[rng.random(size) < 0.1] = -0.0
    lp = model_with(c)
    assert same_float(lp.objective_value(x), loop_sum(c, x))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("c, x", [
    ([], []),
    ([1.0], [-0.0]),
    ([-1.0, 2.0], [0.0, -0.0]),
    ([-0.0, -0.0], [1.0, 1.0]),
    ([1.0, 2.0], [math.nan, 1.0]),
    ([1.0, 1.0], [math.inf, -math.inf]),
    ([1.0, 1.0], [math.inf, 5.0]),
    ([0.0, 3.0], [math.inf, 1.0]),
    ([1e308, 1e308, -1e308], [1.0, 1.0, 1.0]),
    ([1.0, 1e-16, 1e-16], [1.0, 1.0, 1.0]),
], ids=["empty", "negative-zero-product", "mixed-zero-products",
        "negative-zero-coefficients", "nan", "inf-minus-inf", "inf",
        "zero-times-inf", "overflow-on-the-way", "absorbed-increments"])
def test_edge_cases(c, x):
    value = model_with(c).objective_value(np.array(x, dtype=float))
    assert type(value) is float
    assert same_float(value, loop_sum(c, x))

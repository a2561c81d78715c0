"""From-scratch best-first branch-and-bound for integer programs.

Solves the paper's **ILP-RM** exactly on small instances (the paper:
"we devise an exact solution for the problem if the problem size is
small").  The solver relaxes integrality, solves the LP with a
pluggable backend, branches on the most fractional integer variable by
tightening its bounds, and explores nodes best-bound-first with
incumbent pruning.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import InfeasibleProblemError, SolverError
from ..telemetry.metrics import get_metrics
from .model import LinearProgram

#: An LP oracle: model -> (objective, x in column order).  Must raise
#: InfeasibleProblemError on infeasible nodes.
LpOracle = Callable[[LinearProgram], Tuple[float, np.ndarray]]

_INT_TOL = 1e-6

#: Column -> (low, high) bounds a node overrides.
Overrides = Dict[int, Tuple[float, float]]


@dataclass(order=True)
class _Node:
    """A branch-and-bound node ordered by bound (best-first)."""

    sort_key: float
    counter: int
    overrides: Overrides = field(compare=False)


def _most_fractional(is_int: np.ndarray, x: np.ndarray) -> Optional[int]:
    """Integer column farthest from integrality (lowest on ties), or None."""
    frac = np.where(is_int, np.abs(x - np.round(x)), 0.0)
    col = int(np.argmax(frac)) if frac.size else 0
    return col if frac.size and frac[col] > _INT_TOL else None


def solve_with_branch_and_bound(
        lp: LinearProgram,
        lp_oracle: LpOracle,
        max_nodes: int = 20_000) -> Tuple[float, np.ndarray]:
    """Solve a mixed-integer program exactly.

    Args:
        lp: the model (must contain at least one integer variable to be
            interesting; a pure LP is simply handed to the oracle).
        lp_oracle: continuous-relaxation solver.
        max_nodes: node budget before giving up.

    Returns:
        ``(objective, x)`` of an optimal integral solution, with ``x``
        in column order.

    Raises:
        InfeasibleProblemError: no integral feasible point exists.
        SolverError: node budget exhausted before proving optimality.
    """
    sign = -1.0 if lp.maximize else 1.0  # heap pops smallest sort_key
    lows, highs, is_int = lp.lows(), lp.highs(), lp.integer_mask()

    def relax(overrides: Overrides) -> Tuple[float, np.ndarray]:
        low, high = lows.copy(), highs.copy()
        for col, (lo, hi) in overrides.items():
            low[col], high[col] = lo, hi
        return lp_oracle(lp.with_bounds(low, high))

    try:
        root_obj, _root_x = relax({})
    except InfeasibleProblemError:
        raise InfeasibleProblemError(f"{lp.name}: root relaxation infeasible")

    counter = itertools.count()
    heap: List[_Node] = [
        _Node(sort_key=sign * root_obj, counter=next(counter), overrides={})]
    incumbent_obj: Optional[float] = None
    incumbent_x = np.zeros(lp.num_variables)
    nodes_explored = 0

    while heap and nodes_explored < max_nodes:
        node = heapq.heappop(heap)
        nodes_explored += 1
        try:
            obj, x = relax(node.overrides)
        except InfeasibleProblemError:
            continue
        # Bound pruning: a node cannot beat the incumbent.
        if incumbent_obj is not None:
            if lp.maximize and obj <= incumbent_obj + 1e-9:
                continue
            if not lp.maximize and obj >= incumbent_obj - 1e-9:
                continue
        branch_col = _most_fractional(is_int, x)
        if branch_col is None:
            # + 0.0: a rounded -0.0 becomes 0.0, as with Python's round.
            rounded = np.where(is_int, np.round(x) + 0.0, x)
            obj_int = lp.objective_value(rounded)
            better = (incumbent_obj is None
                      or (lp.maximize and obj_int > incumbent_obj)
                      or (not lp.maximize and obj_int < incumbent_obj))
            if better:
                incumbent_obj = obj_int
                incumbent_x = rounded
            continue
        val = float(x[branch_col])
        cur_low, cur_high = node.overrides.get(
            branch_col, (float(lows[branch_col]), float(highs[branch_col])))
        down = dict(node.overrides)
        down[branch_col] = (cur_low, float(math.floor(val)))
        up = dict(node.overrides)
        up[branch_col] = (float(math.ceil(val)), cur_high)
        for child in (down, up):
            lo, hi = child[branch_col]
            if lo <= hi:
                heapq.heappush(heap, _Node(sort_key=sign * obj,
                                           counter=next(counter),
                                           overrides=child))

    get_metrics().inc("bnb_nodes", nodes_explored)
    if heap:
        raise SolverError(
            f"{lp.name}: branch-and-bound exceeded {max_nodes} nodes")
    if incumbent_obj is None:
        raise InfeasibleProblemError(
            f"{lp.name}: no integral feasible solution found")
    return incumbent_obj, incumbent_x

"""Solver-agnostic linear program model container.

A :class:`LinearProgram` accumulates named variables (with bounds,
objective coefficients, and integrality flags) and linear constraints,
then exports matrices for whichever backend solves it.  Rows are stored
sparsely (index -> coefficient maps) and the preferred export is
:meth:`LinearProgram.sparse_rows`, which assembles CSR matrices in
O(nnz) - the paper's slot-indexed LPs are overwhelmingly zero, and the
HiGHS backend consumes CSR directly.  :meth:`dense_rows` remains for
the dense tableau simplex and for tests that want to see the full
matrices.

The container is append-only: variables and constraints are added,
never edited or removed, so a column or row never changes once it
exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from ..exceptions import ConfigurationError

#: Allowed constraint senses.
SENSES = ("<=", ">=", "==")


def _float_list(seq: Sequence[float]) -> List[float]:
    """`seq` as a list of Python floats (identical values, C-speed)."""
    if isinstance(seq, np.ndarray):
        return seq.astype(float, copy=False).tolist()
    return [float(x) for x in seq]


def _indexed_row(coeffs: Mapping[int, float]) -> Dict[int, float]:
    """Normalize an index-keyed row: int keys, float values, no zeros.

    ``map``/``zip``/``dict`` run the conversions at C speed; the
    explicit comprehension only runs in the rare case a structural zero
    actually needs dropping.
    """
    row = dict(zip(map(int, coeffs.keys()), map(float, coeffs.values())))
    if 0.0 in row.values():
        # Exact comparison on purpose: only *structural* zeros are
        # dropped - a near-zero coefficient is part of the formulation
        # and must reach the solver untouched.
        row = {idx: coef for idx, coef in row.items()
               if coef != 0.0}  # repro: noqa NUM001 -- structural zero-drop
    return row


@dataclass(frozen=True)
class Variable:
    """One decision variable.

    Attributes:
        name: unique name within the program.
        index: column index in the exported matrices.
        low: lower bound (may be ``-inf``).
        high: upper bound (may be ``+inf``).
        objective: coefficient in the objective function.
        integer: whether the variable is integral (ILP only).
    """

    name: str
    index: int
    low: float
    high: float
    objective: float
    integer: bool


@dataclass(frozen=True)
class Constraint:
    """One linear constraint ``coeffs . x  <sense>  rhs``.

    Attributes:
        name: unique constraint name.
        coeffs: variable index -> coefficient (sparse row).
        sense: one of ``<=``, ``>=``, ``==``.
        rhs: right-hand side.
    """

    name: str
    coeffs: Mapping[int, float]
    sense: str
    rhs: float


class LinearProgram:
    """A (mixed-integer) linear program in natural form.

    Args:
        name: label used in error messages.
        maximize: optimization direction (the paper's programs all
            maximize expected reward).
    """

    def __init__(self, name: str = "lp", maximize: bool = True) -> None:
        self.name = name
        self.maximize = maximize
        # Columns live in parallel lists, not Variable objects: the
        # slot-indexed LPs append tens of thousands of columns per
        # build, and plain list appends beat dataclass construction by
        # an order of magnitude.  The Variable view is materialized
        # lazily (and cached per column count) by :attr:`variables`.
        self._names: List[str] = []
        self._lows: List[float] = []
        self._highs: List[float] = []
        self._objs: List[float] = []
        self._ints: List[bool] = []
        self._var_index: Dict[str, int] = {}
        self._constraints: List[Constraint] = []
        self._con_names: Dict[str, int] = {}
        self._vars_cache: Tuple[Variable, ...] = ()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_variable(self, name: str, low: float = 0.0,
                     high: float = math.inf, objective: float = 0.0,
                     integer: bool = False) -> Variable:
        """Add a variable; returns its handle.

        Raises:
            ConfigurationError: on duplicate names or ``low > high``.
        """
        if name in self._var_index:
            raise ConfigurationError(
                f"{self.name}: duplicate variable {name!r}")
        if low > high:
            raise ConfigurationError(
                f"{self.name}: variable {name!r} has low {low} > high {high}")
        index = len(self._names)
        var = Variable(name=name, index=index, low=float(low),
                       high=float(high), objective=float(objective),
                       integer=bool(integer))
        self._names.append(name)
        self._lows.append(var.low)
        self._highs.append(var.high)
        self._objs.append(var.objective)
        self._ints.append(var.integer)
        self._var_index[name] = index
        return var

    def add_variables_bulk(self, names: Sequence[str],
                           lows: Sequence[float],
                           highs: Sequence[float],
                           objectives: Sequence[float],
                           integer: bool = False) -> int:
        """Append a block of variables; returns the first column index.

        The bulk path exists for vectorized model builders (the
        slot-indexed LP creates ``|R| x |BS| x L`` columns): it skips
        the per-call overhead of :meth:`add_variable` while performing
        the same validation.

        Raises:
            ConfigurationError: on duplicate names, mismatched sequence
                lengths, or ``low > high``.
        """
        if not (len(names) == len(lows) == len(highs) == len(objectives)):
            raise ConfigurationError(
                f"{self.name}: bulk sequences have mismatched lengths")
        lows_f = _float_list(lows)
        highs_f = _float_list(highs)
        objs_f = _float_list(objectives)
        first = len(self._names)
        var_index = self._var_index
        for offset, name in enumerate(names):
            if name in var_index:
                raise ConfigurationError(
                    f"{self.name}: duplicate variable {name!r}")
            if lows_f[offset] > highs_f[offset]:
                raise ConfigurationError(
                    f"{self.name}: variable {name!r} has low "
                    f"{lows_f[offset]} > high {highs_f[offset]}")
            var_index[name] = first + offset
        self._names.extend(names)
        self._lows.extend(lows_f)
        self._highs.extend(highs_f)
        self._objs.extend(objs_f)
        self._ints.extend([bool(integer)] * len(names))
        return first

    def add_constraint(self, coeffs: Mapping[str, float], sense: str,
                       rhs: float, name: Optional[str] = None) -> Constraint:
        """Add a constraint given by a name->coefficient mapping.

        Zero coefficients are dropped; an empty row raises unless it is
        trivially satisfiable, in which case it is stored anyway so the
        model's constraint count matches the formulation.

        Raises:
            ConfigurationError: on unknown variables, bad senses, or a
                trivially infeasible empty row.
        """
        if sense not in SENSES:
            raise ConfigurationError(
                f"{self.name}: bad sense {sense!r}, want one of {SENSES}")
        row: Dict[int, float] = {}
        for var_name, coef in coeffs.items():
            if var_name not in self._var_index:
                raise ConfigurationError(
                    f"{self.name}: unknown variable {var_name!r}")
            # Exact comparison on purpose: only *structural* zeros are
            # dropped from the row.  A near-zero coefficient is part of
            # the formulation and must reach the solver untouched - a
            # tolerance here would silently change the model.
            if coef != 0.0:  # repro: noqa NUM001 -- structural zero-drop
                row[self._var_index[var_name]] = float(coef)
        if not row:
            trivially_ok = ((sense == "<=" and rhs >= 0)
                            or (sense == ">=" and rhs <= 0)
                            or (sense == "==" and rhs == 0))
            if not trivially_ok:
                raise ConfigurationError(
                    f"{self.name}: empty constraint row with sense {sense} "
                    f"rhs {rhs} is infeasible")
        return self._append_constraint(row, sense, float(rhs), name)

    def add_constraint_indexed(self, coeffs: Mapping[int, float],
                               sense: str, rhs: float,
                               name: Optional[str] = None) -> Constraint:
        """Add a constraint keyed by column *index* (fast path).

        Vectorized builders already hold column indices, so this path
        skips the name->index resolution of :meth:`add_constraint`.
        The same structural-zero drop applies; indices are validated
        against the current column count.

        Raises:
            ConfigurationError: on bad senses, out-of-range indices, or
                a trivially infeasible empty row.
        """
        if sense not in SENSES:
            raise ConfigurationError(
                f"{self.name}: bad sense {sense!r}, want one of {SENSES}")
        n = len(self._names)
        if coeffs and (min(coeffs) < 0 or max(coeffs) >= n):
            bad = min(coeffs) if min(coeffs) < 0 else max(coeffs)
            raise ConfigurationError(
                f"{self.name}: column index {bad} out of range [0, {n})")
        row = _indexed_row(coeffs)
        if not row:
            trivially_ok = ((sense == "<=" and rhs >= 0)
                            or (sense == ">=" and rhs <= 0)
                            or (sense == "==" and rhs == 0))
            if not trivially_ok:
                raise ConfigurationError(
                    f"{self.name}: empty constraint row with sense {sense} "
                    f"rhs {rhs} is infeasible")
        return self._append_constraint(row, sense, float(rhs), name)

    def _append_constraint(self, row: Dict[int, float], sense: str,
                           rhs: float, name: Optional[str]) -> Constraint:
        if name is None:
            name = f"c{len(self._constraints)}"
        if name in self._con_names:
            raise ConfigurationError(
                f"{self.name}: duplicate constraint {name!r}")
        con = Constraint(name=name, coeffs=row, sense=sense, rhs=rhs)
        self._con_names[name] = len(self._constraints)
        self._constraints.append(con)
        return con

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _make_variable(self, index: int) -> Variable:
        return Variable(name=self._names[index], index=index,
                        low=self._lows[index], high=self._highs[index],
                        objective=self._objs[index],
                        integer=self._ints[index])

    def _index_of(self, name: str) -> int:
        try:
            return self._var_index[name]
        except KeyError:
            raise ConfigurationError(
                f"{self.name}: unknown variable {name!r}") from None

    @property
    def variables(self) -> Tuple[Variable, ...]:
        """All variables, by column index (materialized lazily).

        Columns are append-only, so the cached view only needs
        extending when new columns arrived since the last call.
        """
        view = self._vars_cache
        if len(view) < len(self._names):
            view += tuple(
                self._make_variable(i)
                for i in range(len(view), len(self._names)))
            self._vars_cache = view
        return view

    def variable_names(self) -> List[str]:
        """All variable names, by column index."""
        return list(self._names)

    @property
    def constraints(self) -> Tuple[Constraint, ...]:
        """All constraints, in insertion order."""
        return tuple(self._constraints)

    @property
    def num_variables(self) -> int:
        """Number of columns."""
        return len(self._names)

    @property
    def num_constraints(self) -> int:
        """Number of rows."""
        return len(self._constraints)

    @property
    def has_integers(self) -> bool:
        """Whether any variable is integral."""
        return any(self._ints)

    def variable(self, name: str) -> Variable:
        """Look a variable up by name."""
        return self._make_variable(self._index_of(name))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def objective_vector(self) -> np.ndarray:
        """Dense objective coefficients (natural direction)."""
        return np.array(self._objs, dtype=float)

    def bounds(self) -> List[Tuple[float, float]]:
        """Per-variable (low, high) bounds."""
        return list(zip(self._lows, self._highs))

    def uniform_bounds(self) -> Optional[Tuple[float, float]]:
        """The single (low, high) pair shared by *every* variable.

        Returns None when variables disagree (or there are none).  The
        paper's programs bound every ``y`` by [0, 1], and scipy accepts
        one shared pair without materializing the per-variable list -
        backends use this as a fast path.
        """
        if self._names:
            low, high = self._lows[0], self._highs[0]
            # Exact on purpose: a fast path may only trigger when the
            # bounds are the *same floats* the per-variable list would
            # carry.  list.count uses the same == as the explicit loop.
            n = len(self._names)
            if (self._lows.count(low) == n  # repro: noqa NUM001 -- bitwise fast-path guard
                    and self._highs.count(high) == n):
                return low, high
        return None

    def dense_rows(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                  np.ndarray]:
        """Export as ``(A_ub, b_ub, A_eq, b_eq)``.

        ``>=`` rows are negated into ``<=`` form.  Empty matrices have
        shape ``(0, num_variables)``.
        """
        n = self.num_variables
        ub_rows: List[np.ndarray] = []
        ub_rhs: List[float] = []
        eq_rows: List[np.ndarray] = []
        eq_rhs: List[float] = []
        for con in self._constraints:
            row = np.zeros(n)
            for idx, coef in con.coeffs.items():
                row[idx] = coef
            if con.sense == "<=":
                ub_rows.append(row)
                ub_rhs.append(con.rhs)
            elif con.sense == ">=":
                ub_rows.append(-row)
                ub_rhs.append(-con.rhs)
            else:
                eq_rows.append(row)
                eq_rhs.append(con.rhs)
        a_ub = (np.vstack(ub_rows) if ub_rows
                else np.zeros((0, n)))
        a_eq = (np.vstack(eq_rows) if eq_rows
                else np.zeros((0, n)))
        return (a_ub, np.array(ub_rhs, dtype=float),
                a_eq, np.array(eq_rhs, dtype=float))

    def sparse_rows(self) -> Tuple["sparse.csr_array", np.ndarray,
                                   "sparse.csr_array", np.ndarray]:
        """Export as CSR ``(A_ub, b_ub, A_eq, b_eq)`` in O(nnz).

        Same row semantics as :meth:`dense_rows` (``>=`` rows negated
        into ``<=`` form, insertion order preserved within each group)
        without ever materializing the dense matrices - the slot-indexed
        LPs are >99% zero at experiment scale, and both scipy entry
        points (``linprog``/``milp``) consume CSR directly.  Column
        indices are emitted sorted per row (canonical CSR), so the
        matrices are bit-identical to ``csr_array(dense_rows()[...])``.
        """
        n = self.num_variables
        ub_indptr = [0]
        ub_indices: List[int] = []
        ub_data: List[float] = []
        ub_rhs: List[float] = []
        eq_indptr = [0]
        eq_indices: List[int] = []
        eq_data: List[float] = []
        eq_rhs: List[float] = []
        for con in self._constraints:
            coeffs = con.coeffs
            keys = sorted(coeffs)
            if con.sense == "==":
                eq_indices.extend(keys)
                eq_data.extend(map(coeffs.__getitem__, keys))
                eq_indptr.append(len(eq_indices))
                eq_rhs.append(con.rhs)
            elif con.sense == "<=":
                ub_indices.extend(keys)
                ub_data.extend(map(coeffs.__getitem__, keys))
                ub_indptr.append(len(ub_indices))
                ub_rhs.append(con.rhs)
            else:  # ">=" rows are negated into "<=" form
                ub_indices.extend(keys)
                ub_data.extend(-coeffs[k] for k in keys)
                ub_indptr.append(len(ub_indices))
                ub_rhs.append(-con.rhs)
        a_ub = sparse.csr_array(
            (np.asarray(ub_data, dtype=float),
             np.asarray(ub_indices, dtype=np.int32),
             np.asarray(ub_indptr, dtype=np.int32)),
            shape=(len(ub_rhs), n))
        a_eq = sparse.csr_array(
            (np.asarray(eq_data, dtype=float),
             np.asarray(eq_indices, dtype=np.int32),
             np.asarray(eq_indptr, dtype=np.int32)),
            shape=(len(eq_rhs), n))
        return (a_ub, np.asarray(ub_rhs, dtype=float),
                a_eq, np.asarray(eq_rhs, dtype=float))

    def evaluate_objective(self, values: Mapping[str, float]) -> float:
        """Objective value of an assignment (natural direction)."""
        get = values.get
        # A list comprehension sums in the same left-to-right order as
        # the equivalent generator (identical floats), only faster.
        return float(sum([obj * get(name, 0.0)
                          for name, obj in zip(self._names, self._objs)]))

    def check_feasible(self, values: Mapping[str, float],
                       tol: float = 1e-6) -> List[str]:
        """Names of constraints/bounds violated by an assignment.

        Returns an empty list when the assignment is feasible within
        `tol`.  Useful in tests and for auditing rounded solutions.
        """
        violations: List[str] = []
        for name, low, high, integer in zip(self._names, self._lows,
                                            self._highs, self._ints):
            val = values.get(name, 0.0)
            if val < low - tol or val > high + tol:
                violations.append(f"bound:{name}")
            if integer and abs(val - round(val)) > tol:
                violations.append(f"integrality:{name}")
        for con in self._constraints:
            lhs = sum(coef * values.get(self._names[idx], 0.0)
                      for idx, coef in con.coeffs.items())
            if con.sense == "<=" and lhs > con.rhs + tol:
                violations.append(f"constraint:{con.name}")
            elif con.sense == ">=" and lhs < con.rhs - tol:
                violations.append(f"constraint:{con.name}")
            elif con.sense == "==" and abs(lhs - con.rhs) > tol:
                violations.append(f"constraint:{con.name}")
        return violations

    def __repr__(self) -> str:
        kind = "ILP" if self.has_integers else "LP"
        sense = "max" if self.maximize else "min"
        return (f"LinearProgram({self.name!r}, {kind}, {sense}, "
                f"{self.num_variables} vars, {self.num_constraints} rows)")

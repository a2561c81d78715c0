"""Solver-agnostic linear program model container.

A :class:`LinearProgram` is one column store (low, high, objective and
integrality arrays) and one CSR row store (row lengths, column indices,
coefficients, sense codes and right-hand sides), both appended in
blocks.  Builders that already hold index arrays append whole blocks
with :meth:`LinearProgram.add_columns` / :meth:`LinearProgram.add_rows`;
the scalar :meth:`~LinearProgram.add_variable` /
:meth:`~LinearProgram.add_constraint` used by ILP-RM and
branch-and-bound are one-column / one-row appends to the same store.
:meth:`~LinearProgram.csc_rows` (the HiGHS input) is the stacked
``[A_ub; A_eq]`` in column-major order: the stored rows, stacked, as one
CSR that scipy's C ``csr_tocsc`` transposes;
:meth:`~LinearProgram.sparse_rows` is a concatenation of the stored
arrays and :meth:`~LinearProgram.dense_rows` is that same CSR,
densified.

Names are a view.  A block append passes a callable that produces its
names, so a model built from arrays formats no name until a caller asks
for one (:meth:`~LinearProgram.variable_names`,
:attr:`~LinearProgram.constraints`, :meth:`~LinearProgram.values_of`).

The container is append-only: a column or row never changes once it
exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (Callable, Dict, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple, Union)

import numpy as np
from scipy import sparse
from scipy.sparse._sparsetools import csr_tocsc

from ..exceptions import ConfigurationError

#: Allowed constraint senses; a row stores its sense as the index here.
SENSES = ("<=", ">=", "==")
_GE, _EQ = 1, 2

#: Names of a block: a list, or a callable producing it on first use.
Names = Union[Sequence[str], Callable[[], Sequence[str]]]


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


class CscRows(NamedTuple):
    """The constraint matrix in HiGHS's column-major input form.

    Attributes:
        indptr, indices, data: ``[A_ub; A_eq]`` as CSC.
        lhs, rhs: row bounds; the first ``num_ub`` rows are ``<=``.
        num_ub: rows of ``A_ub``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    num_ub: int


class _Blocks:
    """Append-only chunks of one array, joined (once) on read."""

    __slots__ = ("chunks", "dtype")

    def __init__(self, dtype: type) -> None:
        self.chunks: List[np.ndarray] = []
        self.dtype = dtype

    def append(self, values) -> None:
        self.chunks.append(np.asarray(values, dtype=self.dtype))

    def array(self) -> np.ndarray:
        if len(self.chunks) != 1:
            self.chunks[:] = [np.concatenate(self.chunks) if self.chunks
                              else np.empty(0, dtype=self.dtype)]
        return self.chunks[0]


class _NameList:
    """Names in append order: literal lists and lazy block sources."""

    __slots__ = ("parts", "_index")

    def __init__(self) -> None:
        self.parts: List[Names] = []
        #: name -> position; None after a lazy block, rebuilt on demand.
        self._index: Optional[Dict[str, int]] = {}

    def names(self) -> List[str]:
        parts = self.parts
        if len(parts) != 1 or callable(parts[0]):
            flat: List[str] = []
            for part in parts:
                flat.extend(part() if callable(part) else part)
            self.parts = [flat]
        return self.parts[0]  # type: ignore[return-value]

    def index(self) -> Dict[str, int]:
        if self._index is None:
            self._index = {name: i for i, name in enumerate(self.names())}
        return self._index

    def extend(self, names: Names, what: str, owner: str) -> None:
        """Append a block of names.

        A literal name that repeats raises before anything is appended;
        a lazy block is trusted to produce unique names.
        """
        if callable(names):
            self.parts.append(names)
            self._index = None
            return
        index, flat = self.index(), self.names()
        seen = set()
        for name in names:
            if name in index or name in seen:
                raise ConfigurationError(
                    f"{owner}: duplicate {what} {name!r}")
            seen.add(name)
        index.update(zip(names, range(len(flat), len(flat) + len(names))))
        flat.extend(names)


def _require_finite(owner: str, what: str, values: np.ndarray,
                    infinite_ok: bool = False) -> None:
    """Reject NaN, and also +-inf unless `infinite_ok` (bounds)."""
    ok = ~np.isnan(values) if infinite_ok else np.isfinite(values)
    if not ok.all():
        raise ConfigurationError(
            f"{owner}: {what} {values[np.argmin(ok)]} is not a finite "
            f"number")


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
        self._low, self._high, self._obj = (_Blocks(float), _Blocks(float),
                                            _Blocks(float))
        self._int = _Blocks(bool)
        self._row_nnz = _Blocks(np.int64)
        self._indices = _Blocks(np.int32)
        self._data = _Blocks(float)
        self._sense = _Blocks(np.int8)
        self._rhs = _Blocks(float)
        self._col_names = _NameList()
        self._row_names = _NameList()
        self._num_cols = 0
        self._num_rows = 0
        self._vars_cache: Tuple[Variable, ...] = ()
        self._cons_cache: Tuple[Constraint, ...] = ()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_columns(self, low, high, objective, names: Names,
                    integer: bool = False) -> int:
        """Append a block of columns; returns the first column index.

        Args:
            low, high, objective: one entry per column.
            names: the block's names, or a callable producing them when
                first asked for.
            integer: integrality of every column of the block.

        Raises:
            ConfigurationError: on mismatched lengths, ``low > high``, a
                NaN bound, or a NaN or infinite objective.
        """
        low = np.asarray(low, dtype=float)
        high = np.asarray(high, dtype=float)
        objective = np.asarray(objective, dtype=float)
        if not low.shape == high.shape == objective.shape:
            raise ConfigurationError(
                f"{self.name}: column block has mismatched lengths")
        _require_finite(self.name, "objective", objective)
        _require_finite(self.name, "lower bound", low, infinite_ok=True)
        _require_finite(self.name, "upper bound", high, infinite_ok=True)
        bad = np.flatnonzero(low > high)
        if bad.size:
            raise ConfigurationError(
                f"{self.name}: column {self._num_cols + int(bad[0])} has "
                f"low {low[bad[0]]} > high {high[bad[0]]}")
        self._col_names.extend(names, "variable", self.name)
        first = self._num_cols
        self._low.append(low)
        self._high.append(high)
        self._obj.append(objective)
        self._int.append(np.full(low.size, bool(integer)))
        self._num_cols += low.size
        return first

    def add_rows(self, row_nnz, indices, data, sense: str, rhs,
                 names: Names) -> None:
        """Append a block of CSR rows sharing one sense.

        Args:
            row_nnz: entries per row.
            indices, data: the rows' column indices and coefficients,
                row after row; indices strictly increase within a row.
            sense: one of :data:`SENSES`, for every row of the block.
            rhs: one right-hand side per row.
            names: the block's row names, or a callable producing them.

        Structural zeros are dropped.  An empty row is kept when it is
        trivially satisfiable, so the row count matches the formulation.

        Raises:
            ConfigurationError: on a bad sense, an out-of-range or
                unsorted index, a NaN or infinite coefficient or
                right-hand side, mismatched lengths, or a trivially
                infeasible empty row.
        """
        if sense not in SENSES:
            raise ConfigurationError(
                f"{self.name}: bad sense {sense!r}, want one of {SENSES}")
        row_nnz = np.asarray(row_nnz, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        data = np.asarray(data, dtype=float)
        rhs = np.asarray(rhs, dtype=float)
        _require_finite(self.name, "coefficient", data)
        _require_finite(self.name, "right-hand side", rhs)
        # Read as unsigned, a negative index is huge: one pass checks
        # both ends of the range.
        if indices.size and indices.view(np.uint64).max() >= self._num_cols:
            bad = indices.min() if indices.min() < 0 else indices.max()
            raise ConfigurationError(
                f"{self.name}: column index {bad} out of range "
                f"[0, {self._num_cols})")
        ends = np.cumsum(row_nnz)
        if (ends[-1] if ends.size else 0) != indices.size \
                or data.size != indices.size or rhs.size != row_nnz.size \
                or (row_nnz.size and row_nnz.min() < 0):
            raise ConfigurationError(
                f"{self.name}: row block lengths do not match its entries")
        # An index may only fail to increase at the first entry of a row.
        steps = np.flatnonzero(indices[1:] <= indices[:-1]) + 1
        if steps.size:
            row_start = np.zeros(indices.size + 1, dtype=bool)
            row_start[ends - row_nnz] = True
            if not row_start[steps].all():
                raise ConfigurationError(
                    f"{self.name}: row indices must strictly increase")
        # Exact comparison on purpose: only *structural* zeros are
        # dropped.  A near-zero coefficient is part of the formulation
        # and must reach the solver untouched.
        if np.count_nonzero(data) < data.size:
            nonzero = data != 0.0  # repro: noqa NUM001 -- structural zero-drop
            row_of = np.repeat(np.arange(row_nnz.size), row_nnz)
            row_nnz = np.bincount(row_of[nonzero], minlength=row_nnz.size)
            indices, data = indices[nonzero], data[nonzero]
        if not row_nnz.all():
            empty = rhs[row_nnz == 0]
            infeasible = {"<=": empty < 0, ">=": empty > 0,
                          "==": empty != 0}[sense]
            if infeasible.any():
                raise ConfigurationError(
                    f"{self.name}: empty constraint row with sense {sense} "
                    f"rhs {empty[infeasible][0]} is infeasible")
        self._row_names.extend(names, "constraint", self.name)
        self._row_nnz.append(row_nnz)
        self._indices.append(indices)
        self._data.append(data)
        self._sense.append(np.full(row_nnz.size, SENSES.index(sense),
                                   dtype=np.int8))
        self._rhs.append(rhs)
        self._num_rows += row_nnz.size

    def add_variable(self, name: str, low: float = 0.0,
                     high: float = math.inf, objective: float = 0.0,
                     integer: bool = False) -> Variable:
        """Add one named variable; returns its handle.

        Raises:
            ConfigurationError: on duplicate names, ``low > high``, a NaN
                bound, or a NaN or infinite objective.
        """
        if not math.isfinite(objective) or math.isnan(low) \
                or math.isnan(high):
            raise ConfigurationError(
                f"{self.name}: variable {name!r} has a NaN bound or a "
                f"non-finite objective {objective}")
        if low > high:
            raise ConfigurationError(
                f"{self.name}: variable {name!r} has low {low} > high {high}")
        self._col_names.extend((name,), "variable", self.name)
        var = Variable(name=name, index=self._num_cols, low=float(low),
                       high=float(high), objective=float(objective),
                       integer=bool(integer))
        self._low.append((var.low,))
        self._high.append((var.high,))
        self._obj.append((var.objective,))
        self._int.append((var.integer,))
        self._num_cols += 1
        return var

    def add_constraint(self, coeffs: Mapping[str, float], sense: str,
                       rhs: float, name: Optional[str] = None) -> Constraint:
        """Add one row given by a name->coefficient mapping.

        Zero coefficients are dropped; an empty row raises unless it is
        trivially satisfiable, in which case it is stored anyway.

        Raises:
            ConfigurationError: on unknown variables, bad senses,
                duplicate names, or a trivially infeasible empty row.
        """
        col_index = self._col_names.index()
        row: Dict[int, float] = {}
        for var_name, coef in coeffs.items():
            if var_name not in col_index:
                raise ConfigurationError(
                    f"{self.name}: unknown variable {var_name!r}")
            # Exact on purpose: only structural zeros are dropped.
            if coef != 0.0:  # repro: noqa NUM001 -- structural zero-drop
                row[col_index[var_name]] = float(coef)
        if name is None:
            name = f"c{self._num_rows}"
        keys = sorted(row)
        self.add_rows((len(keys),), keys, [row[k] for k in keys], sense,
                      (rhs,), (name,))
        return Constraint(name=name, coeffs={k: row[k] for k in keys},
                          sense=sense, rhs=float(rhs))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def variables(self) -> Tuple[Variable, ...]:
        """All variables, by column index (materialized lazily)."""
        view = self._vars_cache
        if len(view) < self._num_cols:
            start = len(view)
            view += tuple(map(
                Variable, self.variable_names()[start:],
                range(start, self._num_cols),
                self._low.array()[start:].tolist(),
                self._high.array()[start:].tolist(),
                self._obj.array()[start:].tolist(),
                self._int.array()[start:].tolist()))
            self._vars_cache = view
        return view

    @property
    def constraints(self) -> Tuple[Constraint, ...]:
        """All rows, in insertion order (materialized lazily)."""
        view = self._cons_cache
        if len(view) < self._num_rows:
            start = len(view)
            ends = np.cumsum(self._row_nnz.array()).tolist()
            indices = self._indices.array().tolist()
            data = self._data.array().tolist()
            names = self.constraint_names()
            senses = self._sense.array().tolist()
            rhs = self._rhs.array().tolist()
            begin = ends[start - 1] if start else 0
            new = []
            for row in range(start, self._num_rows):
                end = ends[row]
                new.append(Constraint(
                    name=names[row],
                    coeffs=dict(zip(indices[begin:end], data[begin:end])),
                    sense=SENSES[senses[row]], rhs=rhs[row]))
                begin = end
            view += tuple(new)
            self._cons_cache = view
        return view

    def variable_names(self) -> List[str]:
        """All variable names, by column index."""
        return self._col_names.names()

    def constraint_names(self) -> List[str]:
        """All row names, in insertion order."""
        return self._row_names.names()

    @property
    def num_variables(self) -> int:
        """Number of columns."""
        return self._num_cols

    @property
    def num_constraints(self) -> int:
        """Number of rows."""
        return self._num_rows

    @property
    def has_integers(self) -> bool:
        """Whether any variable is integral."""
        return bool(self._int.array().any())

    def variable(self, name: str) -> Variable:
        """Look a variable up by name."""
        try:
            return self.variables[self._col_names.index()[name]]
        except KeyError:
            raise ConfigurationError(
                f"{self.name}: unknown variable {name!r}") from None

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def objective_vector(self) -> np.ndarray:
        """Dense objective coefficients (natural direction)."""
        return self._obj.array().copy()

    def lows(self) -> np.ndarray:
        """Per-column lower bounds."""
        return self._low.array().copy()

    def highs(self) -> np.ndarray:
        """Per-column upper bounds."""
        return self._high.array().copy()

    def integer_mask(self) -> np.ndarray:
        """Per-column integrality flags."""
        return self._int.array().copy()

    def bounds(self) -> List[Tuple[float, float]]:
        """Per-variable (low, high) bounds."""
        return list(zip(self._low.array().tolist(),
                        self._high.array().tolist()))

    def with_bounds(self, low: np.ndarray,
                    high: np.ndarray) -> "LinearProgram":
        """A copy of this model with every column's bounds replaced."""
        clone = LinearProgram(name=f"{self.name}:node",
                              maximize=self.maximize)
        for mine, theirs in zip(self._stores(), clone._stores()):
            theirs.chunks[:] = [mine.array()]
        clone._low.chunks[:] = [np.asarray(low, dtype=float)]
        clone._high.chunks[:] = [np.asarray(high, dtype=float)]
        clone._col_names.extend(self.variable_names, "variable", clone.name)
        clone._row_names.extend(self.constraint_names, "constraint",
                                clone.name)
        clone._num_cols, clone._num_rows = self._num_cols, self._num_rows
        return clone

    def _stores(self) -> Tuple[_Blocks, ...]:
        return (self._low, self._high, self._obj, self._int, self._row_nnz,
                self._indices, self._data, self._sense, self._rhs)

    def sparse_rows(self) -> Tuple["sparse.csr_array", np.ndarray,
                                   "sparse.csr_array", np.ndarray]:
        """Export as CSR ``(A_ub, b_ub, A_eq, b_eq)`` in O(nnz).

        ``>=`` rows are negated into ``<=`` form; insertion order is
        kept within each group and column indices ascend within a row
        (canonical CSR).
        """
        row_nnz, indices = self._row_nnz.array(), self._indices.array()
        data, rhs = self._data.array(), self._rhs.array()
        sense = self._sense.array()
        ge = sense == _GE
        if ge.any():
            data = np.where(np.repeat(ge, row_nnz), -data, data)
            rhs = np.where(ge, -rhs, rhs)
        eq = sense == _EQ

        def group(rows: np.ndarray) -> "sparse.csr_array":
            entries = np.repeat(rows, row_nnz)
            indptr = np.zeros(np.count_nonzero(rows) + 1, dtype=np.int32)
            indptr[1:] = np.cumsum(row_nnz[rows])
            return sparse.csr_array(
                (data[entries], indices[entries], indptr),
                shape=(indptr.size - 1, self._num_cols))

        return group(~eq), rhs[~eq], group(eq), rhs[eq]

    def csc_rows(self) -> "CscRows":
        """``[A_ub; A_eq]`` of :meth:`sparse_rows` as one CSC matrix.

        ``>=`` rows are negated and the ``==`` rows come after the
        others, as in :meth:`sparse_rows`; within a column the entries
        ascend by stacked row.  The stored rows, stacked, are one CSR
        that scipy's C ``csr_tocsc`` (the kernel behind ``tocsc()``)
        transposes, so ``indptr``, ``indices`` and ``data`` (int32,
        int32, float64) are the bytes of stacking the two CSR blocks
        and calling ``tocsc()``.  The row bounds are
        ``lhs = [-inf..., b_eq]`` and ``rhs = [b_ub, b_eq]``.
        """
        row_nnz, indices = self._row_nnz.array(), self._indices.array()
        data, rhs = self._data.array(), self._rhs.array()
        sense = self._sense.array()
        num_rows, num_cols, nnz = row_nnz.size, self._num_cols, data.size
        num_ub = num_rows
        if sense.any():
            ge = sense == _GE
            if ge.any():
                data = np.where(np.repeat(ge, row_nnz), -data, data)
                rhs = np.where(ge, -rhs, rhs)
            eq = sense == _EQ
            num_ub -= int(np.count_nonzero(eq))
            if num_ub < num_rows:
                # Stable sorts of the row and entry flags keep each
                # group in insertion order and move the == rows last.
                stacked = np.argsort(eq, kind="stable")
                entries = np.argsort(np.repeat(eq, row_nnz), kind="stable")
                row_nnz, rhs = row_nnz[stacked], rhs[stacked]
                indices, data = indices[entries], data[entries]
        row_ptr = np.zeros(num_rows + 1, dtype=np.int32)
        np.cumsum(row_nnz, out=row_ptr[1:])
        indptr = np.empty(num_cols + 1, dtype=np.int32)
        col_rows = np.empty(nnz, dtype=np.int32)
        col_data = np.empty(nnz, dtype=float)
        csr_tocsc(num_rows, num_cols, row_ptr, indices, data,
                  indptr, col_rows, col_data)
        lhs = rhs.copy()
        lhs[:num_ub] = -np.inf
        return CscRows(indptr=indptr, indices=col_rows, data=col_data,
                       lhs=lhs, rhs=rhs.copy(), num_ub=num_ub)

    def dense_rows(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                  np.ndarray]:
        """:meth:`sparse_rows`, densified: ``(A_ub, b_ub, A_eq, b_eq)``."""
        a_ub, b_ub, a_eq, b_eq = self.sparse_rows()
        return a_ub.toarray(), b_ub, a_eq.toarray(), b_eq

    # ------------------------------------------------------------------
    # Assignments
    # ------------------------------------------------------------------
    def objective_value(self, x: np.ndarray) -> float:
        """Objective value of a column-ordered assignment.

        The products ``objective * x`` summed strictly left to right
        (``np.add.accumulate`` has no pairwise or compensated path), so
        the value depends neither on how a BLAS would order a dot
        product nor on the Python version's ``sum()``.  Adding ``0.0``
        gives the sign of zero an accumulator started at ``0.0`` would:
        an all-zero sum is ``+0.0``.  An empty model is worth ``0.0``.
        """
        products = self._obj.array() * np.asarray(x, dtype=float)
        if not products.size:
            return 0.0
        return float(np.add.accumulate(products)[-1]) + 0.0

    def values_of(self, x: np.ndarray) -> Dict[str, float]:
        """A column-ordered assignment keyed by variable name."""
        return dict(zip(self.variable_names(),
                        np.asarray(x, dtype=float).tolist()))

    def _vector(self, values: Union[Mapping[str, float], np.ndarray]
                ) -> np.ndarray:
        if isinstance(values, Mapping):
            get = values.get
            return np.array([get(name, 0.0) for name in
                             self.variable_names()], dtype=float)
        return np.asarray(values, dtype=float)

    def evaluate_objective(self, values: Mapping[str, float]) -> float:
        """Objective value of a named assignment (missing names are 0)."""
        return self.objective_value(self._vector(values))

    def check_feasible(self, values: Union[Mapping[str, float], np.ndarray],
                       tol: float = 1e-6) -> List[str]:
        """Names of constraints/bounds violated by an assignment.

        `values` is keyed by name (missing names are 0) or is a
        column-ordered array.  Returns an empty list when the
        assignment is feasible within `tol`.
        """
        x = self._vector(values)
        violations: List[str] = []
        for var, val in zip(self.variables, x.tolist()):
            if val < var.low - tol or val > var.high + tol:
                violations.append(f"bound:{var.name}")
            if var.integer and abs(val - round(val)) > tol:
                violations.append(f"integrality:{var.name}")
        for con in self.constraints:
            lhs = sum(coef * x[idx] for idx, coef in con.coeffs.items())
            if ((con.sense == "<=" and lhs > con.rhs + tol)
                    or (con.sense == ">=" and lhs < con.rhs - tol)
                    or (con.sense == "==" and abs(lhs - con.rhs) > tol)):
                violations.append(f"constraint:{con.name}")
        return violations

    def __repr__(self) -> str:
        kind = "ILP" if self.has_integers else "LP"
        sense = "max" if self.maximize else "min"
        return (f"LinearProgram({self.name!r}, {kind}, {sense}, "
                f"{self.num_variables} vars, {self.num_constraints} rows)")

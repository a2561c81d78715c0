"""A/B guard: ``add_rows``'s input checks against the ones they replaced.

:meth:`~repro.solver.model.LinearProgram.add_rows` validates a row block
in fewer array passes than before: one unsigned maximum for the column
range, a strict-increase test read only at the entries that fail to
increase, the zero-drop and empty-row checks only when there is
something to drop or check.  The old checks are frozen below.  On random
blocks (out-of-range and repeated indices, unsorted rows, NaN and
infinite values, structural zeros, empty rows under every sense) both
must raise the same ``ConfigurationError`` message, or both accept the
block and store the same rows.  Blocks whose lengths disagree, which the
old checks did not catch, now raise a ``ConfigurationError`` too.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.solver.model import SENSES, LinearProgram

NUM_COLS = 5


def frozen_checks(lp, row_nnz, indices, data, sense, rhs):
    """The old validation and zero-drop; returns the rows it stores."""
    if sense not in SENSES:
        raise ConfigurationError(
            f"{lp.name}: bad sense {sense!r}, want one of {SENSES}")
    row_nnz = np.asarray(row_nnz, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    data = np.asarray(data, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    for what, values in (("coefficient", data), ("right-hand side", rhs)):
        ok = np.isfinite(values)
        if not ok.all():
            raise ConfigurationError(
                f"{lp.name}: {what} {values[np.argmin(ok)]} is not a "
                f"finite number")
    if indices.size and (indices.min() < 0
                         or indices.max() >= lp.num_variables):
        bad = indices.min() if indices.min() < 0 else indices.max()
        raise ConfigurationError(
            f"{lp.name}: column index {bad} out of range "
            f"[0, {lp.num_variables})")
    row_of = np.repeat(np.arange(row_nnz.size), row_nnz)
    if np.any((np.diff(indices) <= 0) & (np.diff(row_of) == 0)):
        raise ConfigurationError(
            f"{lp.name}: row indices must strictly increase")
    nonzero = data != 0.0
    if not nonzero.all():
        row_nnz = np.bincount(row_of[nonzero], minlength=row_nnz.size)
        indices, data = indices[nonzero], data[nonzero]
    empty = rhs[row_nnz == 0]
    infeasible = {"<=": empty < 0, ">=": empty > 0,
                  "==": empty != 0}[sense]
    if infeasible.any():
        raise ConfigurationError(
            f"{lp.name}: empty constraint row with sense {sense} "
            f"rhs {empty[infeasible][0]} is infeasible")
    return row_nnz, indices, data, rhs


def fresh_model():
    lp = LinearProgram(name="rows")
    lp.add_columns(np.zeros(NUM_COLS), np.ones(NUM_COLS),
                   np.ones(NUM_COLS), [f"x{k}" for k in range(NUM_COLS)])
    return lp


def outcome(call):
    try:
        return "ok", call()
    except ConfigurationError as error:
        return "error", str(error)


values = st.one_of(st.just(0.0), st.floats(-3.0, 3.0),
                   st.sampled_from([np.nan, np.inf, -np.inf]))


@st.composite
def blocks(draw):
    """A row block with consistent lengths and any contents."""
    row_nnz = draw(st.lists(st.integers(0, 4), max_size=5))
    nnz = sum(row_nnz)
    indices = draw(st.lists(st.integers(-1, NUM_COLS), min_size=nnz,
                            max_size=nnz))
    if draw(st.booleans()):
        # Mostly well-formed rows: sort and dedupe within each row.
        at, fixed = 0, []
        for count in row_nnz:
            row = sorted(set(indices[at:at + count]))
            fixed.append(row)
            at += count
        row_nnz = [len(row) for row in fixed]
        indices = [col for row in fixed for col in row]
    data = draw(st.lists(values, min_size=len(indices),
                         max_size=len(indices)))
    rhs = draw(st.lists(st.one_of(st.floats(-2.0, 2.0), st.just(0.0),
                                  st.just(np.nan)),
                        min_size=len(row_nnz), max_size=len(row_nnz)))
    sense = draw(st.sampled_from(SENSES + ("=>",)))
    return row_nnz, indices, data, sense, rhs


@settings(max_examples=500, deadline=None)
@given(block=blocks())
def test_same_error_or_same_rows_as_the_frozen_checks(block):
    row_nnz, indices, data, sense, rhs = block
    lp = fresh_model()
    mine = outcome(lambda: lp.add_rows(
        row_nnz, indices, data, sense, rhs,
        [f"r{k}" for k in range(len(row_nnz))]))
    theirs = outcome(lambda: frozen_checks(fresh_model(), row_nnz, indices,
                                           data, sense, rhs))
    assert mine[0] == theirs[0]
    if mine[0] == "error":
        assert mine[1] == theirs[1]
        return
    stored = (lp._row_nnz.array(), lp._indices.array(), lp._data.array(),
              lp._rhs.array())
    for a, b in zip(stored, theirs[1]):
        assert np.array_equal(a, b)
    assert lp._sense.array().tolist() == [SENSES.index(sense)] * len(row_nnz)


@pytest.mark.parametrize("row_nnz, indices, data, rhs", [
    ([2], [0, 1, 2], [1.0, 1.0, 1.0], [1.0]),     # more entries than rows
    ([3], [0, 1], [1.0, 1.0], [1.0]),             # fewer
    ([2], [0, 1], [1.0], [1.0]),                  # data shorter
    ([2], [0, 1], [1.0, 1.0], [1.0, 2.0]),        # one rhs too many
    ([3, -1], [0, 1], [1.0, 1.0], [1.0, 1.0]),    # a negative row length
])
def test_lengths_that_disagree_raise(row_nnz, indices, data, rhs):
    lp = fresh_model()
    with pytest.raises(ConfigurationError, match="lengths do not match"):
        lp.add_rows(row_nnz, indices, data, "<=", rhs,
                    [f"r{k}" for k in range(len(row_nnz))])
    assert lp.num_constraints == 0

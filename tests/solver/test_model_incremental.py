"""Block construction and sparse export of the append-only model.

These APIs form the LP hot path: array builders append whole column
blocks (`add_columns`) and CSR row blocks (`add_rows`), names are
produced lazily, and backends export CSR matrices in O(nnz)
(`sparse_rows`).  The tests pin the contract the solvers rely on -
byte-identical semantics to the scalar/dense paths.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.exceptions import ConfigurationError
from repro.solver.model import LinearProgram


def knapsack_lp() -> LinearProgram:
    """A small mixed-sense LP touching every export branch."""
    lp = LinearProgram(name="knap")
    lp.add_columns(
        (0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 1.0, 1.0),
        np.array([3.0, 1.0, 4.0, 1.5]), ["x0", "x1", "x2", "x3"])
    lp.add_rows([3], [0, 1, 2], [2.0, 1.0, 3.0], "<=", [4.0], ["cap"])
    lp.add_rows([2], [1, 3], [1.0, 1.0], ">=", [0.5], ["floor"])
    lp.add_rows([2], [0, 3], [1.0, -1.0], "==", [0.0], ["tie"])
    return lp


class TestBulkVariables:
    def test_block_appends_after_existing(self):
        lp = LinearProgram()
        lp.add_variable("w")
        first = lp.add_columns((0.0, 0.0), (1.0, 2.0), (0.5, 0.25),
                               ["a", "b"])
        assert first == 1
        assert lp.num_variables == 3
        assert [v.name for v in lp.variables] == ["w", "a", "b"]
        assert lp.variable("b").high == 2.0
        assert lp.variable("b").objective == 0.25

    def test_numpy_objectives_round_trip(self):
        lp = LinearProgram()
        objs = np.linspace(0.1, 0.9, 5)
        lp.add_columns((0.0,) * 5, (1.0,) * 5, objs,
                       [f"y{i}" for i in range(5)])
        assert lp.objective_vector().tolist() == objs.tolist()

    def test_mismatched_lengths_rejected(self):
        lp = LinearProgram()
        with pytest.raises(ConfigurationError):
            lp.add_columns((0.0,), (1.0, 1.0), (0.0, 0.0), ["a", "b"])

    def test_duplicate_rejected(self):
        lp = LinearProgram()
        lp.add_variable("a")
        with pytest.raises(ConfigurationError):
            lp.add_columns((0.0, 0.0), (1.0, 1.0), (0.0, 0.0),
                           ["b", "a"])

    def test_inverted_bounds_rejected(self):
        lp = LinearProgram()
        with pytest.raises(ConfigurationError):
            lp.add_columns((2.0,), (1.0,), (0.0,), ["a"])

    def test_variable_names_in_column_order(self):
        lp = knapsack_lp()
        assert lp.variable_names() == ["x0", "x1", "x2", "x3"]

    def test_variables_view_sees_appended_columns(self):
        """The cached Variable view extends when columns are appended
        after a first read."""
        lp = knapsack_lp()
        first = lp.variables
        assert lp.variables is first  # cached while nothing was added
        lp.add_variable("x4", high=2.0, objective=5.0)
        lp.add_columns((0.0,), (1.0,), (0.5,), ["x5"])
        view = lp.variables
        assert view[:4] == first
        assert [(v.name, v.index, v.high, v.objective) for v in view[4:]] \
            == [("x4", 4, 2.0, 5.0), ("x5", 5, 1.0, 0.5)]


class TestLazyNames:
    def test_block_names_are_produced_on_first_use(self):
        calls = []

        def names():
            calls.append(1)
            return ["p", "q"]

        lp = LinearProgram()
        lp.add_columns((0.0, 0.0), (1.0, 1.0), (2.0, 3.0), names)
        lp.add_rows([2], [0, 1], [1.0, 1.0], "<=", [1.0],
                    lambda: ["row"])
        lp.sparse_rows()
        assert calls == []
        assert lp.variable_names() == ["p", "q"]
        assert lp.variable_names() == ["p", "q"]
        assert calls == [1]
        assert [c.name for c in lp.constraints] == ["row"]

    def test_scalar_appends_after_a_lazy_block(self):
        lp = LinearProgram()
        lp.add_columns((0.0,), (1.0,), (1.0,), lambda: ["a"])
        with pytest.raises(ConfigurationError):
            lp.add_variable("a")
        lp.add_variable("b")
        assert lp.variable_names() == ["a", "b"]
        assert lp.variable("b").index == 1


class TestIndexedConstraints:
    def test_row_content(self):
        lp = knapsack_lp()
        con = lp.constraints[0]
        assert con.coeffs == {0: 2.0, 1: 1.0, 2: 3.0}
        assert con.sense == "<=" and con.rhs == 4.0

    def test_structural_zero_dropped(self):
        lp = LinearProgram()
        lp.add_columns((0.0,) * 2, (1.0,) * 2, (0.0,) * 2, ["a", "b"])
        lp.add_rows([2], [0, 1], [0.0, 1.0], "<=", [1.0], ["c0"])
        assert lp.constraints[-1].coeffs == {1: 1.0}

    def test_out_of_range_rejected(self):
        lp = LinearProgram()
        lp.add_variable("a")
        with pytest.raises(ConfigurationError):
            lp.add_rows([1], [1], [1.0], "<=", [1.0], ["c0"])
        with pytest.raises(ConfigurationError):
            lp.add_rows([1], [-1], [1.0], "<=", [1.0], ["c0"])

    def test_unsorted_row_rejected(self):
        lp = LinearProgram()
        lp.add_columns((0.0,) * 2, (1.0,) * 2, (0.0,) * 2, ["a", "b"])
        with pytest.raises(ConfigurationError):
            lp.add_rows([2], [1, 0], [1.0, 1.0], "<=", [1.0], ["c0"])
        lp.add_rows([1, 1], [1, 0], [1.0, 1.0], "<=", [1.0, 1.0],
                    ["c0", "c1"])
        assert [c.coeffs for c in lp.constraints] == [{1: 1.0}, {0: 1.0}]

    def test_empty_row_rules(self):
        lp = LinearProgram()
        lp.add_variable("a")
        lp.add_rows([1], [0], [0.0], "<=", [1.0], ["ok"])  # trivially ok
        with pytest.raises(ConfigurationError):
            lp.add_rows([1], [0], [0.0], ">=", [1.0], ["bad"])
        assert lp.num_constraints == 1


class TestSparseExport:
    def test_sparse_matches_dense(self):
        lp = knapsack_lp()
        a_ub, b_ub, a_eq, b_eq = lp.sparse_rows()
        d_ub, db_ub, d_eq, db_eq = lp.dense_rows()
        assert isinstance(a_ub, sparse.csr_array)
        np.testing.assert_array_equal(a_ub.toarray(), d_ub)
        np.testing.assert_array_equal(a_eq.toarray(), d_eq)
        np.testing.assert_array_equal(b_ub, db_ub)
        np.testing.assert_array_equal(b_eq, db_eq)

    def test_sparse_is_canonical_csr(self):
        lp = knapsack_lp()
        a_ub, _, a_eq, _ = lp.sparse_rows()
        ref_ub = sparse.csr_array(lp.dense_rows()[0])
        assert a_ub.indptr.tolist() == ref_ub.indptr.tolist()
        assert a_ub.indices.tolist() == ref_ub.indices.tolist()
        assert a_ub.data.tolist() == ref_ub.data.tolist()

    def test_empty_groups_have_column_width(self):
        lp = LinearProgram()
        lp.add_columns((0.0,) * 2, (1.0,) * 2, (1.0,) * 2, ["a", "b"])
        lp.add_rows([1], [0], [1.0], "<=", [1.0], ["c0"])
        a_ub, _, a_eq, b_eq = lp.sparse_rows()
        assert a_eq.shape == (0, 2)
        assert b_eq.size == 0

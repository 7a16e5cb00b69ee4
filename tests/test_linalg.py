"""Exact linear algebra sanity checks."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from borderrank.linalg import kernel_basis, rank, row_echelon


def F(x):
    return Fraction(x)


def test_rank_simple():
    assert rank([]) == 0
    assert rank([[F(0), F(0)]]) == 0
    assert rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert rank([[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]]) == 2


def test_row_echelon_pivots_increase():
    rows = [[F(0), F(2), F(1)], [F(3), F(0), F(0)], [F(3), F(2), F(1)]]
    echelon, pivots = row_echelon(rows)
    assert pivots == sorted(pivots)
    for erow, col in zip(echelon, pivots):
        assert erow[col] == 1
        assert all(erow[k] == 0 for k in range(col))


def test_kernel_basis_known():
    # x + y + z = 0 over three columns: kernel has dimension 2
    rows = [[F(1), F(1), F(1)]]
    basis = kernel_basis(rows, 3)
    assert len(basis) == 2
    for vec in basis:
        assert sum(vec) == 0


def _in_span(rows, vector) -> bool:
    return rank(rows + [vector]) == rank(rows)


def test_in_row_span():
    rows = [[F(1), F(0), F(1)], [F(0), F(1), F(1)]]
    assert _in_span(rows, [F(1), F(1), F(2)])
    assert _in_span(rows, [F(0), F(0), F(0)])
    assert not _in_span(rows, [F(0), F(0), F(1)])


small_matrix = st.lists(
    st.lists(st.integers(-4, 4).map(F), min_size=4, max_size=4),
    min_size=1,
    max_size=5,
)


@given(small_matrix)
@settings(max_examples=60, deadline=None)
def test_rank_nullity(rows):
    assert rank(rows) + len(kernel_basis(rows, 4)) == 4


@given(small_matrix)
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_annihilate(rows):
    for vec in kernel_basis(rows, 4):
        for row in rows:
            assert sum(r * v for r, v in zip(row, vec)) == 0


@given(small_matrix, st.lists(st.integers(-3, 3), min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_span_membership_consistent_with_rank(rows, coeffs):
    # any linear combination of the rows lies in the span
    combo = [
        sum(F(c) * row[k] for c, row in zip(coeffs, rows)) for k in range(4)
    ]
    assert _in_span(rows, combo)

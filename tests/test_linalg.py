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


# ---------------------------------------------------------------------------
# Oracle: schoolbook elimination over Fraction, the reference that the
# integer elimination in row_echelon must reproduce exactly
# ---------------------------------------------------------------------------

def fraction_row_echelon(rows):
    echelon = []
    pivots = []
    for row in rows:
        row = list(row)
        for erow, col in zip(echelon, pivots):
            coeff = row[col]
            if coeff:
                for k in range(col, len(row)):
                    row[k] -= coeff * erow[k]
        for col, value in enumerate(row):
            if value:
                inv = Fraction(1, 1) / value
                for k in range(col, len(row)):
                    row[k] *= inv
                pos = 0
                while pos < len(pivots) and pivots[pos] < col:
                    pos += 1
                echelon.insert(pos, row)
                pivots.insert(pos, col)
                break
    return echelon, pivots


def fraction_kernel_basis(rows, ncols):
    echelon, pivots = fraction_row_echelon(rows)
    for i in range(len(echelon) - 1, -1, -1):
        col = pivots[i]
        for j in range(i):
            coeff = echelon[j][col]
            if coeff:
                for k in range(col, len(echelon[j])):
                    echelon[j][k] -= coeff * echelon[i][k]
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for erow, col in zip(echelon, pivots):
            vec[col] = -erow[free]
        basis.append(vec)
    return basis


rationals = st.one_of(
    st.integers(-6, 6).map(Fraction),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


@st.composite
def rational_matrices(draw):
    """Rows over 0..6 columns, mixing fresh random rows with zero rows,
    repeats, rescaled copies and combinations of earlier rows, so that
    rank-deficient matrices are common."""
    ncols = draw(st.integers(0, 6))
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "repeat", "scaled", "combo"]))
        if kind == "zero" or (kind != "fresh" and not rows):
            row = [Fraction(0)] * ncols
        elif kind == "fresh":
            row = draw(st.lists(rationals, min_size=ncols, max_size=ncols))
        elif kind == "repeat":
            row = list(draw(st.sampled_from(rows)))
        elif kind == "scaled":
            c = draw(rationals.filter(bool))
            row = [c * x for x in draw(st.sampled_from(rows))]
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c, d = draw(rationals), draw(rationals)
            row = [c * x + d * y for x, y in zip(a, b)]
        rows.append(row)
    return rows, ncols


@given(rational_matrices())
@settings(max_examples=200, deadline=None)
def test_row_echelon_and_kernel_match_fraction_oracle(matrix):
    rows, ncols = matrix
    snapshot = [list(r) for r in rows]
    assert row_echelon(rows) == fraction_row_echelon(rows)
    assert kernel_basis(rows, ncols) == fraction_kernel_basis(rows, ncols)
    assert rows == snapshot  # the input rows are left as they were


def test_row_echelon_edge_shapes():
    assert row_echelon([]) == ([], [])
    assert kernel_basis([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    # rows of length 0: no pivot, and an empty kernel over no columns
    assert row_echelon([[], []]) == ([], [])
    assert kernel_basis([[], []], 0) == []
    # integer entries come back as exact monic Fraction rows
    echelon, pivots = row_echelon([[0, 4, 6], [2, 0, 3]])
    assert pivots == [0, 1]
    assert echelon == [[1, 0, Fraction(3, 2)], [0, 1, Fraction(3, 2)]]
    assert all(type(x) is Fraction for row in echelon for x in row)

"""Exact linear algebra sanity checks.

The package hands linalg int rows, each producer clearing its denominators
once with integral(); these tests feed it the same way."""

from fractions import Fraction
from math import gcd
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from borderrank import linalg
from borderrank.apolarity import tensor_from_json
from borderrank.bounds import bounds_report
from borderrank.ideals import ideal_from_json
from borderrank.linalg import integral, kernel_basis, rank, row_echelon
from borderrank.movefit import verify_candidate
from oracles import dense_row_echelon
from test_bounds import rational_cubic
from test_movefit import _corpus_json


def F(x):
    return Fraction(x)


def ints(rows):
    """The rows as a producer hands them over: each cleared to coprime ints."""
    return [integral(row) for row in rows]


def assert_primitive_ints(vectors):
    for vec in vectors:
        assert all(type(x) is int for x in vec)
        assert gcd(*vec) == 1


def test_integral_scales_by_one_positive_rational():
    assert integral([F(1) / 2, F(-2) / 3, F(0)]) == [3, -4, 0]
    assert integral([4, -6, 0]) == [2, -3, 0]
    assert integral([F(-5) / 7]) == [-1]
    assert integral([0, 0]) == [0, 0]
    assert integral([]) == []
    assert all(type(x) is int for x in integral([F(1) / 2, F(3)]))


def test_rank_simple():
    assert rank([]) == 0
    assert rank(ints([[F(0), F(0)]])) == 0
    assert rank(ints([[F(1), F(2)], [F(2), F(4)]])) == 1
    assert rank(ints([[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]])) == 2


def test_row_echelon_pivots_increase():
    rows = ints([[F(0), F(2), F(1)], [F(3), F(0), F(0)], [F(3), F(2), F(1)]])
    echelon, pivots = row_echelon(rows)
    assert pivots == sorted(pivots)
    assert_primitive_ints(echelon)
    for erow, col in zip(echelon, pivots):
        assert erow[col] != 0
        assert all(erow[k] == 0 for k in range(col))


def test_kernel_basis_known():
    # x + y + z = 0 over three columns: kernel has dimension 2
    rows = ints([[F(1), F(1), F(1)]])
    basis = kernel_basis(rows, 3)
    assert len(basis) == 2
    assert_primitive_ints(basis)
    for vec, free in zip(basis, [1, 2]):
        assert sum(vec) == 0
        assert vec[free] > 0


def _in_span(rows, vector) -> bool:
    return rank(rows + [vector]) == rank(rows)


def test_in_row_span():
    rows = ints([[F(1), F(0), F(1)], [F(0), F(1), F(1)]])
    assert _in_span(rows, integral([F(1), F(1), F(2)]))
    assert _in_span(rows, integral([F(0), F(0), F(0)]))
    assert not _in_span(rows, integral([F(0), F(0), F(1)]))


small_matrix = st.lists(
    st.lists(st.integers(-4, 4).map(F), min_size=4, max_size=4),
    min_size=1,
    max_size=5,
)


@given(small_matrix)
@settings(max_examples=60, deadline=None)
def test_rank_nullity(rows):
    assert rank(ints(rows)) + len(kernel_basis(ints(rows), 4)) == 4


@given(small_matrix)
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_annihilate(rows):
    for vec in kernel_basis(ints(rows), 4):
        for row in rows:
            assert sum(r * v for r, v in zip(row, vec)) == 0


@given(small_matrix, st.lists(st.integers(-3, 3), min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_span_membership_consistent_with_rank(rows, coeffs):
    # any linear combination of the rows lies in the span
    combo = [
        sum(F(c) * row[k] for c, row in zip(coeffs, rows)) for k in range(4)
    ]
    assert _in_span(ints(rows), integral(combo))


# ---------------------------------------------------------------------------
# Oracle: schoolbook elimination over Fraction, the reference that the
# integer elimination must reproduce exactly, once each echelon row is divided
# by its pivot entry and each kernel vector by its free-column entry
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
    int_rows = ints(rows)
    snapshot = [list(r) for r in int_rows]
    echelon, pivots = row_echelon(int_rows)
    assert_primitive_ints(echelon)
    monic = [[Fraction(x, row[col]) for x in row] for row, col in zip(echelon, pivots)]
    assert (monic, pivots) == fraction_row_echelon(rows)
    basis = kernel_basis(int_rows, ncols)
    assert_primitive_ints(basis)
    free = [col for col in range(ncols) if col not in pivots]
    assert len(basis) == len(free)
    assert all(vec[col] > 0 for vec, col in zip(basis, free))
    unit = [[Fraction(x, vec[col]) for x in vec] for vec, col in zip(basis, free)]
    assert unit == fraction_kernel_basis(rows, ncols)
    assert int_rows == snapshot  # the input rows are left as they were


# ---------------------------------------------------------------------------
# Oracle: the dense fraction-free elimination, which the sparse one must
# reproduce step for step: the same rows, signs and pivots
# ---------------------------------------------------------------------------

@st.composite
def wide_int_matrices(draw):
    """Int rows over up to 40 columns, each entry non-zero with a drawn
    probability and up to a drawn size (10^15 at most), mixed with zero rows,
    repeats and combinations of earlier rows.  The entries come from a drawn
    Random, since a 40-column matrix of large ints outgrows the data of one
    example when each entry is drawn on its own."""
    ncols = draw(st.integers(0, 40))
    nrows = draw(st.integers(0, 45))
    density = draw(st.sampled_from([0.05, 0.15, 0.4, 1.0]))
    bound = draw(st.sampled_from([2, 10**6, 10**15]))
    rng = draw(st.randoms(use_true_random=False))
    rows = []
    for _ in range(nrows):
        kind = rng.choice(["fresh", "fresh", "fresh", "zero", "repeat", "combo"])
        if kind == "zero" or (kind != "fresh" and not rows):
            row = [0] * ncols
        elif kind == "fresh":
            row = [
                rng.randint(-bound, bound) if rng.random() < density else 0
                for _ in range(ncols)
            ]
        elif kind == "repeat":
            row = list(rng.choice(rows))
        else:
            a, b = rng.choice(rows), rng.choice(rows)
            c, d = rng.randint(-bound, bound), rng.randint(-3, 3)
            row = [c * x + d * y for x, y in zip(a, b)]
        rows.append(row)
    return rows, ncols


@given(wide_int_matrices())
@settings(max_examples=100, deadline=None)
def test_row_echelon_and_kernel_equal_the_dense_reference(matrix):
    rows, ncols = matrix
    snapshot = [list(r) for r in rows]
    reference = dense_row_echelon(snapshot)
    assert row_echelon(rows) == reference
    # the kernel back-substitutes from the echelon rows it is given
    with mock.patch.object(linalg, "row_echelon", dense_row_echelon):
        reference_kernel = kernel_basis(snapshot, ncols)
    assert kernel_basis(rows, ncols) == reference_kernel
    full = len(reference[0])
    for limit in range(full + 3):
        assert rank(rows, limit) == min(full, limit)
    assert rows == snapshot  # the input rows are left as they were


def test_row_echelon_edge_shapes():
    assert row_echelon([]) == ([], [])
    assert kernel_basis([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    # rows of length 0: no pivot, and an empty kernel over no columns
    assert row_echelon([[], []]) == ([], [])
    assert kernel_basis([[], []], 0) == []
    # each echelon row comes back primitive, not monic
    echelon, pivots = row_echelon([[0, 4, 6], [2, 0, 3]])
    assert pivots == [0, 1]
    assert echelon == [[2, 0, 3], [0, 2, 3]]
    assert all(type(x) is int for row in echelon for x in row)
    # its kernel: the RREF vector (-3/2, -3/2, 1), scaled to primitive ints
    assert kernel_basis([[0, 4, 6], [2, 0, 3]], 3) == [[-3, -3, 2]]


def test_row_echelon_receives_only_int_rows(monkeypatch):
    # every producer clears its denominators before its rows reach linalg:
    # the bounds report of a tensor with denominators 3 and 7, and the verify
    # replay of a corpus witness whose generators carry halves
    F = tensor_from_json(_corpus_json("cubic-p4.json"))
    I = ideal_from_json(_corpus_json("ideal-cubic-p4.json"))
    types, calls = set(), []

    def checked(rows, limit=None):
        calls.append(len(rows))
        types.update(type(x) for row in rows for x in row)
        return row_echelon(rows, limit)

    monkeypatch.setattr(linalg, "row_echelon", checked)
    bounds_report(rational_cubic())
    verify_candidate(I, F, 5, horizon=5)
    assert calls and types == {int}

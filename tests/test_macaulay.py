"""Macaulay growth bounds, lex segments, and the Lex-bar profile.

The headline bounds are re-proved here by brute force on small cases: every
monomial subspace of the relevant pieces is enumerated and its actual growth
compared against the claimed cap, with the extremal configuration checked to
attain it.
"""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borderrank.errors import PreconditionError
from borderrank.macaulay import (
    lexbar_growth,
    lexbar_profile,
    macaulay_coefficients,
    macaulay_exponent,
)
from borderrank.ring import FactorShape, enumerate_monomials, piece_dimension
from oracles import lex_segment, macaulay_coefficients_by_unit_steps, times, variable


# ---------------------------------------------------------------------------
# Macaulay decompositions
# ---------------------------------------------------------------------------

def test_decomposition_known_values():
    dec = macaulay_coefficients(15, 3)
    assert dec.coefficients == (5, 3, 2)
    assert 15 == math.comb(5, 3) + math.comb(3, 2) + math.comb(2, 1)
    assert dec.exponent() == 22
    assert macaulay_exponent(15, 3) == 22


def test_decomposition_zero_and_errors():
    dec = macaulay_coefficients(0, 3)
    # all-degenerate decomposition: C(2,3) + C(1,2) + C(0,1) = 0
    assert dec.coefficients == (2, 1, 0)
    assert dec.exponent() == 0
    with pytest.raises(PreconditionError):
        macaulay_coefficients(-1, 2)
    with pytest.raises(PreconditionError):
        macaulay_coefficients(3, 0)


def test_decomposition_json():
    data = macaulay_coefficients(15, 3).to_json()
    assert data == {"r": 15, "d": 3, "coefficients": [5, 3, 2], "exponent": 22}


@given(st.integers(0, 500), st.integers(1, 6))
@settings(max_examples=120, deadline=None)
def test_decomposition_reconstructs_and_decreases(r, d):
    dec = macaulay_coefficients(r, d)
    assert len(dec.coefficients) == d
    assert all(x > y for x, y in zip(dec.coefficients, dec.coefficients[1:]))
    total = sum(
        math.comb(a, i) for a, i in zip(dec.coefficients, range(d, 0, -1))
    )
    assert total == r


@given(st.integers(0, 10**5 - 1), st.integers(1, 8))
@settings(max_examples=300, deadline=None)
def test_decomposition_matches_unit_steps(r, d):
    # doubling then bisection finds the a_i that raising one step at a time does
    assert macaulay_coefficients(r, d).coefficients == macaulay_coefficients_by_unit_steps(r, d)


@given(st.integers(0, 200), st.integers(1, 5))
@settings(max_examples=120, deadline=None)
def test_exponent_monotone_in_r(r, d):
    assert macaulay_exponent(r + 1, d) >= macaulay_exponent(r, d)


def test_exponent_of_full_piece_is_next_dimension():
    # removing all of S_d caps the growth at dim S_{d+1}
    for n in (1, 2, 3):
        for d in (1, 2, 3, 4):
            full = math.comb(n + d, n)
            assert macaulay_exponent(full, d) == math.comb(n + d + 1, n)


# ---------------------------------------------------------------------------
# Lex segments and single-piece extremality
# ---------------------------------------------------------------------------

def test_lex_segment_shape():
    mons = enumerate_monomials(FactorShape([2]), (2,))
    seg = lex_segment(2, 2, 2)
    assert seg == mons[2:]
    assert lex_segment(2, 2, 0) == mons
    assert lex_segment(2, 2, 6) == ()
    with pytest.raises(PreconditionError):
        lex_segment(2, 2, 7)
    with pytest.raises(PreconditionError):
        lex_segment(2, 2, -1)


def _monomial_growth(kept, n, d):
    """Codimension of span{m * x_i} in S_{d+1} for a monomial subspace."""
    shape = FactorShape([n])
    prods = set()
    for m in kept:
        for i in range(n + 1):
            prods.add(times(m, variable(shape, 0, i)))
    return piece_dimension(shape, (d + 1,)) - len(prods)


def test_growth_cap_exhaustive_single_piece():
    # every monomial subspace of S_d on P^2, d <= 3: actual growth never
    # exceeds the Macaulay exponent, and the lex segment attains it
    n = 2
    shape = FactorShape([n])
    for d in (1, 2, 3):
        mons = enumerate_monomials(shape, (d,))
        dim = len(mons)
        for c in range(dim + 1):
            cap = macaulay_exponent(c, d)
            best = 0
            for kept in combinations(mons, dim - c):
                g = _monomial_growth(kept, n, d)
                assert g <= cap
                best = max(best, g)
            assert best == cap
            assert _monomial_growth(lex_segment(n, d, c), n, d) == cap


# ---------------------------------------------------------------------------
# Lex-bar profiles for direct sums
# ---------------------------------------------------------------------------

def test_lexbar_profile_fills_smallest_degrees_first():
    profile = lexbar_profile((2, 3, 3, 4), 3, 38)
    assert profile.codims == (10, 20, 8, 0)
    assert profile.growth() == 65
    data = profile.to_json()
    assert data["codims"] == [10, 20, 8, 0]
    assert data["growth"] == 65


def test_lexbar_profile_validation():
    with pytest.raises(PreconditionError):
        lexbar_profile((3, 2), 2, 1)  # not ascending
    with pytest.raises(PreconditionError):
        lexbar_profile((2, -1), 2, 1)
    with pytest.raises(PreconditionError):
        lexbar_profile((1,), 2, 4)  # r beyond total dimension
    with pytest.raises(PreconditionError, match="n must be >= 0, got -1"):
        lexbar_profile((0,), -1, 0)  # no such projective space


def test_lexbar_degree_zero_summand():
    # a degree-0 summand is a free module generator in degree 0: emptied, it
    # would otherwise have produced all n+1 variables
    assert lexbar_growth((0,), 3, 1) == 4
    assert lexbar_growth((0,), 3, 0) == 0
    assert lexbar_growth((0, 1), 2, 1) == 3
    assert lexbar_growth((0, 1), 2, 2) == 3 + macaulay_exponent(1, 1)


@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=4).map(sorted),
    st.integers(1, 3),
    st.integers(0, 30),
)
@settings(max_examples=120, deadline=None)
def test_lexbar_growth_monotone_in_r(degrees, n, r):
    degrees = tuple(degrees)
    total = sum(math.comb(n + d, n) for d in degrees)
    if r + 1 > total:
        return
    assert lexbar_growth(degrees, n, r + 1) >= lexbar_growth(degrees, n, r)


def test_lexbar_allocation_exhaustive_two_summands():
    # brute force over all allocations of codimension across two summands on
    # P^2, using the exhaustively verified single-piece maxima: the Lex-bar
    # fill (empty smallest degrees first) is the extremal allocation
    n = 2
    shape = FactorShape([n])
    max_growth = {}
    for d in (1, 2, 3):
        mons = enumerate_monomials(shape, (d,))
        dim = len(mons)
        for c in range(dim + 1):
            best = 0
            for kept in combinations(mons, dim - c):
                best = max(best, _monomial_growth(kept, n, d))
            max_growth[(d, c)] = best

    for d1 in (1, 2, 3):
        for d2 in (d1, 3):
            degrees = (d1, d2)
            dims = [math.comb(n + d, n) for d in degrees]
            for r in range(sum(dims) + 1):
                best = -1
                for c1 in range(min(r, dims[0]) + 1):
                    c2 = r - c1
                    if c2 > dims[1]:
                        continue
                    best = max(
                        best, max_growth[(d1, c1)] + max_growth[(d2, c2)]
                    )
                assert best == lexbar_growth(degrees, n, r)


# ---------------------------------------------------------------------------
# Exponent rearrangement inequalities used by the Lex-bar argument
# ---------------------------------------------------------------------------

def test_moving_codimension_to_smaller_degree_grows_cap():
    # for d >= e > 0: q^<d> + r^<e> <= (q+r)^<e>
    for e in range(1, 6):
        for d in range(e, 6):
            for q in range(0, 61):
                qd = macaulay_exponent(q, d)
                for r in range(0, 61):
                    assert qd + macaulay_exponent(r, e) <= macaulay_exponent(
                        q + r, e
                    )


def test_moving_overflow_to_larger_degree_grows_cap():
    # for d >= e > 0 and q <= dim S_d, r <= dim S_e with q + r >= dim S_e:
    # q^<d> + r^<e> <= (q + r - dim S_e)^<d> + (dim S_e)^<e>
    for n in (1, 2, 3):
        for e in range(1, 6):
            dim_e = math.comb(n + e, n)
            full_e = macaulay_exponent(dim_e, e)
            for d in range(e, 6):
                dim_d = math.comb(n + d, n)
                for q in range(0, dim_d + 1):
                    qd = macaulay_exponent(q, d)
                    r_lo = max(0, dim_e - q)
                    for r in range(r_lo, dim_e + 1):
                        lhs = qd + macaulay_exponent(r, e)
                        rhs = macaulay_exponent(q + r - dim_e, d) + full_e
                        assert lhs <= rhs

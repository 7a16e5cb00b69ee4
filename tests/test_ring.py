"""Tests for the combinatorial ring layer: shapes, monomials, grevlex, text."""

import itertools
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borderrank.errors import ParseError, ShapeMismatchError
from borderrank.ring import (
    FactorShape,
    Monomial,
    degree_add,
    degree_is_effective,
    degree_le,
    degree_sub,
    degrees_up_to,
    contract,
    enumerate_monomials,
    monomial_to_text,
    multiply,
    piece_dimension,
    positions,
    product_table,
)
from oracles import (
    contract_by_times,
    enumerate_by_sorting,
    monomial_from_text,
    multiply_by_times,
    sparse,
    times,
    variable,
)


# ---------------------------------------------------------------------------
# Shapes
# ---------------------------------------------------------------------------

def test_shape_basic():
    shape = FactorShape([2, 1, 1])
    assert shape.num_factors == 3
    assert shape.factors == (2, 1, 1)
    assert shape.unit_degree(1) == (0, 1, 0)
    # variables are factor-major: (factor 1, index 1) is the 5th of 7
    assert variable(shape, 1, 1).flat() == (0, 0, 0, 0, 1, 0, 0)


def test_shape_rejects_empty_and_nonpositive():
    with pytest.raises(ValueError):
        FactorShape([])
    # point factors P^0 are allowed, negative dimensions are not
    assert FactorShape([2, 0]).factors == (2, 0)
    with pytest.raises(ValueError):
        FactorShape([-1])
    with pytest.raises(ValueError):
        FactorShape([2, -1])


def test_check_degree_length():
    shape = FactorShape([2, 1])
    assert shape.check_degree([3, 4]) == (3, 4)
    with pytest.raises(ShapeMismatchError):
        shape.check_degree([3])


# ---------------------------------------------------------------------------
# Monomials
# ---------------------------------------------------------------------------

def test_monomial_degree_and_flat():
    m = Monomial([(2, 0, 1), (0, 3)])
    assert m.degree == (3, 3)
    assert m.total_degree == 6
    assert m.flat() == (2, 0, 1, 0, 3)


def test_monomial_constructors():
    shape = FactorShape([2, 1])
    one = Monomial([(0, 0, 0), (0, 0)])
    assert one.degree == (0, 0)
    assert one.matches_shape(shape)
    v = variable(shape, 1, 0)
    assert v.exponents == ((0, 0, 0), (1, 0))
    assert v.matches_shape(shape)
    assert not v.matches_shape(FactorShape([2, 2]))


def test_monomial_rejects_bad_input():
    with pytest.raises(ValueError):
        Monomial([])
    with pytest.raises(ValueError):
        Monomial([()])
    with pytest.raises(ValueError):
        Monomial([(1, -1)])


def test_monomial_multiplication_and_divisibility():
    m = Monomial([(1, 0), (0, 2)])
    n = Monomial([(0, 1), (1, 0)])
    assert times(m, n).exponents == ((1, 1), (1, 2))
    assert m.divides(times(m, n))
    assert not times(m, n).divides(m)
    with pytest.raises(ShapeMismatchError):
        times(m, Monomial([(1, 0, 0)]))
    with pytest.raises(ShapeMismatchError):
        m.divides(Monomial([(1, 0, 0)]))


def test_value_types_compare_and_hash_by_value():
    # monomials key tensor terms and shapes key caches: values built from
    # any sequences of integers are equal and hash alike, and never equal a
    # value of another type holding the same data
    m = Monomial([[2, 1], (0,)])
    assert m == Monomial(((2, 1), (0,))) == Monomial([(2.0, True), [False]])
    assert hash(m) == hash(Monomial(((2, 1), (0,))))
    assert {m: "x"}[Monomial([(2, 1), (0,)])] == "x"
    assert m != Monomial([(1, 2), (0,)])
    assert m != ((2, 1), (0,)) and m != FactorShape([1, 0])
    shape = FactorShape([2, 1])
    assert shape == FactorShape((2, 1)) == FactorShape([2.0, True])
    assert hash(shape) == hash(FactorShape((2, 1)))
    assert shape != FactorShape([1, 2])
    assert shape != (2, 1) and shape != Monomial([(2,), (1,)])
    # error messages show values this way
    assert repr(m) == "Monomial(exponents=((2, 1), (0,)))"
    assert repr(shape) == "FactorShape(factors=(2, 1))"


@pytest.mark.parametrize(
    "value, field", [(Monomial([(2, 1), (0,)]), "exponents"), (FactorShape([2, 1]), "factors")]
)
def test_value_types_refuse_assignment_and_survive_pickling(value, field):
    # a value's hash must not change while it keys a dict, and search plans
    # reach pool workers pickled, shape and monomial included
    before = getattr(value, field)
    for name in (field, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, ())
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert getattr(value, field) == before
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value)
    assert copy == value and hash(copy) == hash(value)
    with pytest.raises(AttributeError):
        setattr(copy, field, ())


# ---------------------------------------------------------------------------
# Degree helpers
# ---------------------------------------------------------------------------

def test_degree_arithmetic():
    assert degree_add((1, 2), (3, 4)) == (4, 6)
    assert degree_sub((3, 4), (1, 2)) == (2, 2)
    assert degree_is_effective((0, 0))
    assert not degree_is_effective((1, -1))
    assert degree_le((1, 2), (1, 3))
    assert not degree_le((2, 0), (1, 3))


# ---------------------------------------------------------------------------
# Piece dimensions and enumeration
# ---------------------------------------------------------------------------

def test_piece_dimension_formula():
    # dim S_(d) on P^n is C(n+d, n)
    assert piece_dimension(FactorShape([2]), (3,)) == math.comb(5, 2)
    # products multiply
    assert piece_dimension(FactorShape([2, 1]), (3, 2)) == math.comb(5, 2) * 3
    # negative entries give 0
    assert piece_dimension(FactorShape([2, 1]), (3, -1)) == 0


def test_enumeration_matches_dimension():
    shape = FactorShape([2, 1])
    for D in [(0, 0), (1, 0), (2, 1), (3, 2)]:
        mons = enumerate_monomials(shape, D)
        assert len(mons) == piece_dimension(shape, D)
        assert all(m.degree == D for m in mons)
        # strictly descending in grevlex
        for m1, m2 in zip(mons, mons[1:]):
            assert m1.grevlex_key() < m2.grevlex_key()
    with pytest.raises(ValueError):
        enumerate_monomials(shape, (1, -1))


def test_flat_bases_match_sorted_monomials():
    # the flat bases are built in grevlex order; the reference sorts Monomials
    rng = random.Random(28)
    for _ in range(300):
        shape = FactorShape([rng.randint(0, 3) for _ in range(rng.randint(1, 3))])
        D = tuple(rng.randint(0, 3) for _ in shape.factors)
        E = tuple(rng.randint(0, 2) for _ in shape.factors)
        basis = enumerate_by_sorting(shape, D)
        assert enumerate_monomials(shape, D) == basis
        assert list(positions(shape, D)) == [m.flat() for m in basis]
        index = {m: p for p, m in enumerate(enumerate_by_sorting(shape, degree_add(D, E)))}
        assert product_table(shape, D, E) == tuple(
            tuple(index[times(m, u)] for m in basis) for u in enumerate_by_sorting(shape, E)
        )


@st.composite
def _shape_and_degrees(draw):
    """A shape of 1-3 factors, each P^0-P^3, and degrees D, E of total at
    most 4 together, so the products stay small."""
    shape = FactorShape(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)))
    D = tuple(draw(st.integers(0, 2)) for _ in shape.factors)
    E = tuple(draw(st.integers(0, max(0, 4 - sum(D)) // len(D))) for _ in shape.factors)
    return shape, D, E


@given(_shape_and_degrees(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_multiply_and_contract_match_products_of_monomials(case, rng):
    # the rows and their order both count: the order decides the echelon
    # rows.  The dense references are compared as dicts of their non-zeros,
    # so a stored zero fails as well
    shape, D, E = case
    values = [-2, -1, 0, 0, 1, 3]
    rows = [
        sparse([rng.choice(values) for _ in range(piece_dimension(shape, D))])
        for _ in range(rng.randint(0, 3))
    ]
    reference = multiply_by_times(shape, rows, D, E)
    assert multiply(shape, rows, D, E) == [sparse(row) for row in reference]
    vectors = [
        sparse([rng.choice(values) for _ in range(piece_dimension(shape, degree_add(D, E)))])
        for _ in range(rng.randint(0, 3))
    ]
    reference = contract_by_times(shape, vectors, D, E)
    assert contract(shape, vectors, D, E) == [sparse(row) for row in reference]


def test_degrees_up_to_matches_brute_force():
    for w in range(1, 4):
        for max_total in range(6):
            brute = [
                D
                for D in itertools.product(range(max_total + 1), repeat=w)
                if sum(D) <= max_total
            ]
            brute.sort(key=lambda D: (sum(D), D))
            assert degrees_up_to(w, max_total) == brute


def test_grevlex_order_on_p2_quadrics():
    # standard grevlex on three variables, degree 2:
    # a0^2 > a0*a1 > a1^2 > a0*a2 > a1*a2 > a2^2
    shape = FactorShape([2])
    mons = enumerate_monomials(shape, (2,))
    expected = ["a0^2", "a0*a1", "a1^2", "a0*a2", "a1*a2", "a2^2"]
    assert [monomial_to_text(m) for m in mons] == expected


def test_grevlex_total_degree_dominates():
    cube = Monomial([(3, 0, 0)])
    quad = Monomial([(0, 0, 2)])
    # ascending grevlex_key is descending grevlex
    assert cube.grevlex_key() < quad.grevlex_key()
    assert sorted([quad, cube], key=Monomial.grevlex_key) == [cube, quad]


def test_grevlex_tiebreak_last_nonzero_negative():
    # equal total degree: m1 > m2 iff last non-zero entry of the exponent
    # difference is negative
    m1 = Monomial([(1, 1, 0)])
    m2 = Monomial([(2, 0, 0)])
    diff = [e - f for e, f in zip(m1.flat(), m2.flat())]
    last = next(d for d in reversed(diff) if d != 0)
    assert (m1.grevlex_key() < m2.grevlex_key()) == (last < 0)


# ---------------------------------------------------------------------------
# Text and JSON round trips
# ---------------------------------------------------------------------------

def test_text_round_trip_examples():
    shape = FactorShape([2, 1])
    for text in ["a0^2*a1|b0^3", "1|b1", "a2|1", "1|1"]:
        m = monomial_from_text(shape, text)
        assert monomial_to_text(m) == text


def test_text_parse_errors():
    shape = FactorShape([2, 1])
    with pytest.raises(ParseError):
        monomial_from_text(shape, "a0")  # missing factor segment
    with pytest.raises(ParseError):
        monomial_from_text(shape, "b0|b0")  # wrong block letter
    with pytest.raises(ParseError):
        monomial_from_text(shape, "a5|1")  # index out of range
    with pytest.raises(ParseError):
        monomial_from_text(shape, "a0^|1")  # malformed power


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

@st.composite
def shapes_and_monomials(draw):
    factors = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    shape = FactorShape(factors)
    exps = [
        [draw(st.integers(0, 4)) for _ in range(a + 1)] for a in factors
    ]
    return shape, Monomial(exps)


@given(shapes_and_monomials())
@settings(max_examples=60, deadline=None)
def test_text_round_trip_property(pair):
    shape, m = pair
    assert monomial_from_text(shape, monomial_to_text(m)) == m


@given(shapes_and_monomials(), shapes_and_monomials())
@settings(max_examples=60, deadline=None)
def test_grevlex_antisymmetry(p1, p2):
    shape1, m1 = p1
    shape2, m2 = p2
    if tuple(len(b) for b in m1.exponents) != tuple(len(b) for b in m2.exponents):
        return
    # the key is a total order on monomials: equal keys only for equal ones
    assert (m1.grevlex_key() == m2.grevlex_key()) == (m1 == m2)


@given(shapes_and_monomials())
@settings(max_examples=40, deadline=None)
def test_multiplication_respects_grevlex(pair):
    # m > n implies m*p > n*p; spot check against all monomials of a
    # small degree on the same shape
    shape, p = pair
    mons = enumerate_monomials(shape, tuple(1 for _ in shape.factors))
    for m, n in zip(mons, mons[1:]):
        assert times(m, p).grevlex_key() < times(n, p).grevlex_key()

"""Monomial and graded ideals: pieces, colon, saturation, apolar containment."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borderrank.apolarity import (
    Tensor,
    apolar_of_monomial,
    apolar_piece,
    apolar_piece_dimension,
    tensor_from_json,
)
from borderrank.errors import ParseError, PreconditionError, ShapeMismatchError
from borderrank.ideals import (
    GradedIdeal,
    MonomialIdeal,
    colon,
    colon_irrelevant,
    contained_in_apolar,
    hilbert_function,
    ideal_from_json,
    ideal_to_json,
    intersect,
    irrelevant_generators,
    is_saturated,
    iterated_colon_piece,
    minimal_generator_count,
    monomial_piece,
    piece_generator_count,
    saturate,
    saturation_defect,
)
from borderrank.ring import FactorShape, Monomial, enumerate_monomials, piece_dimension


P2 = FactorShape([2])


def mono(*exps):
    return Monomial([tuple(exps)])


# ---------------------------------------------------------------------------
# MonomialIdeal basics
# ---------------------------------------------------------------------------

def test_minimal_generators():
    I = MonomialIdeal(P2, [mono(2, 0, 0), mono(2, 1, 0), mono(0, 1, 1)])
    # the middle generator is a multiple of the first
    assert I.generators == (mono(2, 0, 0), mono(0, 1, 1))
    assert I.contains_monomial(mono(2, 1, 3))
    assert not I.contains_monomial(mono(1, 1, 0))
    assert MonomialIdeal(P2, []).is_zero()
    with pytest.raises(ShapeMismatchError):
        MonomialIdeal(P2, [Monomial([(1, 0)])])


def test_monomial_piece_and_hilbert():
    I = MonomialIdeal(P2, [mono(2, 0, 0)])
    piece = monomial_piece(I, (3,))
    assert all(mono(2, 0, 0).divides(m) for m in piece)
    di, dq = hilbert_function(I, (3,))
    assert di == len(piece) == 3
    assert dq == piece_dimension(P2, (3,)) - 3
    values = [hilbert_function(I, (d,)) for d in range(4)]
    assert values == [(0, 1), (0, 3), (1, 5), (3, 7)]


# ---------------------------------------------------------------------------
# Colon, intersection, saturation
# ---------------------------------------------------------------------------

def test_colon_known():
    I = MonomialIdeal(P2, [mono(2, 0, 0), mono(0, 3, 0)])
    J = colon(I, mono(1, 1, 0))
    # generators come back in descending grevlex: the quadric first
    assert set(J.generators) == {mono(1, 0, 0), mono(0, 2, 0)}
    assert J.generators[0] == mono(0, 2, 0)


def test_intersect_known():
    I = MonomialIdeal(P2, [mono(1, 0, 0)])
    J = MonomialIdeal(P2, [mono(0, 1, 0)])
    K = intersect(I, J)
    assert K.generators == (mono(1, 1, 0),)
    assert intersect(I, MonomialIdeal(P2, [])).is_zero()


def test_irrelevant_generators_product():
    shape = FactorShape([1, 1])
    gens = irrelevant_generators(shape)
    # one variable from each factor; 2 x 2 choices
    assert len(gens) == 4
    assert all(g.degree == (1, 1) for g in gens)
    # single factor: just the variables
    assert len(irrelevant_generators(P2)) == 3


def test_saturation_single_factor():
    # (a1^2, a2) on P^3-coordinates [a0..a3]: already saturated
    P3 = FactorShape([3])
    I = MonomialIdeal(
        P3, [Monomial([(0, 2, 0, 0)]), Monomial([(0, 0, 1, 0)])]
    )
    assert is_saturated(saturate(I)) is True
    # an artinian-ish ideal saturates to the whole ring
    J = MonomialIdeal(P2, [mono(1, 0, 0), mono(0, 1, 0), mono(0, 0, 1)])
    S = saturate(J)
    assert S.generators == (mono(0, 0, 0),)


def test_saturation_multi_factor():
    # on P^1 x P^1 the ideal (x0 y0, x0 y1) = x0 * (y0, y1) saturates to (x0)
    shape = FactorShape([1, 1])
    x0y0 = Monomial([(1, 0), (1, 0)])
    x0y1 = Monomial([(1, 0), (0, 1)])
    I = MonomialIdeal(shape, [x0y0, x0y1])
    assert not is_saturated(I)
    S = saturate(I)
    assert S.generators == (Monomial([(1, 0), (0, 0)]),)


def test_saturation_idempotent_property():
    import random

    rng = random.Random(7)
    shape = FactorShape([1, 1])
    all_mons = [
        m
        for D in [(1, 0), (0, 1), (1, 1), (2, 1), (2, 2)]
        for m in enumerate_monomials(shape, D)
    ]
    for _ in range(25):
        gens = rng.sample(all_mons, rng.randint(1, 4))
        S = saturate(MonomialIdeal(shape, gens))
        assert is_saturated(S)
        assert saturate(S) == S
        # saturation only grows the ideal
        for D in [(1, 1), (2, 2), (3, 2)]:
            assert hilbert_function(S, D)[0] >= hilbert_function(
                MonomialIdeal(shape, gens), D
            )[0]


# ---------------------------------------------------------------------------
# GradedIdeal pieces
# ---------------------------------------------------------------------------

def test_graded_ideal_pieces_match_monomial_ideal():
    # a monomial ideal presented as a GradedIdeal gives the same Hilbert data
    gens = [mono(2, 0, 0), mono(0, 1, 1)]
    I = MonomialIdeal(P2, gens)
    J = GradedIdeal(P2, [{g: Fraction(1)} for g in gens])
    for d in range(0, 5):
        assert hilbert_function(I, (d,)) == hilbert_function(J, (d,))


def test_graded_ideal_validation():
    with pytest.raises(PreconditionError):
        GradedIdeal(P2, [{}])
    with pytest.raises(PreconditionError):
        GradedIdeal(P2, [{mono(1, 0, 0): Fraction(1), mono(2, 0, 0): Fraction(1)}])
    with pytest.raises(PreconditionError):
        GradedIdeal(P2, [((2,), {mono(1, 0, 0): Fraction(1)})])


# ---------------------------------------------------------------------------
# Containment in apolar ideals
# ---------------------------------------------------------------------------

def test_contained_in_apolar_monomial():
    F = Tensor.monomial(P2, [(2, 2, 0)])
    good = apolar_of_monomial(F)
    assert contained_in_apolar(good, F)
    bad = MonomialIdeal(P2, [mono(1, 1, 0)])
    assert not contained_in_apolar(bad, F)


def test_contained_in_apolar_high_degree_generator():
    # a generator of degree not <= L annihilates automatically
    F = Tensor.monomial(FactorShape([1, 1]), [(1, 0), (1, 0)])
    high = MonomialIdeal(
        FactorShape([1, 1]), [Monomial([(2, 0), (0, 0)])]
    )
    assert contained_in_apolar(high, F)


def test_contained_in_apolar_graded():
    # F = x0^(2) - x1^(2), annihilated by a0 a1 and a0^2 + a1^2
    shape = FactorShape([1])
    F = Tensor(
        shape,
        (2,),
        {Monomial([(2, 0)]): Fraction(1), Monomial([(0, 2)]): Fraction(-1)},
    )
    good = GradedIdeal(
        shape,
        [
            {Monomial([(1, 1)]): Fraction(1)},
            {Monomial([(2, 0)]): Fraction(1), Monomial([(0, 2)]): Fraction(1)},
        ],
    )
    assert contained_in_apolar(good, F)
    bad = GradedIdeal(shape, [{Monomial([(2, 0)]): Fraction(1)}])
    assert not contained_in_apolar(bad, F)


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_apolar_ideal_of_monomial_is_contained(e0, e1, e2):
    if e0 + e1 + e2 == 0:
        return
    F = Tensor.monomial(P2, [(e0, e1, e2)])
    assert contained_in_apolar(apolar_of_monomial(F), F)


# ---------------------------------------------------------------------------
# Minimal generator counts
# ---------------------------------------------------------------------------

def test_minimal_generator_count_monomial():
    I = MonomialIdeal(P2, [mono(2, 0, 0), mono(0, 2, 0), mono(0, 0, 2)])
    assert minimal_generator_count(I, (2,)) == 3
    assert minimal_generator_count(I, (3,)) == 0
    assert minimal_generator_count(I, (1,)) == 0


def test_minimal_generator_count_graded_matches_monomial():
    gens = [mono(2, 0, 0), mono(1, 1, 0)]
    I = MonomialIdeal(P2, gens)
    J = GradedIdeal(P2, [{g: Fraction(1)} for g in gens])
    for d in range(1, 5):
        assert minimal_generator_count(I, (d,)) == minimal_generator_count(
            J, (d,)
        )


def test_minimal_generator_count_of_apolar_tensor():
    # minimal generators of F^perp in a degree, from its apolar pieces
    F = Tensor.monomial(FactorShape([1]), [(2, 1)])

    def apolar_rows(E):
        return apolar_piece(F, E)

    # F^perp = (a0^3, a1^2); degree (2,): one generator
    assert piece_generator_count(F.shape, (2,), apolar_rows) == 1
    assert piece_generator_count(F.shape, (3,), apolar_rows) == 1
    assert piece_generator_count(F.shape, (4,), apolar_rows) == 0


# ---------------------------------------------------------------------------
# Saturation defect probe
# ---------------------------------------------------------------------------

def test_iterated_colon_grows_toward_saturation():
    shape = FactorShape([1, 1])
    x0y0 = Monomial([(1, 0), (1, 0)])
    x0y1 = Monomial([(1, 0), (0, 1)])
    I = MonomialIdeal(shape, [x0y0, x0y1])
    # x0 enters (I : B) in degree (1, 0)
    base = iterated_colon_piece(I, (1, 0), 0)
    grown = iterated_colon_piece(I, (1, 0), 1)
    assert len(base) == 0 and len(grown) == 1
    defect = saturation_defect(I, 2)
    assert defect == {
        "degree": (1, 0),
        "steps": 1,
        "dim_ideal": 0,
        "dim_colon": 1,
    }


def test_saturation_defect_none_for_saturated():
    shape = FactorShape([1, 1])
    I = MonomialIdeal(shape, [Monomial([(1, 0), (0, 0)])])
    assert saturation_defect(I, 3) is None


def test_saturation_defect_graded():
    # same non-saturated example, presented with floating coefficients
    shape = FactorShape([1, 1])
    x0y0 = Monomial([(1, 0), (1, 0)])
    x0y1 = Monomial([(1, 0), (0, 1)])
    J = GradedIdeal(
        shape, [{x0y0: Fraction(1)}, {x0y1: Fraction(2)}]
    )
    defect = saturation_defect(J, 2)
    assert defect is not None
    assert defect["degree"] == (1, 0)
    assert defect["dim_colon"] > defect["dim_ideal"]


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------

def test_monomial_ideal_json_round_trip():
    I = MonomialIdeal(P2, [mono(2, 0, 0), mono(0, 1, 1)])
    data = ideal_to_json(I)
    assert "monomial_generators" in data
    assert ideal_from_json(data) == I


def test_graded_ideal_json_round_trip():
    shape = FactorShape([1])
    J = GradedIdeal(
        shape,
        [
            {Monomial([(2, 0)]): Fraction(1), Monomial([(0, 2)]): Fraction(-1, 3)},
        ],
    )
    data = ideal_to_json(J)
    K = ideal_from_json(data)
    assert isinstance(K, GradedIdeal)
    assert K.generators == J.generators


def test_ideal_json_errors():
    with pytest.raises(ParseError):
        ideal_from_json({"monomial_generators": []})  # missing shape
    with pytest.raises(ParseError):
        ideal_from_json({"shape": [2]})  # neither generator key
    with pytest.raises(ParseError):
        ideal_from_json(
            {
                "shape": [1],
                "generators": [
                    {"degree": [1], "terms": [{"exp": [[1, 0]], "num": "1"}]}
                ],
            }
        )


@pytest.mark.parametrize("bad", [[-1], [], "ab", [1.5], [True], 3, None])
def test_bad_shapes_are_parse_errors(bad):
    # tensor and ideal documents share one shape parser
    with pytest.raises(ParseError):
        ideal_from_json({"shape": bad, "monomial_generators": []})
    with pytest.raises(ParseError):
        tensor_from_json({"shape": bad, "degree": [1], "terms": []})


def test_point_factor_shapes_parse():
    # the schemas allow P^0 factors
    I = ideal_from_json({"shape": [2, 0], "monomial_generators": []})
    F = tensor_from_json({"shape": [2, 0], "degree": [1, 0], "terms": []})
    assert I.shape.factors == F.shape.factors == (2, 0)

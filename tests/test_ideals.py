"""Monomial and graded ideals: pieces, colon, saturation, apolar containment,
and the verification of an explicit ideal."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borderrank import ideals, linalg
from borderrank.apolarity import (
    Tensor,
    apolar_piece,
    tensor_from_json,
)
from borderrank.cli import _corpus_path, main
from borderrank.errors import EXIT_PARSE, PreconditionError, ShapeMismatchError
from borderrank.ideals import (
    GradedIdeal,
    MonomialIdeal,
    contained_in_apolar,
    hilbert_function,
    ideal_from_json,
    ideal_to_json,
    intersect,
    iterated_colon_piece,
    saturate,
    saturation_defect,
    verify_candidate,
)
from borderrank.ring import (
    FactorShape,
    Monomial,
    degrees_up_to,
    enumerate_monomials,
    piece_dimension,
)
from oracles import (
    apolar_of_monomial,
    colon,
    contained_in_apolar_by_listing,
    contains_monomial,
    graded_ideal_to_json,
    is_saturated,
    minimal_generator_count,
    minimalize_by_divides,
    monomial_piece,
    piece_generator_count,
    saturate_by_colons,
)
from test_movefit import _corpus_json


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
    assert contains_monomial(I, mono(2, 1, 3))
    assert not contains_monomial(I, mono(1, 1, 0))
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


@given(
    st.sampled_from([[2], [3], [1, 2], [2, 2]]).map(FactorShape),
    st.randoms(use_true_random=False),
)
@settings(max_examples=100, deadline=None)
def test_piece_dimension_counts_the_monomial_piece(shape, rng):
    # the count of flat tuples some generator divides, against the listing
    # of the piece by Monomial.divides
    gens = [
        Monomial([[rng.randint(0, 2) for _ in range(a + 1)] for a in shape.factors])
        for _ in range(rng.randint(0, 4))
    ]
    I = MonomialIdeal(shape, gens)
    for D in degrees_up_to(shape.num_factors, 4):
        assert I.piece_dimension(D) == len(monomial_piece(I, D))


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
    # B is generated by the monomials of degree (1, ..., 1): one variable
    # from each factor, 2 x 2 choices on P^1 x P^1
    shape = FactorShape([1, 1])
    gens = enumerate_monomials(shape, (1, 1))
    assert len(gens) == 4
    assert {g.exponents for g in gens} == {
        (x, y) for x in ((1, 0), (0, 1)) for y in ((1, 0), (0, 1))
    }
    # single factor: just the variables
    assert len(enumerate_monomials(P2, (1,))) == 3


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


def test_saturate_matches_colon_fixpoint():
    # the colons by each factor's variables, factor by factor, give the
    # fixpoint of I -> (I : B)
    import random

    rng = random.Random(11)
    shapes = [[1], [2], [3], [1, 1], [2, 1], [1, 1, 1], [2, 2]]
    for _ in range(400):
        shape = FactorShape(rng.choice(shapes))
        gens = []
        for _ in range(rng.randint(0, 4)):
            D = tuple(rng.randint(0, 3) for _ in shape.factors)
            gens.append(rng.choice(enumerate_monomials(shape, D)))
        I = MonomialIdeal(shape, gens)
        assert saturate(I) == saturate_by_colons(I), (shape.factors, gens)
    # four to six factors, point factors among them: the factor-by-factor
    # colons against the fixpoint of the colon by all of B at once
    shapes = [[1, 1, 1, 1], [2, 0, 1, 1], [1, 1, 0, 1, 1], [1, 0, 1, 1, 0, 1]]
    for _ in range(60):
        shape = FactorShape(rng.choice(shapes))
        gens = [
            Monomial([[rng.randint(0, 2) for _ in range(a + 1)] for a in shape.factors])
            for _ in range(rng.randint(0, 4))
        ]
        I = MonomialIdeal(shape, gens)
        assert saturate(I) == saturate_by_colons(I), (shape.factors, gens)


def test_minimal_generators_match_pairwise_division():
    # _minimalize compares flat exponents, since MonomialIdeal has checked
    # that every generator fits the shape
    import random

    rng = random.Random(5)
    for factors in ([3], [2, 1]):
        shape = FactorShape(factors)
        for _ in range(300):
            gens = []
            for _ in range(rng.randint(0, 12)):
                D = tuple(rng.randint(0, 3) for _ in factors)
                gens.append(rng.choice(enumerate_monomials(shape, D)))
            assert MonomialIdeal(shape, gens).generators == minimalize_by_divides(gens)


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
    J = GradedIdeal(P2, [(g.degree, {g: Fraction(1)}) for g in gens])
    for d in range(0, 5):
        assert hilbert_function(I, (d,)) == hilbert_function(J, (d,))


def test_graded_ideal_builds_each_generator_row_once(monkeypatch):
    # every piece multiplies the generators' rows, which the ideal builds
    # once, as it is made, and keeps beside its (degree, poly) generators
    built = []
    poly_row = ideals.poly_row

    def counted(shape, D, poly):
        built.append(D)
        return poly_row(shape, D, poly)

    monkeypatch.setattr(ideals, "poly_row", counted)
    I = ideal_from_json(_corpus_json("ideal-minrank-3x3x3.json"))
    F = tensor_from_json(_corpus_json("minrank-3x3x3.json"))
    assert verify_candidate(I, F, 3, horizon=4).passed
    assert built == [D for D, _ in I.generators]


def test_graded_ideal_validation():
    # a zero generator, an inhomogeneous one, and one under the wrong tag
    with pytest.raises(PreconditionError):
        GradedIdeal(P2, [((1,), {})])
    with pytest.raises(PreconditionError):
        GradedIdeal(P2, [((1,), {mono(1, 0, 0): Fraction(1), mono(2, 0, 0): Fraction(1)})])
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


def test_contained_in_apolar_matches_listing_the_piece():
    # a monomial ideal is read against the tensor's support; the reference
    # lists its degree-L piece and looks each monomial up in the tensor
    import random

    rng = random.Random(28)
    shapes = [[1], [2], [0, 2], [1, 1], [2, 1], [1, 0, 1], [1, 1, 1]]
    seen = set()
    for _ in range(300):
        shape = FactorShape(rng.choice(shapes))
        L = tuple(rng.randint(0, 3) for _ in shape.factors)
        basis = enumerate_monomials(shape, L)
        support = rng.sample(basis, rng.randint(0, min(3, len(basis))))
        F = Tensor(shape, L, {m: rng.choice([-2, -1, 1, 3]) for m in support}, allow_zero=True)
        gens = [
            Monomial([[rng.randint(0, 2) for _ in range(a + 1)] for a in shape.factors])
            for _ in range(rng.randint(0, 4))
        ]
        I = MonomialIdeal(shape, gens)
        expected = contained_in_apolar_by_listing(I, F)
        assert contained_in_apolar(I, F) == expected, (shape.factors, L, support, gens)
        seen.add(expected)
    assert seen == {True, False}


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
            ((2,), {Monomial([(1, 1)]): Fraction(1)}),
            ((2,), {Monomial([(2, 0)]): Fraction(1), Monomial([(0, 2)]): Fraction(1)}),
        ],
    )
    assert contained_in_apolar(good, F)
    bad = GradedIdeal(shape, [((2,), {Monomial([(2, 0)]): Fraction(1)})])
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
    J = GradedIdeal(P2, [(g.degree, {g: Fraction(1)}) for g in gens])
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
    I = GradedIdeal(shape, [((1, 1), {x0y0: 1}), ((1, 1), {x0y1: 1})])
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
    I = GradedIdeal(shape, [((1, 0), {Monomial([(1, 0), (0, 0)]): 1})])
    assert saturation_defect(I, 3) is None


def test_saturation_defect_graded():
    # same non-saturated example, presented with floating coefficients
    shape = FactorShape([1, 1])
    x0y0 = Monomial([(1, 0), (1, 0)])
    x0y1 = Monomial([(1, 0), (0, 1)])
    J = GradedIdeal(shape, [((1, 1), {x0y0: Fraction(1)}), ((1, 1), {x0y1: Fraction(2)})])
    defect = saturation_defect(J, 2)
    assert defect is not None
    assert defect["degree"] == (1, 0)
    assert defect["dim_colon"] > defect["dim_ideal"]


# ---------------------------------------------------------------------------
# Candidate verification
# ---------------------------------------------------------------------------

def test_verify_candidate_rows_and_defaults():
    F = Tensor.monomial(FactorShape([1]), [(2, 1)])
    I = MonomialIdeal(F.shape, [Monomial([(0, 2)])])
    report = verify_candidate(I, F, 2)
    assert report.horizon == 3  # defaults to |L|
    assert report.passed and report.hilbert_ok and report.containment
    assert report.saturation == {"kind": "exact", "saturated": True}
    degrees = [tuple(row["degree"]) for row in report.rows]
    assert degrees == [(0,), (1,), (2,), (3,)]
    zero_row = report.rows[0]
    assert zero_row["required_quotient"] == 1
    assert zero_row["actual_quotient"] == 1
    assert all("saturation_quotient" in row for row in report.rows)
    data = report._asdict()
    assert data["passed"] is True


def test_verify_candidate_rejects_wrong_hilbert():
    F = Tensor.monomial(FactorShape([1]), [(2, 1)])
    # the zero ideal misses the required codimension in degree 3
    report = verify_candidate(MonomialIdeal(F.shape, []), F, 2)
    assert not report.hilbert_ok
    assert not report.passed
    bad_rows = [row for row in report.rows if not row["ok"]]
    assert bad_rows and bad_rows[0]["degree"] == [2]


def test_verify_candidate_rejects_non_apolar():
    F = Tensor.monomial(FactorShape([1]), [(2, 1)])
    # a0^2 divides x^(2,1), so (a0^2) is not inside the apolar ideal; pad
    # with a1^2 so the Hilbert function still matches
    I = MonomialIdeal(F.shape, [Monomial([(2, 0)]), Monomial([(0, 2)])])
    report = verify_candidate(I, F, 2)
    assert not report.containment
    assert not report.passed


def test_verify_corpus_minimal_rank_witness():
    F = tensor_from_json(_corpus_json("minrank-3x3x3.json"))
    I = ideal_from_json(_corpus_json("ideal-minrank-3x3x3.json"))
    report = verify_candidate(I, F, 3)
    assert report.passed
    assert report.saturation["kind"] == "degreewise-probe"
    assert report.saturation["saturated"] is False
    assert report.saturation["defect"]["degree"] == (1, 0, 0)


def test_verify_corpus_plane_cubic_witness():
    F = tensor_from_json(_corpus_json("cubic-p4.json"))
    I = ideal_from_json(_corpus_json("ideal-cubic-p4.json"))
    report = verify_candidate(I, F, 5, horizon=5)
    assert report.passed
    assert report.saturation["saturated"] is False
    assert report.saturation["defect"]["degree"] == (3,)


def test_verify_corpus_tangent_line_witness():
    F = tensor_from_json(_corpus_json("mono-31-p3.json"))
    I = ideal_from_json(_corpus_json("ideal-tangent-p3.json"))
    report = verify_candidate(I, F, 2)
    assert report.passed
    assert report.saturation == {"kind": "exact", "saturated": True}


@pytest.mark.parametrize(
    "ideal, tensor, r, horizon",
    [
        ("ideal-minrank-3x3x3.json", "minrank-3x3x3.json", 3, None),
        ("ideal-cubic-p4.json", "cubic-p4.json", 5, 5),
    ],
)
def test_verify_report_survives_scaling_each_generator(ideal, tensor, r, horizon):
    # a generator scaled by a non-zero rational spans the same line, so the
    # ideal and its report stay; each generator's denominators are cleared
    # on their own
    F = tensor_from_json(_corpus_json(tensor))
    I = ideal_from_json(_corpus_json(ideal))
    scales = [Fraction(2, 3), Fraction(-5, 7), Fraction(7), Fraction(-1, 12)]
    scaled = GradedIdeal(
        I.shape,
        [
            (degree, {m: scales[k % len(scales)] * c for m, c in poly.items()})
            for k, (degree, poly) in enumerate(I.generators)
        ],
    )
    expected = verify_candidate(I, F, r, horizon)._asdict()
    assert verify_candidate(scaled, F, r, horizon)._asdict() == expected


def test_verify_reduces_each_piece_once(monkeypatch):
    # the Hilbert function and the saturation probe read the same low-degree
    # pieces of a graded ideal; each is row-reduced once and kept
    F = tensor_from_json(_corpus_json("cubic-p4.json"))
    I = ideal_from_json(_corpus_json("ideal-cubic-p4.json"))
    reduced = []
    row_echelon = linalg.row_echelon

    def counting(rows):
        reduced.append(repr(rows))
        return row_echelon(rows)

    monkeypatch.setattr(linalg, "row_echelon", counting)
    assert verify_candidate(I, F, 5, horizon=6).passed
    # an empty row list stands for zero-row matrices of different widths
    # (the pieces of degree 0 and 1, and an empty constraint set)
    matrices = [rows for rows in reduced if rows != "[]"]
    assert len(matrices) >= 10
    assert len(matrices) == len(set(matrices))


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
        [((2,), {Monomial([(2, 0)]): Fraction(1), Monomial([(0, 2)]): Fraction(-1, 3)})],
    )
    data = graded_ideal_to_json(J)
    K = ideal_from_json(data)
    assert isinstance(K, GradedIdeal)
    assert K.generators == J.generators
    # the package writes only the monomial form, the one search candidates take
    with pytest.raises(PreconditionError):
        ideal_to_json(J)


@pytest.mark.parametrize("bad", [[-1], [], "ab", [1.5], [True], 3, None])
def test_bad_shapes_are_parse_errors(tmp_path, capsys, bad):
    # the schemas refuse a bad shape in tensor and ideal documents alike,
    # before the CLI builds anything from them
    tensor, ideal = tmp_path / "tensor.json", tmp_path / "ideal.json"
    tensor.write_text(
        json.dumps({"shape": bad, "degree": [1], "convention": "divided", "terms": []})
    )
    ideal.write_text(json.dumps({"shape": bad, "monomial_generators": []}))
    mono21 = _corpus_path("mono-21.json")
    for argv, schema in [
        (["bounds", str(tensor)], "tensor.schema.json"),
        (["verify", str(ideal), mono21, "--r", "2"], "ideal.schema.json"),
    ]:
        assert main(argv) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error["type"] == "ParseError"
        assert f" fails {schema} at " in error["message"]


def test_point_factor_shapes_parse():
    # the schemas allow P^0 factors
    I = ideal_from_json({"shape": [2, 0], "monomial_generators": []})
    F = tensor_from_json(
        {"shape": [2, 0], "degree": [1, 0], "convention": "divided", "terms": []}
    )
    assert I.shape.factors == F.shape.factors == (2, 0)

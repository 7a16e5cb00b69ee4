"""Border-rank bound assembly: chart upper, disjoint-module lower, closed
forms, almost-unbalanced values, and the minimal-border-rank tests."""

import random
import tracemalloc
from fractions import Fraction
from itertools import product as iter_product

import pytest

from borderrank import linalg
from borderrank.apolarity import (
    Tensor,
    apolar_piece,
    apolar_piece_dimension,
    catalecticant_lower_bound,
    is_concise,
    tensor_from_json,
)
from borderrank.bounds import (
    HOLDS,
    NOT_MINIMAL,
    BoundReport,
    almost_unbalanced_check,
    bounds_report,
    closed_form_border_rank,
    disjoint_module_obstruction,
    minimal_border_rank_generator_test,
    minimal_border_rank_quotient_test,
    upper_bound_monomial,
)
from borderrank.errors import (
    BorderRankError,
    PreconditionError,
    UnsupportedShapeError,
)
from borderrank.movefit import EXHAUSTED, FOUND, SearchConfig, search
from borderrank.ring import (
    FactorShape,
    Monomial,
    degree_sub,
    enumerate_monomials,
    multiply,
    piece_dimension,
)
from oracles import dense, dense_row_echelon, piece_generator_count
from test_movefit import _corpus_json


def single(*exps):
    return Tensor.monomial(FactorShape([len(exps) - 1]), [exps])


def disjoint_module(F):
    """(value, witness) of the disjoint-module bound in the report of F."""
    component = bounds_report(F).components["disjoint_module"]
    return component["value"], component["witness"]


# ---------------------------------------------------------------------------
# Chart upper bound
# ---------------------------------------------------------------------------

def test_chart_upper_bound():
    value, witness = upper_bound_monomial(single(4, 4, 4, 3))
    assert value == 5 * 5 * 4
    assert witness["dropped"] == [{"factor": 0, "index": 0, "exponent": 4}]
    # multi-factor: drop per factor
    F = Tensor.monomial(FactorShape([2, 1]), [(2, 1, 1), (3, 1)])
    value, witness = upper_bound_monomial(F)
    assert value == (2 * 2) * 2
    assert [w["factor"] for w in witness["dropped"]] == [0, 1]
    with pytest.raises(PreconditionError):
        upper_bound_monomial(
            Tensor(
                FactorShape([1]),
                (1,),
                {Monomial([(1, 0)]): Fraction(1), Monomial([(0, 1)]): Fraction(1)},
            )
        )


# ---------------------------------------------------------------------------
# Disjoint-module lower bound
# ---------------------------------------------------------------------------

def test_disjoint_module_flagship_witness():
    F = single(4, 4, 4, 3)
    value, witness = disjoint_module(F)
    assert value == 86
    assert witness["ruled_out_r"] == 85
    assert witness["degree"] == 8
    assert witness["codim_d"] == 15
    assert witness["codim_d_plus_1"] == 23
    assert witness["max_growth"] == 22
    assert witness["new_modules"] == 0
    assert witness["dim_apolar_d"] == 95
    assert witness["dim_s_d"] == 165
    assert witness["dim_apolar_d_plus_1"] == 158
    assert witness["dim_s_d_plus_1"] == 220
    # the rule itself, at the ruled-out rank and the next one up
    assert disjoint_module_obstruction(F, 85, 15) == witness
    assert disjoint_module_obstruction(F, 86, 15) is None


def test_disjoint_module_matches_closed_form_on_p2():
    # exhaustive sweep over monomials x0^a x1^b x2^c with 1 <= c <= b <= a,
    # total degree <= 9: the bound is tight on P^2
    count = 0
    for a in range(1, 8):
        for b in range(1, a + 1):
            for c in range(1, b + 1):
                if a + b + c > 9:
                    continue
                F = single(a, b, c)
                value, _ = disjoint_module(F)
                assert value == closed_form_border_rank(F)
                count += 1
    assert count == 23


def test_disjoint_module_never_exceeds_chart():
    for exps in iter_product(range(0, 4), repeat=4):
        if sum(exps) == 0:
            continue
        F = single(*exps)
        value, _ = disjoint_module(F)
        upper, _ = upper_bound_monomial(F)
        assert catalecticant_lower_bound(F) <= value <= upper


def test_disjoint_module_requires_single_factor():
    F = Tensor.monomial(FactorShape([1, 1]), [(1, 0), (1, 0)])
    assert "disjoint_module" not in bounds_report(F).components
    with pytest.raises(PreconditionError):
        disjoint_module_obstruction(F, 2, 2)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def test_closed_form_values():
    assert closed_form_border_rank(single(3, 2)) == 3
    assert closed_form_border_rank(single(2, 2, 2)) == 9
    F = Tensor.monomial(FactorShape([2, 1]), [(2, 1, 1), (3, 1)])
    assert closed_form_border_rank(F) == (2 * 2) * 2
    G = Tensor.monomial(FactorShape([2, 1, 1]), [(1, 1, 1), (2, 0), (1, 1)])
    assert closed_form_border_rank(G) == (2 * 2) * 1 * 2


def test_closed_form_unsupported_shapes():
    with pytest.raises(UnsupportedShapeError):
        closed_form_border_rank(single(1, 1, 1, 1))  # P^3
    with pytest.raises(UnsupportedShapeError):
        closed_form_border_rank(
            Tensor.monomial(FactorShape([1, 1]), [(1, 1), (1, 1)])
        )  # (P^1)^2 without a P^2 factor
    with pytest.raises(UnsupportedShapeError):
        closed_form_border_rank(
            Tensor.monomial(FactorShape([2, 2]), [(1, 1, 1), (1, 1, 1)])
        )  # two P^2 factors


def test_almost_unbalanced():
    # a_0 >= sum(rest) - 1 pins the value
    assert almost_unbalanced_check(single(5, 2, 2, 2)) == 27
    assert almost_unbalanced_check(single(2, 2, 2, 2)) is None
    assert almost_unbalanced_check(single(3, 0, 0, 0)) == 1
    # zero exponents are ignored before sorting
    assert almost_unbalanced_check(single(4, 0, 2, 3)) == 12


# ---------------------------------------------------------------------------
# Minimal-border-rank necessary tests
# ---------------------------------------------------------------------------

def _mn_matrix_multiplication_like():
    # sum of 5 independent rank-1 terms on (P^2)^3, concise, known to pass
    shape = FactorShape([2, 2, 2])
    picks = [(0, 0, 0), (1, 0, 1), (1, 1, 0), (2, 0, 2), (2, 2, 0)]
    coeffs = {}
    for i, j, k in picks:
        exps = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
        exps[0][i] = 1
        exps[1][j] = 1
        exps[2][k] = 1
        coeffs[Monomial(exps)] = Fraction(1)
    return Tensor(shape, (1, 1, 1), coeffs)


def test_generator_test_on_structure_tensor():
    F = _mn_matrix_multiplication_like()
    count, verdict = minimal_border_rank_generator_test(F)
    assert verdict == HOLDS
    assert count >= 2


def test_generator_test_preconditions():
    # mixed powers are rejected
    F = Tensor.monomial(FactorShape([2, 1]), [(1, 1, 1), (1, 1)])
    with pytest.raises(PreconditionError):
        minimal_border_rank_generator_test(F)
    # non-concise tensors are rejected
    G = Tensor.monomial(FactorShape([1, 1]), [(1, 0), (1, 0)])
    with pytest.raises(PreconditionError):
        minimal_border_rank_generator_test(G)


def test_quotient_test_values():
    F = _mn_matrix_multiplication_like()
    qdim, verdict = minimal_border_rank_quotient_test(F)
    assert verdict == HOLDS
    assert qdim >= 3


def test_quotient_test_flags_high_rank_tensor():
    # a generic-looking sum of 6 rank-1 terms on P^1 x P^1 cannot have
    # minimal border rank 2; the quotient test must notice
    shape = FactorShape([1, 1])
    coeffs = {}
    value = 1
    for i in range(2):
        for j in range(2):
            exps = [[0, 0], [0, 0]]
            exps[0][i] = 1
            exps[1][j] = 1
            coeffs[Monomial(exps)] = Fraction(value)
            value += 3
    F = Tensor(shape, (1, 1), coeffs)
    qdim, verdict = minimal_border_rank_quotient_test(F)
    # full 2x2 grid of independent coefficients: apolar in degree (0,1) is 0,
    # so the quotient is everything and the test holds
    assert verdict == HOLDS
    assert qdim == 4


def test_generator_count_is_quotient_dimension_minus_one():
    # on one factor both tests reduce P = F^perp_{L-1} * S_1: the count is
    # dim F^perp_L - rank P, the quotient dim S_L - rank P, and
    # dim S_L - dim F^perp_L is the rank 1 of the catalecticant at L
    rng = random.Random(1910)
    checked = 0
    for _ in range(240):
        n = rng.randint(1, 3)
        shape = FactorShape([n])
        L = (rng.randint(2, 4 if n < 3 else 3),)
        coeffs = {m: rng.randint(-2, 2) for m in enumerate_monomials(shape, L)}
        coeffs = {m: c for m, c in coeffs.items() if c}
        if not coeffs:
            continue
        F = Tensor(shape, L, coeffs)
        if not is_concise(F):
            continue
        count, _ = minimal_border_rank_generator_test(F)
        qdim, _ = minimal_border_rank_quotient_test(F)
        assert count == qdim - 1, F.terms()
        checked += 1
    assert checked >= 200


@pytest.mark.parametrize(
    "factors, L",
    [
        ([1], (4,)),
        ([2], (3,)),
        ([3], (3,)),
        ([1, 1], (2, 2)),
        ([2, 2], (2, 1)),
        ([1, 1, 1], (2, 1, 1)),
        ([2, 1], (2, 1)),
        ([1, 2], (2, 1)),
    ],
)
def test_minimal_tests_match_direct_computations(factors, L):
    # the generator count against the oracle that builds every product from
    # the apolar pieces, and the quotient against a rank of P_i computed
    # here, i the first factor of maximal dimension; on seeded dense tensors
    # and on sparse ones, whose counts are not all 0
    shape = FactorShape(factors)
    i = factors.index(max(factors))
    lower = degree_sub(L, shape.unit_degree(i))
    rng = random.Random(f"{factors}{L}")
    checked = 0
    for values in [[-2, -1, 1, 2], [-1, 0, 0, 0, 1, 2]] * 4:
        coeffs = {m: rng.choice(values) for m in enumerate_monomials(shape, L)}
        F = Tensor(shape, L, {m: c for m, c in coeffs.items() if c}, allow_zero=True)
        if F.is_zero() or not is_concise(F):
            continue
        products = multiply(shape, apolar_piece(F, lower), lower, shape.unit_degree(i))
        qdim, _ = minimal_border_rank_quotient_test(F)
        assert qdim == piece_dimension(shape, L) - linalg.rank(products)
        if len(set(factors)) > 1:
            with pytest.raises(PreconditionError):
                minimal_border_rank_generator_test(F)
        else:
            count, _ = minimal_border_rank_generator_test(F)
            assert count == piece_generator_count(shape, L, lambda E: apolar_piece(F, E))
        checked += 1
    assert checked >= 5


def dense_tensor(factors, L, seed):
    """A seeded tensor with every coefficient in {-2, -1, 1, 2}."""
    shape = FactorShape(factors)
    rng = random.Random(seed)
    coeffs = {m: rng.choice([-2, -1, 1, 2]) for m in enumerate_monomials(shape, L)}
    return Tensor(shape, L, coeffs)


def all_products(F):
    """The rows of P_j for every factor j, unreduced."""
    rows = []
    for j in range(F.shape.num_factors):
        lower = degree_sub(F.degree, F.shape.unit_degree(j))
        rows += multiply(F.shape, apolar_piece(F, lower), lower, F.shape.unit_degree(j))
    return rows


@pytest.mark.parametrize(
    "factors, L",
    [([1] * 3, (1, 1, 1)), ([2] * 3, (1, 1, 1)), ([3] * 3, (1, 1, 1)), ([4], (4,)), ([5], (3,))],
)
def test_generator_count_equals_the_unlimited_rank(factors, L):
    # the generator test stops its rank at dim F^perp_L, which the products
    # cannot exceed; the count must be the one the full dense rank gives
    for seed in range(2):
        F = dense_tensor(factors, L, seed)
        assert is_concise(F)
        width = piece_dimension(F.shape, F.degree)
        full = len(dense_row_echelon([dense(row, width) for row in all_products(F)])[0])
        count, _ = minimal_border_rank_generator_test(F)
        assert count == apolar_piece_dimension(F, L) - full


def test_generator_test_reads_no_row_past_the_apolar_dimension(monkeypatch):
    # on a trilinear form on (P^3)^3 the products are 144 rows over S_L and
    # dim F^perp_L = 63; the rank reaches 63 well before the last row, and
    # the reduction must leave every later row unread
    F = dense_tensor([3] * 3, (1, 1, 1), 0)
    row_echelon = linalg.row_echelon
    calls, read = [], set()

    class Watched(dict):
        # row_echelon first reads a row through values() and items()
        def values(self):
            read.add(id(self))
            return super().values()

        def items(self):
            read.add(id(self))
            return super().items()

        def __iter__(self):
            read.add(id(self))
            return super().__iter__()

    def watched(rows, limit=None):
        rows = [Watched(row) for row in rows]
        calls.append(rows)
        return row_echelon(rows, limit)

    monkeypatch.setattr(linalg, "row_echelon", watched)
    minimal_border_rank_generator_test(F)
    monkeypatch.undo()
    # the last call ranks the echelon rows of P_0 with the rows of P_1, P_2
    rows = calls[-1]
    dim = apolar_piece_dimension(F, F.degree)
    assert dim == 63 and len(rows) == 144
    # the first row whose prefix has rank dim
    width = piece_dimension(F.shape, F.degree)
    stop = next(
        k for k in range(1, len(rows) + 1)
        if len(dense_row_echelon([dense(r, width) for r in rows[:k]])[0]) == dim
    )
    assert stop < len(rows)
    assert [id(r) in read for r in rows] == [True] * stop + [False] * (len(rows) - stop)


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

def test_report_closed_form_shape():
    report = bounds_report(single(2, 2, 2))
    assert report.lower == report.upper == 9
    assert report.lower_provenance == "closed-form"
    assert report.upper_provenance == "closed-form"
    assert report.components["catalecticant"]["value"] == 7
    data = report._asdict()
    assert data["lower"] == data["upper"] == 9


def test_report_sandwich_shape():
    report = bounds_report(single(4, 4, 4, 3))
    assert report.lower == 86
    assert report.lower_provenance == "disjoint-module"
    assert report.upper == 100
    assert report.upper_provenance == "chart"
    assert report.components["catalecticant"]["value"] == 70
    assert report.lower <= report.upper


def test_report_computes_catalecticant_once(monkeypatch):
    # the disjoint-module scan starts from the report's own catalecticant
    # bound instead of computing it again
    from borderrank import bounds

    calls = []

    def counted(F):
        calls.append(F)
        return catalecticant_lower_bound(F)

    monkeypatch.setattr(bounds, "catalecticant_lower_bound", counted)
    report = bounds_report(single(4, 4, 4, 3))
    assert report.lower == 86 and report.components["disjoint_module"]["value"] == 86
    assert len(calls) == 1


def test_report_builds_the_tensor_row_once(monkeypatch):
    # every catalecticant of a report reads the coefficient row the tensor
    # keeps, so a report builds it once, however many degrees it ranks
    from borderrank import apolarity, bounds

    bounds._reduced_products.cache_clear()
    apolarity.catalecticant_rank.cache_clear()
    built = []
    poly_row = apolarity.poly_row

    def counted(shape, D, poly):
        built.append(D)
        return poly_row(shape, D, poly)

    monkeypatch.setattr(apolarity, "poly_row", counted)
    F = tensor_from_json(_corpus_json("minrank-3x3x3.json"))
    assert "minimal_quotient_test" in bounds_report(F).components
    assert built == [F.degree]


def test_report_enumerates_only_the_catalecticant_box():
    # the catalecticant bound reads the prod(l_i + 1) degrees D <= L, not
    # every degree of total at most |L|: on x0 y0 ... over ten factors of
    # P^1 that is 1,024 degrees instead of 184,756, which took a peak of
    # 42 MB when enumerated
    F = Tensor.monomial(FactorShape([1] * 10), [(1, 0)] * 10)
    tracemalloc.start()
    try:
        report = bounds_report(F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.lower == report.upper == 1
    assert peak < 4 << 20


def test_report_reduces_shared_product_matrix_once(monkeypatch):
    # on one factor the generator and quotient tests both need the rank of
    # P_0 = F^perp_3 * S_1 (30 * 5 = 150 rows over S_4); the report reduces
    # it once, and the generator test re-ranks its 69 echelon rows up to
    # dim F^perp_4 = 69, so here it reads every one of them
    from borderrank import apolarity, bounds

    # count from empty caches
    bounds._reduced_products.cache_clear()
    apolarity.catalecticant_rank.cache_clear()
    F = dense_tensor([4], (4,), 4)
    heights = []
    row_echelon = linalg.row_echelon

    def counted(rows, limit=None):
        heights.append(len(rows))
        return row_echelon(rows, limit)

    monkeypatch.setattr(linalg, "row_echelon", counted)
    report = bounds_report(F)
    assert report.components["minimal_generator_test"]["count"] == 0
    assert report.components["minimal_quotient_test"]["dimension"] == 1
    assert heights.count(150) == 1
    # 5 catalecticants, F^perp_3, P_0 and the re-rank of P_0's echelon rows;
    # conciseness and dim F^perp_4 read catalecticant ranks already kept
    assert len(heights) == 8
    assert heights.count(69) == 1
    monkeypatch.undo()
    assert minimal_border_rank_generator_test(F) == (0, NOT_MINIMAL)
    assert minimal_border_rank_quotient_test(F) == (1, NOT_MINIMAL)


def test_report_calls_the_public_minimal_tests_on_one_factor(monkeypatch):
    # a report reaches the two tests only through the public functions, on
    # one factor as on every other shape, so wrapping them sees every call
    from borderrank import bounds

    names = ["minimal_border_rank_generator_test", "minimal_border_rank_quotient_test"]
    entered = []
    for name in names:
        original = getattr(bounds, name)

        def wrapped(F, name=name, original=original):
            entered.append(name)
            return original(F)

        monkeypatch.setattr(bounds, name, wrapped)
    report = bounds_report(rational_cubic())
    assert entered == names
    assert report.components["minimal_generator_test"]["threshold"] == 2
    assert report.components["minimal_quotient_test"]["threshold"] == 3


def test_report_rejects_inverted_sandwich():
    with pytest.raises(BorderRankError):
        BoundReport(
            lower=5,
            lower_provenance="catalecticant",
            lower_witness={},
            upper=4,
            upper_provenance="chart",
            upper_witness={},
            components={},
        )


def test_report_almost_unbalanced_pins_value():
    report = bounds_report(single(5, 2, 2, 2))
    assert report.lower == report.upper == 27
    assert report.lower_provenance == "closed-form"
    assert report.lower_witness["method"] == "almost-unbalanced"


def test_report_non_monomial():
    F = _mn_matrix_multiplication_like()
    report = bounds_report(F)
    assert report.upper is None
    assert report.upper_provenance == "none"
    assert report.lower == report.components["catalecticant"]["value"]
    assert report.components["minimal_generator_test"]["verdict"] == HOLDS
    assert report.components["minimal_quotient_test"]["verdict"] == HOLDS


def rational_cubic():
    """A concise plane cubic whose coefficients have denominators 3 and 7."""
    shape = FactorShape([2])
    coeffs = {
        m: Fraction(k + 1, 3) if k % 2 == 0 else Fraction(-(k + 2), 7)
        for k, m in enumerate(enumerate_monomials(shape, (3,)))
    }
    return Tensor(shape, (3,), coeffs)


@pytest.mark.parametrize("scale", [Fraction(2, 3), Fraction(-5, 7)])
@pytest.mark.parametrize(
    "make",
    [rational_cubic, _mn_matrix_multiplication_like, lambda: single(3, 2, 1)],
    ids=["rational-cubic", "trilinear", "monomial-321"],
)
def test_report_survives_scaling_the_tensor(make, scale):
    # the bounds belong to the point [F]: a non-zero rescaling of F moves
    # none of them, and the catalecticant clears whatever denominators it has
    F = make()
    scaled = Tensor(F.shape, F.degree, {m: scale * c for m, c in F.terms()})
    assert bounds_report(scaled)._asdict() == bounds_report(F)._asdict()


def test_report_monotone_under_exponent_growth():
    # growing one exponent never lowers either side of the sandwich
    prev = bounds_report(single(2, 2, 2))
    bigger = bounds_report(single(3, 2, 2))
    assert bigger.lower >= prev.lower
    assert bigger.upper >= prev.upper


# ---------------------------------------------------------------------------
# Bounds against search
# ---------------------------------------------------------------------------

def _descending(n, max_total):
    # exponent vectors up to a permutation of the variables
    for e in iter_product(range(max_total + 1), repeat=n):
        if list(e) == sorted(e, reverse=True) and 1 <= sum(e) <= max_total:
            yield e


def _bounds_against_search_cases():
    cases = [(FactorShape([1]), [e]) for e in _descending(2, 12)]
    cases += [(FactorShape([2]), [e]) for e in _descending(3, 8)]
    cases += [(FactorShape([3]), [e]) for e in _descending(4, 9)]
    cases += [
        (FactorShape([2, 1]), [a, b])
        for a in _descending(3, 4)
        for b in _descending(2, 4)
        if sum(a) + sum(b) <= 5
    ]
    return cases


def test_bounds_agree_with_search():
    # a certified lower bound L means no move-fit ideal at r = L - 1, and a
    # settled value v means one exists at r = v
    exhausted = found = 0
    cases = _bounds_against_search_cases()
    for shape, blocks in cases:
        F = Tensor.monomial(shape, blocks)
        report = bounds_report(F)
        if report.lower >= 2:
            outcome = search(F, SearchConfig(r=report.lower - 1))
            assert outcome.status == EXHAUSTED, (shape.factors, blocks, report.lower)
            exhausted += 1
        if report.lower == report.upper:
            outcome = search(F, SearchConfig(r=report.lower))
            assert outcome.status == FOUND, (shape.factors, blocks, report.lower)
            found += 1
    # bounds read the variables that occur, so (2,2,2,0), (3,3,2,0) and
    # (3,3,3,0) on P^3 are settled too, by the closed form on P^2
    assert (len(cases), exhausted, found) == (189, 150, 181)


def test_zero_exponent_variable_changes_nothing():
    # x^a on P^n and x^a * x_{n+1}^0 on P^{n+1} are one tensor in two
    # spaces, and its border rank does not depend on the space around it,
    # so the search status at every r and the bounds must agree
    differ = {}
    pairs = 0
    for n, max_total in [(1, 8), (2, 6), (3, 4)]:
        for e in _descending(n + 1, max_total):
            F, G = single(*e), single(*e, 0)
            for r in range(1, piece_dimension(F.shape, F.degree) + 1):
                assert (
                    search(F, SearchConfig(r=r)).status
                    == search(G, SearchConfig(r=r)).status
                ), (e, r)
            a, b = bounds_report(F), bounds_report(G)
            if (a.lower, a.upper) != (b.lower, b.upper):
                differ[e] = (a.lower, a.upper), (b.lower, b.upper)
            pairs += 1
    assert pairs == 57
    # bounds_report restricts G to the variables that occur in it, so the
    # closed form settles (2,2,2,0) on P^3 as it settles (2,2,2) on P^2
    assert differ == {}


def test_report_restricts_to_occurring_variables():
    # (2,2,0,2) on P^3 is (2,2,2) on P^2 in a larger space: the report bounds
    # the smaller monomial and says which variables it kept
    report = bounds_report(single(2, 2, 0, 2))._asdict()
    plain = bounds_report(single(2, 2, 2))._asdict()
    restriction = report["components"].pop("restriction")
    assert restriction == {"shape": [2], "variables": [[0, 1, 3]]}
    assert report == plain
    assert "restriction" not in plain["components"]
    # P^2 x P^1 restricts to P^1 x P^1, which has no closed form, while the
    # whole space has one
    F = Tensor.monomial(FactorShape([2, 1]), [(2, 0, 1), (3, 1)])
    report = bounds_report(F)
    assert report.components["restriction"] == {
        "shape": [1, 1],
        "variables": [[0, 2], [0, 1]],
    }
    assert report.lower == report.upper == upper_bound_monomial(F)[0] == 4
    assert report.lower_provenance == "closed-form"
    # a factor of degree 0 keeps one variable, as a point factor
    G = Tensor.monomial(FactorShape([2, 1]), [(2, 1, 1), (0, 0)])
    report = bounds_report(G)
    assert report.components["restriction"] == {
        "shape": [2, 0],
        "variables": [[0, 1, 2], [0]],
    }
    assert report.lower == report.upper == 4

"""Hook action, catalecticants, apolar pieces, conciseness, JSON format."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borderrank import apolarity, linalg
from borderrank.apolarity import (
    Tensor,
    apolar_piece,
    apolar_piece_dimension,
    catalecticant,
    catalecticant_lower_bound,
    is_concise,
    monomial_catalecticant_rank,
    tensor_from_json,
)
from borderrank.errors import PreconditionError, ShapeMismatchError
from borderrank.ring import (
    FactorShape,
    Monomial,
    degree_le,
    degrees_up_to,
    enumerate_monomials,
    piece_dimension,
)
from oracles import apolar_of_monomial, contains_monomial, hook, hook_tensor, tensor_to_json


# ---------------------------------------------------------------------------
# Tensors and the hook action
# ---------------------------------------------------------------------------

def test_tensor_construction_and_terms():
    shape = FactorShape([1])
    m = Monomial([(2, 1)])
    F = Tensor(shape, (3,), {m: Fraction(2)})
    assert F.is_monomial
    assert F.coefficient(m) == 2
    assert F.terms() == ((m, Fraction(2)),)
    with pytest.raises(PreconditionError):
        Tensor(shape, (2,), {m: 1})  # degree mismatch
    with pytest.raises(PreconditionError):
        Tensor(shape, (3,), {})  # silent zero
    assert Tensor.zero(shape, (3,)).is_zero()


def test_hook_is_exponent_subtraction_with_unit_coefficient():
    theta = Monomial([(1, 0)])
    mon = Monomial([(2, 1)])
    assert hook(theta, mon) == Monomial([(1, 1)])
    # underflow kills the term
    assert hook(Monomial([(0, 2)]), mon) is None
    with pytest.raises(ShapeMismatchError):
        hook(Monomial([(1, 0, 0)]), mon)


def test_hook_tensor_never_multinomial():
    # the divided-power convention: hooking x0 out of x0^(2) x1 gives exactly
    # x0 x1, coefficient 1, never 2
    shape = FactorShape([1])
    F = Tensor.monomial(shape, [(2, 1)])
    G = hook_tensor(Monomial([(1, 0)]), F)
    assert G.coefficient(Monomial([(1, 1)])) == 1
    # iterated hooks all the way down to degree zero
    H = hook_tensor(Monomial([(1, 1)]), G)
    assert H.coefficient(Monomial([(0, 0)])) == 1


def test_hook_tensor_linear_combination():
    shape = FactorShape([1])
    F = Tensor(
        shape,
        (2,),
        {Monomial([(2, 0)]): Fraction(1), Monomial([(0, 2)]): Fraction(-1)},
    )
    theta = {Monomial([(1, 0)]): Fraction(1), Monomial([(0, 1)]): Fraction(1)}
    G = hook_tensor(theta, F)
    assert G.coefficient(Monomial([(1, 0)])) == 1
    assert G.coefficient(Monomial([(0, 1)])) == -1
    # annihilating operator
    theta2 = {Monomial([(2, 0)]): Fraction(1), Monomial([(0, 2)]): Fraction(1)}
    assert hook_tensor(theta2, F).is_zero()


# ---------------------------------------------------------------------------
# Catalecticants
# ---------------------------------------------------------------------------

def test_catalecticant_rank_binary_cubic():
    # x0^(2) x1 on P^1: middle catalecticant has rank 2
    F = Tensor.monomial(FactorShape([1]), [(2, 1)])
    assert linalg.rank(catalecticant(F, (1,))) == 2
    assert linalg.rank(catalecticant(F, (2,))) == 2
    assert linalg.rank(catalecticant(F, (0,))) == 1
    assert linalg.rank(catalecticant(F, (3,))) == 1


def test_monomial_catalecticant_rank_is_bounded_count():
    # the fast path counts exponent vectors e <= a with |e| = D
    a = Monomial([(4, 4, 4, 3)])
    for d in range(0, 18):
        explicit = sum(
            1
            for e in enumerate_monomials(FactorShape([3]), (d,))
            if e.divides(a)
        )
        assert monomial_catalecticant_rank(a, (d,)) == explicit


def _degrees_below(L):
    return [D for D in degrees_up_to(len(L), sum(L)) if degree_le(D, L)]


@st.composite
def random_tensors(draw):
    factors = draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
    shape = FactorShape(factors)
    L = tuple(draw(st.integers(1, 3)) for _ in factors)
    basis = enumerate_monomials(shape, L)
    coeffs = {
        m: Fraction(draw(st.integers(-3, 3)))
        for m in draw(st.sets(st.sampled_from(basis), min_size=1, max_size=4))
    }
    coeffs = {m: c for m, c in coeffs.items() if c}
    if not coeffs:
        coeffs = {basis[0]: Fraction(1)}
    return Tensor(shape, L, coeffs)


@given(random_tensors())
@settings(max_examples=40, deadline=None)
def test_catalecticant_rank_symmetry(F):
    # rank at D equals rank at L - D: the two maps are mutual transposes
    for D in _degrees_below(F.degree):
        comp = tuple(l - d for l, d in zip(F.degree, D))
        assert linalg.rank(catalecticant(F, D)) == linalg.rank(
            catalecticant(F, comp)
        )


@given(random_tensors())
@settings(max_examples=40, deadline=None)
def test_kernel_really_annihilates(F):
    for D in _degrees_below(F.degree):
        basis = enumerate_monomials(F.shape, D)
        for row in apolar_piece(F, D):
            theta = {m: c for m, c in zip(basis, row) if c}
            assert hook_tensor(theta, F).is_zero()


def test_apolar_piece_dimension_counts_kernel():
    shape = FactorShape([2])
    F = Tensor(
        shape,
        (3,),
        {
            Monomial([(3, 0, 0)]): Fraction(1),
            Monomial([(0, 3, 0)]): Fraction(1),
            Monomial([(1, 1, 1)]): Fraction(2),
        },
    )
    for d in range(0, 5):
        pieces = apolar_piece(F, (d,))
        assert apolar_piece_dimension(F, (d,)) == len(pieces)
    # beyond L the piece is everything
    assert apolar_piece_dimension(F, (4,)) == piece_dimension(shape, (4,))


def test_apolar_of_monomial_generators():
    # x^(a) has apolar ideal generated by the pure powers alpha_i^(a_i + 1)
    F = Tensor.monomial(FactorShape([2, 1]), [(2, 1, 0), (1, 1)])
    ideal = apolar_of_monomial(F)
    gens = set(ideal.generators)
    assert gens == {
        Monomial([(3, 0, 0), (0, 0)]),
        Monomial([(0, 2, 0), (0, 0)]),
        Monomial([(0, 0, 1), (0, 0)]),
        Monomial([(0, 0, 0), (2, 0)]),
        Monomial([(0, 0, 0), (0, 2)]),
    }
    # membership test agrees with the kernel computation degree by degree
    for D in [(1, 0), (0, 1), (1, 1), (2, 1), (3, 2)]:
        from_kernel = apolar_piece_dimension(F, D)
        from_ideal = sum(
            1
            for m in enumerate_monomials(F.shape, D)
            if contains_monomial(ideal, m)
        )
        assert from_kernel == from_ideal


def test_conciseness():
    shape = FactorShape([1, 1])
    # x0 y0 misses half the variables: not concise
    assert not is_concise(Tensor.monomial(shape, [(1, 0), (1, 0)]))
    # x0 x1 y0 y1 sees everything
    assert is_concise(Tensor.monomial(shape, [(1, 1), (1, 1)]))


def test_catalecticant_lower_bound_values():
    # monomial x^a on P^n: the best catalecticant picks the middle degree
    F = Tensor.monomial(FactorShape([3]), [(4, 4, 4, 3)])
    assert catalecticant_lower_bound(F) == 70
    # rank-1 tensor
    assert catalecticant_lower_bound(
        Tensor.monomial(FactorShape([2]), [(3, 0, 0)])
    ) == 1
    with pytest.raises(PreconditionError):
        catalecticant_lower_bound(Tensor.zero(FactorShape([1]), (1,)))


def test_monomial_catalecticant_bound_walks_no_degree_box(monkeypatch):
    # x0*x1 in each of ten factors of P^1: the box of degrees D <= L holds
    # 3^10 degrees, and the bound of a monomial reads none of their ranks
    calls = []
    rank = apolarity.catalecticant_rank
    monkeypatch.setattr(
        apolarity, "catalecticant_rank", lambda F, D: calls.append(D) or rank(F, D)
    )
    F = Tensor.monomial(FactorShape([1] * 10), [(1, 1)] * 10)
    assert catalecticant_lower_bound(F) == 2**10
    assert len(calls) < 100


def test_monomial_catalecticant_bound_matches_degree_box():
    # the product of the per-factor maxima is the maximum over the box
    rng = random.Random(20)
    for _ in range(300):
        factors = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
        blocks = [tuple(rng.randint(0, 3) for _ in range(n + 1)) for n in factors]
        if not any(map(any, blocks)):
            continue
        a = Monomial(blocks)
        box = max(
            monomial_catalecticant_rank(a, D)
            for D in itertools.product(*(range(l + 1) for l in a.degree))
        )
        assert catalecticant_lower_bound(Tensor.monomial(FactorShape(factors), blocks)) == box


def test_monomial_catalecticant_counts_are_the_product_coefficients():
    # a factor's count at d is the coefficient of x^d in prod (1 + ... + x^b),
    # multiplied out here term by term; the bound reads the middle degree
    # only, so it must equal the product of the largest coefficients
    rng = random.Random(24)
    for _ in range(200):
        factors = [rng.randint(0, 4) for _ in range(rng.randint(1, 3))]
        blocks = [tuple(rng.randint(0, 12) for _ in range(n + 1)) for n in factors]
        if not any(map(any, blocks)):
            continue
        largest = 1
        for block in blocks:
            poly = [1]
            for b in block:
                product = [0] * (len(poly) + b)
                for i, c in enumerate(poly):
                    for e in range(b + 1):
                        product[i + e] += c
                poly = product
            a = Monomial([block])
            assert [monomial_catalecticant_rank(a, (d,)) for d in range(len(poly))] == poly
            largest *= max(poly)
        F = Tensor.monomial(FactorShape(factors), blocks)
        assert catalecticant_lower_bound(F) == largest, blocks


@given(random_tensors())
@settings(max_examples=30, deadline=None)
def test_monomial_rank_fast_path_matches_matrix(F):
    # for monomial tensors the counting shortcut must agree with the matrix
    mon = next(iter(F.terms()))[0]
    G = Tensor(F.shape, F.degree, {mon: Fraction(1)})
    for D in _degrees_below(G.degree):
        assert monomial_catalecticant_rank(mon, D) == linalg.rank(catalecticant(G, D))


# ---------------------------------------------------------------------------
# JSON format
# ---------------------------------------------------------------------------

def test_tensor_json_round_trip():
    shape = FactorShape([2, 1])
    F = Tensor(
        shape,
        (2, 1),
        {
            Monomial([(2, 0, 0), (1, 0)]): Fraction(1),
            Monomial([(0, 1, 1), (0, 1)]): Fraction(-3, 2),
        },
    )
    data = tensor_to_json(F)
    assert data["convention"] == "divided"
    assert all(isinstance(t["num"], str) for t in data["terms"])
    assert tensor_from_json(data) == F


def test_tensor_json_plain_convention():
    # plain x0^2 x1 = 2! * divided x0^(2) x1
    data = {
        "shape": [1],
        "degree": [3],
        "convention": "plain",
        "terms": [{"exp": [[2, 1]], "num": "1", "den": "1"}],
    }
    F = tensor_from_json(data)
    assert F.coefficient(Monomial([(2, 1)])) == 2

"""Monomial and generator-presented graded ideals, and witness verification.

MonomialIdeal keeps a minimal generating set and supports the exact
combinatorial operations (pieces, intersection, saturation against the
irrelevant ideal one factor at a time, containment in an apolar ideal read
off the tensor's support).  GradedIdeal is a list of homogeneous generators
with degree tags; its graded pieces are computed per degree by exact row
reduction, with no Gröbner machinery, and each reduced piece is kept on the
ideal.

Saturation is exact for monomial ideals.  For graded ideals only a
degreewise defect probe is available: the subspaces (I : B^k)_D grow toward
the saturation degreewise, so any strict growth certifies that I is not
saturated, while finding none is inconclusive.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .apolarity import Tensor, poly_degree, poly_from_json, poly_row
from .errors import PreconditionError, ShapeMismatchError
from .ring import (
    FactorShape,
    Monomial,
    check_r_and_horizon,
    contract,
    degree_add,
    degree_is_effective,
    degree_sub,
    degrees_up_to,
    generic_hilbert,
    multiply,
    piece_dimension,
    positions,
)


def _minimalize(generators):
    """Drop every generator divisible by another; canonical grevlex order."""
    # filter in ascending total degree so divisors are seen before their
    # multiples; equal-degree distinct monomials never divide each other
    gens = sorted(set(generators), key=lambda m: (m.total_degree, m.grevlex_key()))
    kept = {}  # flat exponents -> generator: the caller checked that all fit one shape
    for g in gens:
        flat = g.flat()
        if not any(all(map(operator.le, h, flat)) for h in kept):
            kept[flat] = g
    return tuple(sorted(kept.values(), key=Monomial.grevlex_key))


class MonomialIdeal:
    """An ideal generated by monomials, stored via its minimal generators."""

    def __init__(self, shape: FactorShape, generators):
        self.shape = shape
        for g in generators:
            if not g.matches_shape(shape):
                raise ShapeMismatchError(f"generator {g} does not fit {shape.factors}")
        self.generators = _minimalize(generators)

    def is_zero(self) -> bool:
        return not self.generators

    def piece_dimension(self, D) -> int:
        """The number of monomials of degree D some generator divides, each
        compared as flat exponent tuples, as _minimalize compares them."""
        gens = [g.flat() for g in self.generators]
        return sum(
            any(all(map(operator.le, g, f)) for g in gens)
            for f in positions(self.shape, D)
        )

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.shape == other.shape
            and self.generators == other.generators
        )

    def __repr__(self):
        return f"MonomialIdeal({self.shape.factors}, {len(self.generators)} gens)"


class GradedIdeal:
    """An ideal presented by homogeneous generators tagged with multidegrees."""

    def __init__(self, shape: FactorShape, generators):
        # generators: iterable of (degree, poly) pairs
        self.shape = shape
        tagged = []
        for degree, poly in generators:
            poly = {m: Fraction(c) for m, c in dict(poly).items() if Fraction(c) != 0}
            if not poly:
                raise PreconditionError("zero polynomial cannot be an ideal generator")
            actual = poly_degree(poly)
            if shape.check_degree(degree) != actual:
                raise PreconditionError(
                    f"generator tagged {tuple(degree)} but is homogeneous of {actual}"
                )
            for m in poly:
                if not m.matches_shape(shape):
                    raise ShapeMismatchError(f"term {m} does not fit {shape.factors}")
            tagged.append((actual, poly))
        self.generators = tuple(tagged)
        # each generator's coprime int row, which every piece multiplies
        self._rows = [(D, poly_row(shape, D, poly)) for D, poly in tagged]
        self._bases = {}  # degree -> echelon rows of the piece

    def piece_rows(self, D) -> list:
        """Int rows spanning I_D over the grevlex basis of S_D: the multiples
        of each generator, its coefficients scaled to coprime integers."""
        D = self.shape.check_degree(D)
        rows = []
        for gen_degree, row in self._rows:
            shift = degree_sub(D, gen_degree)
            if degree_is_effective(shift):
                rows += multiply(self.shape, [row], gen_degree, shift)
        return rows

    def piece_basis(self, D) -> list:
        """Echelon int rows spanning I_D, reduced once per degree and kept,
        so the Hilbert function and the saturation probe share them."""
        D = self.shape.check_degree(D)
        if D not in self._bases:
            self._bases[D] = linalg.row_echelon(self.piece_rows(D))[0]
        return self._bases[D]

    def piece_dimension(self, D) -> int:
        return len(self.piece_basis(D))

    def __repr__(self):
        return f"GradedIdeal({self.shape.factors}, {len(self.generators)} gens)"


# ---------------------------------------------------------------------------
# Graded pieces and Hilbert functions
# ---------------------------------------------------------------------------

def hilbert_function(I, D) -> tuple:
    """(dim I_D, dim (S/I)_D); counting for monomial ideals, rank otherwise."""
    di = I.piece_dimension(D)
    return di, piece_dimension(I.shape, D) - di


# ---------------------------------------------------------------------------
# Intersection and saturation (monomial ideals: exact)
# ---------------------------------------------------------------------------

def _lcm(g: Monomial, h: Monomial) -> Monomial:
    return Monomial(
        tuple(
            tuple(max(e, f) for e, f in zip(gb, hb))
            for gb, hb in zip(g.exponents, h.exponents)
        )
    )


def intersect(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """Intersection of monomial ideals via pairwise lcms of generators."""
    if I.shape != J.shape:
        raise ShapeMismatchError("cannot intersect ideals on different shapes")
    if I.is_zero() or J.is_zero():
        return MonomialIdeal(I.shape, ())
    gens = [_lcm(g, h) for g in I.generators for h in J.generators]
    return MonomialIdeal(I.shape, gens)


def saturate(I: MonomialIdeal) -> MonomialIdeal:
    """(I : B^∞), the smallest saturated ideal containing I.

    B is the product of the irrelevant ideals m_j of the factors, so
    (I : B^∞) = ((I : m_1^∞) ... : m_w^∞), and (I : m_j^∞) is the
    intersection of the (I : x^∞) over the variables x of factor j, each
    generated by the generators of I with the exponent of x set to zero:
    one colon per variable, not one per monomial of degree (1, ..., 1)."""
    for j, a in enumerate(I.shape.factors):
        I = functools.reduce(
            intersect,
            [
                MonomialIdeal(I.shape, [_without(g, j, i) for g in I.generators])
                for i in range(a + 1)
            ],
        )
    return I


def _without(g: Monomial, j: int, i: int) -> Monomial:
    """g with the exponent of variable i of factor j set to zero."""
    blocks = list(g.exponents)
    blocks[j] = blocks[j][:i] + (0,) + blocks[j][i + 1 :]
    return Monomial(blocks)


# ---------------------------------------------------------------------------
# Containment in an apolar ideal (checked in degree L only)
# ---------------------------------------------------------------------------

def contained_in_apolar(I, F: Tensor) -> bool:
    """I ⊆ F^⊥.  A monomial m sends F to Σ_{m | a} c_a x^(a - m) over the
    support of F, whose terms are distinct, so a monomial ideal lies in F^⊥
    iff no generator divides a monomial of the support.  A graded ideal is
    checked in degree L = deg F: lower-degree elements annihilate F iff
    all their degree-L multiples do, and generators of degree not <= L
    annihilate F outright, as nothing of degree L minus theirs survives."""
    if not isinstance(I, (MonomialIdeal, GradedIdeal)):
        raise PreconditionError(f"unsupported ideal type {type(I).__name__}")
    if I.shape != F.shape:
        raise ShapeMismatchError("ideal and tensor shapes differ")
    if isinstance(I, MonomialIdeal):
        return not any(g.divides(m) for m, _ in F.terms() for g in I.generators)
    return not any(
        sum(x * F.row.get(k, 0) for k, x in row.items()) for row in I.piece_rows(F.degree)
    )


# ---------------------------------------------------------------------------
# Degreewise saturation-defect probe for graded ideals
# ---------------------------------------------------------------------------

def iterated_colon_piece(I: GradedIdeal, D, steps: int, _memo=None):
    """A basis of (I : B^steps)_D, as int rows over the grevlex basis of S_D,
    by the degreewise recursion
    V_k(D) = {f in S_D : f * b in V_{k-1}(D + (1,...,1)) for all B-generators b}."""
    shape = I.shape
    D = shape.check_degree(D)
    if _memo is None:
        _memo = {}
    key = (steps, D)
    if key in _memo:
        return _memo[key]

    if steps == 0:
        return I.piece_basis(D)

    ones = (1,) * shape.num_factors
    up = degree_add(D, ones)
    upper = iterated_colon_piece(I, up, steps - 1, _memo)
    # f in V iff f*b lands in span(upper) for every B-generator b, the
    # monomials of degree (1, ..., 1); membership in a span is vanishing
    # against the null space of its row matrix
    normals = linalg.kernel_basis(upper, piece_dimension(shape, up))
    rows = linalg.kernel_basis(contract(shape, normals, D, ones), piece_dimension(shape, D))
    _memo[key] = rows
    return rows


# the most colon steps k the saturation-defect probe tries
_SATURATION_STEPS = 3


def saturation_defect(I: GradedIdeal, max_total_degree: int):
    """Search for a degreewise witness that I is not saturated.

    Returns {"degree": D, "steps": k, "dim_ideal": a, "dim_colon": b} for the
    first (k, D) with dim (I : B^k)_D > dim I_D, scanning
    k = 1.._SATURATION_STEPS outer and D by ascending total degree inner;
    None when no defect shows, which proves nothing.
    """
    memo = {}
    for k in range(1, _SATURATION_STEPS + 1):
        for D in degrees_up_to(I.shape.num_factors, max_total_degree):
            base = iterated_colon_piece(I, D, 0, memo)
            grown = iterated_colon_piece(I, D, k, memo)
            if len(grown) > len(base):
                return {
                    "degree": D,
                    "steps": k,
                    "dim_ideal": len(base),
                    "dim_colon": len(grown),
                }
    return None


# ---------------------------------------------------------------------------
# Verification of an explicit ideal: a question about ideals alone
# ---------------------------------------------------------------------------

class VerificationReport(NamedTuple):
    r: int
    horizon: int
    rows: list  # per-degree dicts
    hilbert_ok: bool
    containment: bool
    saturation: dict
    passed: bool  # Hilbert function and containment; saturation is informational


def verify_candidate(I, F: Tensor, r: int, horizon: int | None = None):
    """Replay the move-fit conditions for an explicit ideal.

    Checks, for every multidegree of total degree <= horizon, that
    dim(S/I)_D = min(r, dim S_D), and that I sits inside the apolar ideal of
    F.  A candidate passes on these two; saturation is reported alongside
    (exactly for monomial ideals, by the degreewise colon probe otherwise)
    but a candidate need not be saturated.  An r or a horizon below 1 is
    refused, as search refuses it, and so is a horizon with over a million
    monomials up to it.
    """
    if I.shape != F.shape:
        raise ShapeMismatchError("ideal and tensor shapes differ")
    if horizon is None:
        horizon = sum(F.degree)
    check_r_and_horizon(r, horizon)
    # the degrees list C(horizon + N, N) monomials in all, for N variables, so they
    # are counted first; a monomial ideal reads a million in about 3 s (2 vCPUs)
    N = sum(F.shape.factors) + F.shape.num_factors
    if (count := math.comb(horizon + N, N)) > 10**6:
        raise PreconditionError(
            f"verify would read {count:,} monomials up to degree {horizon}, over "
            "the limit of 1,000,000; lower the horizon"
        )

    rows = []
    hilbert_ok = True
    sat_I = saturate(I) if isinstance(I, MonomialIdeal) else None
    for D in degrees_up_to(F.shape.num_factors, horizon):
        dim_s = piece_dimension(F.shape, D)
        dim_ideal, dim_quotient = hilbert_function(I, D)
        required_quotient = generic_hilbert(r, F.shape, D)
        row = {
            "degree": list(D),
            "dim_s": dim_s,
            "required_quotient": required_quotient,
            "actual_quotient": dim_quotient,
            "required_ideal": dim_s - required_quotient,
            "actual_ideal": dim_ideal,
            "ok": dim_quotient == required_quotient,
        }
        if sat_I is not None:
            row["saturation_quotient"] = hilbert_function(sat_I, D)[1]
        hilbert_ok = hilbert_ok and row["ok"]
        rows.append(row)

    containment = contained_in_apolar(I, F)

    if isinstance(I, MonomialIdeal):
        saturation = {"kind": "exact", "saturated": sat_I == I}
    else:
        defect = saturation_defect(I, max_total_degree=horizon)
        saturation = {
            "kind": "degreewise-probe",
            "saturated": False if defect is not None else None,
            "defect": defect,
        }

    return VerificationReport(
        r=r,
        horizon=horizon,
        rows=rows,
        hilbert_ok=hilbert_ok,
        containment=containment,
        saturation=saturation,
        passed=hilbert_ok and containment,
    )


# ---------------------------------------------------------------------------
# JSON format
# ---------------------------------------------------------------------------

def ideal_to_json(I) -> dict:
    """The monomial form, in which the CLI writes a search candidate."""
    if not isinstance(I, MonomialIdeal):
        raise PreconditionError(f"unsupported ideal type {type(I).__name__}")
    return {
        "shape": list(I.shape.factors),
        "monomial_generators": [list(map(list, g.exponents)) for g in I.generators],
    }


def ideal_from_json(data: dict):
    """A MonomialIdeal for `monomial_generators`, else a GradedIdeal.
    Precondition: the document passed ideal.schema.json; the constructors
    still check each generator against the shape and its degree tag."""
    shape = FactorShape(data["shape"])
    if "monomial_generators" in data:
        return MonomialIdeal(shape, [Monomial(e) for e in data["monomial_generators"]])
    return GradedIdeal(
        shape, [(g["degree"], poly_from_json(g["terms"])) for g in data["generators"]]
    )

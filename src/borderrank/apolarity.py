"""Apolarity: tensors, catalecticants, apolar pieces, conciseness.

A tensor F lives in the degree-L piece of the dual ring, which we treat as a
divided power algebra: the hook action of a ring monomial on a divided-power
monomial subtracts exponents with coefficient exactly 1 (never a multinomial
factor).  Inputs in the ordinary polynomial convention are converted on parse
by multiplying each coefficient with the factorial product of its exponents.

All kernels and ranks are exact: the tensor's coefficients are scaled once
to coprime integers, and the rows are reduced fraction-free with the pivot
always the first non-zero entry in grevlex column order.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property, lru_cache

from . import linalg
from .errors import PreconditionError, ShapeMismatchError
from .ring import (
    FactorShape,
    Monomial,
    MultiDegree,
    degree_is_effective,
    degree_le,
    degree_sub,
    contract,
    piece_dimension,
    positions,
)

# A polynomial is a dict {Monomial: Fraction}; zero coefficients are dropped.
Poly = dict


def poly_degree(p: Poly) -> MultiDegree:
    """The common multidegree of a homogeneous polynomial; error otherwise."""
    if not p:
        raise PreconditionError("the zero polynomial has no degree")
    degrees = {m.degree for m in p}
    if len(degrees) > 1:
        raise PreconditionError(f"inhomogeneous polynomial with degrees {degrees}")
    return degrees.pop()


class Tensor:
    """A partially symmetric tensor: sparse exact-rational coefficients on
    divided-power monomials of one fixed multidegree L."""

    def __init__(self, shape: FactorShape, degree, coefficients, allow_zero=False):
        self.shape = shape
        self.degree = shape.check_degree(degree)
        cleaned = {}
        for mon, coeff in dict(coefficients).items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if not mon.matches_shape(shape):
                raise ShapeMismatchError(f"term {mon} does not fit shape {shape.factors}")
            if mon.degree != self.degree:
                raise PreconditionError(
                    f"term {mon} has degree {mon.degree}, tensor degree is {self.degree}"
                )
            cleaned[mon] = coeff
        if not cleaned and not allow_zero:
            raise PreconditionError("zero tensor must be constructed via Tensor.zero")
        self._coeffs = cleaned

    @classmethod
    def zero(cls, shape: FactorShape, degree) -> "Tensor":
        return cls(shape, degree, {}, allow_zero=True)

    @classmethod
    def monomial(cls, shape: FactorShape, exponents, coeff=1) -> "Tensor":
        return cls(shape, Monomial(exponents).degree, {Monomial(exponents): coeff})

    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def is_monomial(self) -> bool:
        return len(self._coeffs) == 1

    def coefficient(self, mon: Monomial) -> Fraction:
        return self._coeffs.get(mon, Fraction(0))

    @cached_property
    def row(self) -> list:
        """poly_row of the coefficients over S_L, kept on the tensor once
        built, as every catalecticant of the tensor reads it."""
        return poly_row(self.shape, self.degree, self._coeffs)

    def terms(self):
        """(monomial, coefficient) pairs in descending grevlex order."""
        return tuple(
            (m, self._coeffs[m]) for m in sorted(self._coeffs, key=Monomial.grevlex_key)
        )

    def support_exponents(self) -> Monomial:
        """For a monomial tensor, its single divided-power monomial."""
        if not self.is_monomial:
            raise PreconditionError("tensor is not a monomial")
        return next(iter(self._coeffs))

    def __eq__(self, other):
        return (
            isinstance(other, Tensor)
            and self.shape == other.shape
            and self.degree == other.degree
            and self._coeffs == other._coeffs
        )

    def __hash__(self):
        return hash((self.shape, self.degree, frozenset(self._coeffs.items())))

    def __repr__(self):
        return f"Tensor(shape={self.shape.factors}, degree={self.degree}, terms={len(self._coeffs)})"


# ---------------------------------------------------------------------------
# Catalecticants
# ---------------------------------------------------------------------------

def poly_row(shape: FactorShape, D, poly: Poly) -> list:
    """The coefficients of a form of degree D over the grevlex basis of S_D,
    scaled by the one positive rational that makes them coprime ints."""
    pos = positions(shape, D)
    row = [0] * len(pos)
    for m, c in poly.items():
        row[pos[m.flat()]] = c
    return linalg.integral(row)


def catalecticant(F: Tensor, D) -> list:
    """Rows of the matrix of S_D -> dual_{L-D}, theta |-> theta ⌟ F, for
    0 <= D <= L.

    Row basis: monomials of S_D; column basis: divided-power monomials of
    degree L - D; both in descending grevlex.  entry(e, m) = c * F[e + m],
    an int, for the one positive rational c that makes F's coefficients
    coprime integers.  The transpose is the catalecticant at L - D.
    """
    D = F.shape.check_degree(D)
    if not (degree_is_effective(D) and degree_le(D, F.degree)):
        raise PreconditionError(f"catalecticant degree {D} is not between 0 and {F.degree}")
    return contract(F.shape, [F.row], degree_sub(F.degree, D), D)


def apolar_piece(F: Tensor, D) -> list:
    """Basis of F^⊥_D = ker(catalecticant at D), as primitive int rows over
    the grevlex basis of S_D, by the deterministic RREF construction.

    For effective D not <= L componentwise the piece is all of S_D (nothing
    of degree L - D survives): the matrix has no columns, so the identity
    rows come back.
    """
    D = F.shape.check_degree(D)
    if not degree_is_effective(D):
        raise PreconditionError(f"degree {D} is not effective")
    # the kernel of the map is the null space of the transpose, the catalecticant at L - D
    transposed = catalecticant(F, degree_sub(F.degree, D)) if degree_le(D, F.degree) else []
    return linalg.kernel_basis(transposed, piece_dimension(F.shape, D))


def apolar_piece_dimension(F: Tensor, D) -> int:
    """dim F^⊥_D without materializing the kernel basis."""
    D = F.shape.check_degree(D)
    dim = piece_dimension(F.shape, D)
    if not degree_le(D, F.degree):
        return dim
    return dim - catalecticant_rank(F, D)


@lru_cache(maxsize=None)
def _bounded_compositions_count(bounds, total: int) -> int:
    # number of e with 0 <= e_i <= bounds_i and sum e_i = total: the
    # coefficient of x^total in prod (1 + x + ... + x^b), each factor
    # multiplied in as a window sum over the prefix sums
    counts = [1] + [0] * total
    for b in bounds:
        prefix = [0, *itertools.accumulate(counts)]
        counts = [prefix[s + 1] - prefix[max(s - b, 0)] for s in range(total + 1)]
    return counts[total]


def monomial_catalecticant_rank(a: Monomial, D) -> int:
    """rank of the degree-D catalecticant of the monomial x^(a).

    The matrix is a partial permutation matrix, so the rank is the number of
    monomials e <= a componentwise with deg e = D: a bounded counting problem,
    solved per factor; none lies past a's own degree in some factor.
    """
    rank = 1
    for block, d in zip(a.exponents, D):
        if not 0 <= d <= sum(block):
            return 0
        rank *= _bounded_compositions_count(block, d)
    return rank


@lru_cache(maxsize=256)  # a bounds report reads each rank several times
def catalecticant_rank(F: Tensor, D) -> int:
    """rank of the degree-D catalecticant of F: a count for a monomial,
    exact row reduction otherwise."""
    if F.is_monomial:
        return monomial_catalecticant_rank(F.support_exponents(), D)
    return linalg.rank(catalecticant(F, D))


def is_concise(F: Tensor) -> bool:
    """True iff F^⊥ has no forms in any variable degree."""
    for j in range(F.shape.num_factors):
        unit = F.shape.unit_degree(j)
        if apolar_piece_dimension(F, unit) != 0:
            return False
    return True


def catalecticant_lower_bound(F: Tensor) -> int:
    """max over effective D <= L of rank(catalecticant at D); bounds border rank.

    For a monomial the rank at D is a product of per-factor counts (see
    monomial_catalecticant_rank), so its maximum is the product of their
    maxima, and the box of degrees is never walked.  The count of a factor
    of degree l at d is the coefficient of x^d in prod (1 + x + ... + x^b),
    a symmetric unimodal polynomial of degree l, so it is largest at
    d = l // 2."""
    if F.is_zero():
        raise PreconditionError("catalecticant bound needs a non-zero tensor")
    if F.is_monomial:
        return math.prod(
            _bounded_compositions_count(block, l // 2)
            for block, l in zip(F.support_exponents().exponents, F.degree)
        )
    return max(
        catalecticant_rank(F, D)
        for D in itertools.product(*(range(l + 1) for l in F.degree))
    )


# ---------------------------------------------------------------------------
# JSON format
# ---------------------------------------------------------------------------

def poly_from_json(terms) -> Poly:
    """The polynomial of a list of {exp, num, den} terms, repeated monomials
    summed.  Precondition: the terms passed their document's schema."""
    poly = {}
    for term in terms:
        m = Monomial(term["exp"])
        poly[m] = poly.get(m, 0) + Fraction(int(term["num"]), int(term["den"]))
    return poly


def tensor_from_json(data: dict) -> Tensor:
    """The tensor of a document.  Precondition: it passed tensor.schema.json;
    the constructor still checks that its terms fit its shape and degree."""
    coeffs = poly_from_json(data["terms"])
    if data["convention"] == "plain":
        # ordinary monomial x^a equals (prod a_i!) times the divided power x^(a)
        for m in coeffs:
            coeffs[m] *= math.prod(map(math.factorial, m.flat()))
    return Tensor(FactorShape(data["shape"]), data["degree"], coeffs, allow_zero=True)

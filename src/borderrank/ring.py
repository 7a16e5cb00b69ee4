"""Combinatorics of the multigraded polynomial ring of a product of
projective spaces.

The ambient variety is X = P^{a_1} x ... x P^{a_w}.  Its coordinate ring is a
polynomial ring with one block of variables per factor, graded by
Pic(X) = Z^w; the degree of every variable in block j is the j-th unit
vector.  This module holds the purely combinatorial layer: shapes,
multidegrees, monomials, graded-piece dimensions and enumeration, and the
grevlex order used everywhere downstream.  It is also the one place that
decides where a monomial, or a product of two, sits in a grevlex basis
(positions, product_table), and the one place that turns those products into
int rows (multiply, contract), each a {position: non-zero int} dict as linalg
reads it; the other modules read those tables and rows.
A basis is built as flat exponent tuples in order, never as Monomials to sort.

Variable order is factor-major: all variables of factor 0 first, then
factor 1, and so on.  Nothing in the mathematics forces a cross-factor
order, but fixing one makes the monomial order and all serialized output
deterministic.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from itertools import accumulate
from types import MappingProxyType
from typing import Sequence

from .errors import PreconditionError, ShapeMismatchError

# A multidegree is an element of Pic(X) = Z^w, stored as a plain tuple.
MultiDegree = tuple  # tuple[int, ...]

# Names for the variable blocks in the text format: a0,a1,... | b0,b1,... | ...
_BLOCK_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class FactorShape:
    """The product P^{a_1} x ... x P^{a_w}, recorded as (a_1, ..., a_w).

    Factor dimensions must be >= 0; a point factor P^0 has one variable.
    Immutable, so it can key caches; equal and hashed by value.
    """

    def __init__(self, factors: Sequence[int]):
        factors = tuple(int(a) for a in factors)
        if len(factors) == 0:
            raise ValueError("a product of projective spaces needs at least one factor")
        if any(a < 0 for a in factors):
            raise ValueError("factor dimensions must be >= 0")
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: FactorShape is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: FactorShape is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return f"FactorShape(factors={self.factors!r})"

    @property
    def num_factors(self) -> int:
        return len(self.factors)

    def unit_degree(self, factor: int) -> MultiDegree:
        """The multidegree of any variable in the given factor."""
        return tuple(1 if j == factor else 0 for j in range(len(self.factors)))

    def check_degree(self, D: Sequence[int]) -> MultiDegree:
        """Validate the length of D against this shape and return it as a tuple."""
        D = tuple(int(d) for d in D)
        if len(D) != len(self.factors):
            raise ShapeMismatchError(
                f"multidegree {D} has {len(D)} entries, shape {self.factors} has "
                f"{len(self.factors)} factors"
            )
        return D


class Monomial:
    """A monomial of the multigraded ring, as exponents grouped by factor.

    The same structure serves for divided-power monomials of the dual ring;
    the interpretation is up to the caller.  The multidegree is always
    recomputed from the exponents, never stored.  Immutable, so it can key
    dicts; equal and hashed by value.
    """

    def __init__(self, exponents: Sequence[Sequence[int]]):
        exps = tuple(tuple(int(e) for e in block) for block in exponents)
        if len(exps) == 0:
            raise ValueError("monomial needs at least one factor block")
        for block in exps:
            if len(block) == 0:
                raise ValueError("empty variable block in monomial")
            if any(e < 0 for e in block):
                raise ValueError(f"negative exponent in {exps}")
        object.__setattr__(self, "exponents", exps)  # tuple[tuple[int, ...], ...]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: Monomial is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: Monomial is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.exponents == other.exponents

    def __hash__(self):
        return hash(self.exponents)

    def __repr__(self):
        return f"Monomial(exponents={self.exponents!r})"

    @property
    def degree(self) -> MultiDegree:
        return tuple(sum(block) for block in self.exponents)

    @property
    def total_degree(self) -> int:
        return sum(sum(block) for block in self.exponents)

    def flat(self) -> tuple:
        """Exponents as one tuple in factor-major variable order."""
        return tuple(e for block in self.exponents for e in block)

    def matches_shape(self, shape: FactorShape) -> bool:
        return tuple(len(b) - 1 for b in self.exponents) == shape.factors

    def divides(self, other: "Monomial") -> bool:
        _check_same_structure(self, other)
        return all(
            e <= f
            for b1, b2 in zip(self.exponents, other.exponents)
            for e, f in zip(b1, b2)
        )

    def grevlex_key(self):
        """Sort key: ascending by this key = descending grevlex."""
        return (-self.total_degree, tuple(reversed(self.flat())))


def _check_same_structure(m1: Monomial, m2: Monomial) -> None:
    if tuple(len(b) for b in m1.exponents) != tuple(len(b) for b in m2.exponents):
        raise ShapeMismatchError(f"monomials {m1} and {m2} live on different shapes")


# ---------------------------------------------------------------------------
# Degree arithmetic helpers
# ---------------------------------------------------------------------------

def degree_add(D: MultiDegree, E: MultiDegree) -> MultiDegree:
    return tuple(d + e for d, e in zip(D, E))


def degree_sub(D: MultiDegree, E: MultiDegree) -> MultiDegree:
    return tuple(d - e for d, e in zip(D, E))


def degree_is_effective(D: MultiDegree) -> bool:
    return all(d >= 0 for d in D)


def degree_le(D: MultiDegree, E: MultiDegree) -> bool:
    """Componentwise D <= E."""
    return all(d <= e for d, e in zip(D, E))


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------

def piece_dimension(shape: FactorShape, D: Sequence[int]):
    """dim of the graded piece S_D: the product of binomials C(a_j + d_j, a_j).

    Degrees with any negative entry give 0 rather than an error, though no
    caller in the package passes one (catalecticant checks L - D first).
    Exact big-integer arithmetic.
    """
    D = shape.check_degree(D)
    dim = 1
    for a, d in zip(shape.factors, D):
        if d < 0:
            return 0
        dim *= math.comb(a + d, a)
    return dim


@lru_cache(maxsize=None)
def _compositions(total: int, parts: int) -> tuple:
    """All tuples of `parts` non-negative ints summing to `total`."""
    if parts == 1:
        return ((total,),)
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return tuple(out)


def degrees_up_to(num_factors: int, max_total: int) -> list:
    """All multidegrees with num_factors entries and total degree at most
    max_total, ascending in total degree, then lexicographically."""
    return [
        D for total in range(max_total + 1) for D in _compositions(total, num_factors)
    ]


def generic_hilbert(r: int, shape: FactorShape, D) -> int:
    """dim(S/I)_D forced on any ideal of a border-rank-r limit scheme."""
    return min(r, piece_dimension(shape, D))


def _effective_degree(shape: FactorShape, D: Sequence[int]) -> MultiDegree:
    D = shape.check_degree(D)
    if not degree_is_effective(D):
        raise ValueError(f"cannot enumerate monomials of ineffective degree {D}")
    return D


@lru_cache(maxsize=None)
def _enumerate_cached(factors: tuple, D: tuple) -> tuple:
    cuts = list(accumulate((a + 1 for a in factors), initial=0))
    return tuple(
        Monomial([f[i:j] for i, j in zip(cuts, cuts[1:])])
        for f in _positions_cached(factors, D)
    )


def enumerate_monomials(shape: FactorShape, D: Sequence[int]) -> tuple:
    """All monomials of multidegree D, descending in grevlex: the basis that
    positions and product_table index, as Monomials.

    The result length always equals piece_dimension(shape, D).
    """
    return _enumerate_cached(shape.factors, _effective_degree(shape, D))


@lru_cache(maxsize=None)
def _positions_cached(factors: tuple, D: tuple) -> MappingProxyType:
    # descending grevlex at one total degree ascends in the reversed tuple: the last
    # block varies slowest, each through the reversals of the (lex) _compositions
    basis = [()]
    for a, d in zip(factors, D):
        basis = [f + c[::-1] for c in _compositions(d, a + 1) for f in basis]
    return MappingProxyType(dict(zip(basis, range(len(basis)))))


def positions(shape: FactorShape, D: Sequence[int]) -> MappingProxyType:
    """The position of every monomial of multidegree D in the grevlex basis
    of S_D, keyed by its flat exponent tuple; the keys come in basis order.
    Cached, so it is a read-only view."""
    return _positions_cached(shape.factors, _effective_degree(shape, D))


@lru_cache(maxsize=None)
def _product_table_cached(factors: tuple, D: tuple, E: tuple) -> tuple:
    target = _positions_cached(factors, degree_add(D, E))
    left = _positions_cached(factors, D)
    return tuple(
        tuple(target[tuple(map(operator.add, f, u))] for f in left)
        for u in _positions_cached(factors, E)
    )


def product_table(shape: FactorShape, D: Sequence[int], E: Sequence[int]) -> tuple:
    """table[u][p]: the position in S_{D+E} of monomial p of S_D times
    monomial u of S_E, all positions in the flat grevlex bases."""
    return _product_table_cached(
        shape.factors, _effective_degree(shape, D), _effective_degree(shape, E)
    )


def multiply(shape: FactorShape, rows, D, E) -> list:
    """Int rows over S_{D+E}: each int row over S_D times each monomial of
    S_E, in that order (rows outer, the grevlex basis of S_E inner)."""
    table = product_table(shape, D, E)
    return [{shifted[p]: c for p, c in row.items()} for row in rows for shifted in table]


def contract(shape: FactorShape, vectors, D, E) -> list:
    """Int rows over S_D: each vector v over S_{D+E} read at the products of
    each monomial u of S_E with the basis of S_D, in the order of multiply.
    Row (v, u) is u ⌟ v, read as a tensor; zero iff v is orthogonal to u S_D."""
    table = product_table(shape, D, E)
    return [
        {p: x for p, i in enumerate(shifted) if (x := v.get(i))}
        for v in vectors
        for shifted in table
    ]


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def monomial_to_text(m: Monomial) -> str:
    """Render like `a0^2*a1|b0^3`; factors separated by `|`, trivial factor `1`."""
    if len(m.exponents) > len(_BLOCK_LETTERS):
        raise PreconditionError(
            f"the text format names at most 26 factors, got {len(m.exponents)}"
        )
    segments = []
    for j, block in enumerate(m.exponents):
        letter = _BLOCK_LETTERS[j]
        parts = []
        for i, e in enumerate(block):
            if e == 1:
                parts.append(f"{letter}{i}")
            elif e > 1:
                parts.append(f"{letter}{i}^{e}")
        segments.append("*".join(parts) if parts else "1")
    return "|".join(segments)

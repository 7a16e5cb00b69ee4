"""Extremal Hilbert-function growth in one block of variables.

Two classical ingredients, all exact integer arithmetic:

* the Macaulay decomposition of an integer r in degree d and the Macaulay
  exponent r^<d>, which caps how much the codimension of a subspace of S_d
  can grow when multiplied into S_{d+1} (grevlex lex-segments attain it);
* the Lex-bar bound for a direct sum of graded pieces S_{d_1} + ... + S_{d_j}:
  the extremal configuration empties the smallest degrees first, and the
  maximal codimension growth is the sum of per-summand Macaulay exponents.

Degenerate binomials follow the C(a, i) = 0 for a < i convention, so the
all-degenerate decomposition of r = 0 is representable.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import BorderRankError, PreconditionError


class MacaulayDecomposition(NamedTuple):
    """r = sum C(a_i, i) with a_d > a_{d-1} > ... > a_1 >= 0 (unique)."""

    r: int
    d: int
    coefficients: tuple  # (a_d, a_{d-1}, ..., a_1)

    def exponent(self) -> int:
        """The Macaulay exponent r^<d> = sum C(a_i + 1, i + 1)."""
        return sum(
            math.comb(a + 1, i + 1)
            for a, i in zip(self.coefficients, range(self.d, 0, -1))
        )

    def to_json(self) -> dict:
        return {**self._asdict(), "coefficients": list(self.coefficients),
                "exponent": self.exponent()}


def macaulay_coefficients(r: int, d: int) -> MacaulayDecomposition:
    """Greedy Macaulay decomposition of r in degree d.

    a_d is the largest a with C(a, d) <= remaining, then descend through the
    indices.  Each a_i is found by doubling a bound past it, then bisecting,
    so r = 10^12 at d = 1 takes some 80 binomials, not 10^12.  Strict
    decrease of the coefficients is automatic for the greedy choice; it is
    checked anyway since everything downstream relies on it.
    """
    if r < 0 or d < 1:
        raise PreconditionError(f"need r >= 0 and d >= 1, got r={r}, d={d}")
    coefficients = []
    remaining = r
    for i in range(d, 0, -1):
        # C(lo, i) <= remaining < C(hi, i); C(i-1, i) = 0 is the degenerate floor
        lo, hi = i - 1, i
        while math.comb(hi, i) <= remaining:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if math.comb(mid, i) <= remaining else (lo, mid)
        coefficients.append(lo)
        remaining -= math.comb(lo, i)
    if remaining != 0 or any(x <= y for x, y in zip(coefficients, coefficients[1:])):
        raise BorderRankError(
            f"greedy Macaulay decomposition of r={r} in degree {d} failed: "
            f"coefficients {coefficients}, remainder {remaining}"
        )
    return MacaulayDecomposition(r=r, d=d, coefficients=tuple(coefficients))


def macaulay_exponent(r: int, d: int) -> int:
    """r^<d>: the maximal growth dim->codim bound from degree d to d + 1."""
    return macaulay_coefficients(r, d).exponent()


class LexBarProfile(NamedTuple):
    """The extremal fill of codimension r across a direct sum of pieces.

    degrees are ascending; codims[i] is how much of summand i the Lex-bar
    configuration removes.  Smallest degrees are emptied first: there is an
    index i0 with codims[i] = dim S_{d_i} before it, codims[i] = 0 after it,
    and a single partial summand in between.
    """

    degrees: tuple
    n: int
    codims: tuple
    r: int

    def growth(self) -> int:
        """Maximal codimension of W * S_1 inside the shifted direct sum."""
        return sum(
            macaulay_exponent(c, d) if d >= 1 else _point_growth(c, self.n)
            for c, d in zip(self.codims, self.degrees)
        )

    def to_json(self) -> dict:
        return {**self._asdict(), "degrees": list(self.degrees),
                "codims": list(self.codims), "growth": self.growth()}


def _point_growth(c: int, n: int) -> int:
    # summand of degree 0 is one-dimensional: emptied (c=1) it kills all of
    # S_1, untouched (c=0) it grows fully
    return (n + 1) if c == 1 else 0


def lexbar_profile(degrees, n: int, r: int) -> LexBarProfile:
    """Distribute codimension r over summands, emptying smallest degrees first."""
    degrees = tuple(int(d) for d in degrees)
    if n < 0:
        raise PreconditionError(f"n must be >= 0, got {n}")
    if any(d < 0 for d in degrees):
        raise PreconditionError(f"summand degrees must be >= 0, got {degrees}")
    if list(degrees) != sorted(degrees):
        raise PreconditionError(f"summand degrees must be ascending, got {degrees}")
    dims = [math.comb(n + d, n) for d in degrees]
    if r < 0 or r > sum(dims):
        raise PreconditionError(f"codimension r={r} out of range 0..{sum(dims)}")
    codims = []
    remaining = r
    for dim in dims:
        take = min(dim, remaining)
        codims.append(take)
        remaining -= take
    return LexBarProfile(degrees=degrees, n=n, codims=tuple(codims), r=r)


def lexbar_growth(degrees, n: int, r: int) -> int:
    """Maximal growth of codimension r from ⊕ S_{d_i} to ⊕ S_{d_i + 1}.

    Closed form: emptied summands of degree d contribute dim S_{d+1} (which
    equals the Macaulay exponent of the full codimension), the single partial
    summand contributes the Macaulay exponent of its residual codimension,
    full summands contribute 0.
    """
    return lexbar_profile(degrees, n, r).growth()

"""Reference implementations the tests compare package code against.

None of these is reached by the CLI or by the library example in the
README, so they live with the tests: row reduction on dense int rows, the
hook action on tensors, the apolar ideal of a monomial by its generators,
the grevlex basis by sorting Monomials, the products and contractions of
rows by multiplying Monomials, membership in a monomial ideal and its
degree-D piece by Monomial.divides, containment of a monomial ideal in an
apolar ideal by listing its degree-L piece, the tensor and graded-ideal
JSON writers, minimal generator counts of presented ideals and of ideals
known by their pieces, the minimal generators of a monomial ideal by
pairwise division, the colon (I : m) and (I : B) of a monomial ideal, its
saturation as the fixpoint of I -> (I : B) and the test for it, grevlex
lex-segments, the greedy Macaulay decomposition in unit steps, the text
parser for monomials, single variables and products of monomials, and the
move-fit piece enumerator without look-ahead and the entry test it is
filtered by.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product
from math import comb, gcd

from borderrank import linalg
from borderrank.apolarity import Tensor, poly_degree
from borderrank.errors import ParseError, PreconditionError, ShapeMismatchError
from borderrank.ideals import GradedIdeal, MonomialIdeal, intersect
from borderrank.movefit import _bits, _image
from borderrank.ring import (
    _BLOCK_LETTERS,
    FactorShape,
    _compositions,
    Monomial,
    degree_add,
    degree_is_effective,
    degree_sub,
    enumerate_monomials,
    multiply,
    positions,
    product_table,
)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------

def dense_row_echelon(rows):
    """linalg.row_echelon as it was on dense rows of ints: the same
    fraction-free steps, each touching every column, so its echelon rows,
    their signs and its pivots are the exact reference."""

    def primitive(row):
        g = gcd(*row)
        return [x // g for x in row] if g > 1 else row

    echelon = []
    pivots = []
    for row in rows:
        row = primitive(row)
        # eliminate against existing pivots, in increasing pivot column
        for erow, col in zip(echelon, pivots):
            c = row[col]
            if c:
                p = erow[col]
                row = primitive([p * x - c * y for x, y in zip(row, erow)])
        # find the new pivot, if any
        for col, value in enumerate(row):
            if value:
                pos = 0
                while pos < len(pivots) and pivots[pos] < col:
                    pos += 1
                echelon.insert(pos, row)
                pivots.insert(pos, col)
                break
    return echelon, pivots


# ---------------------------------------------------------------------------
# Ring
# ---------------------------------------------------------------------------

def variable(shape: FactorShape, factor: int, index: int) -> Monomial:
    """The single variable (factor, index) as a monomial."""
    exps = [[0] * (a + 1) for a in shape.factors]
    exps[factor][index] = 1
    return Monomial(exps)


def enumerate_by_sorting(shape: FactorShape, D) -> tuple:
    """The monomials of multidegree D as ring.enumerate_monomials once built
    them: every product of one composition per factor, as a Monomial, sorted
    by Monomial.grevlex_key."""
    blocks = [_compositions(d, a + 1) for a, d in zip(shape.factors, D)]
    return tuple(sorted(map(Monomial, iter_product(*blocks)), key=Monomial.grevlex_key))


def times(m: Monomial, n: Monomial) -> Monomial:
    """The product of two monomials on one shape."""
    if [len(b) for b in m.exponents] != [len(b) for b in n.exponents]:
        raise ShapeMismatchError(f"monomials {m} and {n} live on different shapes")
    return Monomial([[e + f for e, f in zip(b, c)] for b, c in zip(m.exponents, n.exponents)])


def multiply_by_times(shape: FactorShape, rows, D, E) -> list:
    """ring.multiply by Monomials: each row over S_D times each monomial of
    S_E, every product placed by its position in S_{D+E}."""
    target = positions(shape, degree_add(D, E))
    basis = enumerate_monomials(shape, D)
    products = []
    for row in rows:
        for u in enumerate_monomials(shape, E):
            product = [0] * len(target)
            for m, c in zip(basis, row):
                product[target[times(m, u).flat()]] += c
            products.append(product)
    return products


def contract_by_times(shape: FactorShape, vectors, D, E) -> list:
    """ring.contract by Monomials: each vector over S_{D+E} read, for each
    monomial u of S_E, at u times each monomial of S_D."""
    source = positions(shape, degree_add(D, E))
    basis = enumerate_monomials(shape, D)
    return [
        [v[source[times(m, u).flat()]] for m in basis]
        for v in vectors
        for u in enumerate_monomials(shape, E)
    ]


_VAR_RE = re.compile(r"^([a-z])(\d+)(?:\^(\d+))?$")


def monomial_from_text(shape: FactorShape, text: str) -> Monomial:
    """Parse the output of monomial_to_text back, against a known shape."""
    segments = text.strip().split("|")
    if len(segments) != shape.num_factors:
        raise ParseError(
            f"monomial {text!r} has {len(segments)} factor segments, shape has "
            f"{shape.num_factors}"
        )
    exps = [[0] * (a + 1) for a in shape.factors]
    for j, segment in enumerate(segments):
        segment = segment.strip()
        if segment == "1":
            continue
        for token in segment.split("*"):
            match = _VAR_RE.match(token.strip())
            if match is None:
                raise ParseError(f"bad variable token {token!r} in {text!r}")
            letter, index, power = match.groups()
            if letter != _BLOCK_LETTERS[j]:
                raise ParseError(
                    f"variable {token!r} does not belong to factor {j} in {text!r}"
                )
            i = int(index)
            if i >= len(exps[j]):
                raise ParseError(f"variable index out of range in {text!r}")
            exps[j][i] += int(power) if power is not None else 1
    return Monomial(exps)


# ---------------------------------------------------------------------------
# Apolarity
# ---------------------------------------------------------------------------

def hook(theta: Monomial, mon: Monomial):
    """theta ⌟ x^(a): exponent subtraction, coefficient exactly 1.

    Returns the divided-power monomial x^(a - e), or None when any exponent
    underflows.
    """
    if tuple(len(b) for b in theta.exponents) != tuple(len(b) for b in mon.exponents):
        raise ShapeMismatchError("hook operands live on different shapes")
    blocks = []
    for tb, mb in zip(theta.exponents, mon.exponents):
        block = tuple(m - t for t, m in zip(tb, mb))
        if any(e < 0 for e in block):
            return None
        blocks.append(block)
    return Monomial(blocks)


def hook_tensor(theta, F: Tensor) -> Tensor:
    """Bilinear extension of the hook: (theta ⌟ F)(psi) = F(theta * psi).

    theta may be a Monomial or a homogeneous {Monomial: coefficient} dict.
    """
    if isinstance(theta, Monomial):
        theta = {theta: Fraction(1)}
    D = poly_degree(theta)
    if len(D) != F.shape.num_factors:
        raise ShapeMismatchError("operator and tensor shapes differ")
    result = {}
    for tmon, tcoeff in theta.items():
        tcoeff = Fraction(tcoeff)
        for fmon, fcoeff in F._coeffs.items():
            hit = hook(tmon, fmon)
            if hit is not None:
                result[hit] = result.get(hit, Fraction(0)) + tcoeff * fcoeff
    result = {m: c for m, c in result.items() if c != 0}
    target = degree_sub(F.degree, D)
    return Tensor(F.shape, target, result, allow_zero=True)


def apolar_of_monomial(F: Tensor):
    """F^⊥ of a monomial x^(a): the ideal (alpha_i^(a_i + 1) for every i)."""
    if not F.is_monomial:
        raise PreconditionError("apolar_of_monomial needs a monomial tensor")
    a = F.support_exponents()
    gens = []
    for j, block in enumerate(a.exponents):
        for i, e in enumerate(block):
            exps = [[0] * len(b) for b in a.exponents]
            exps[j][i] = e + 1
            gens.append(Monomial(exps))
    return MonomialIdeal(F.shape, gens)


def tensor_to_json(F: Tensor) -> dict:
    terms = []
    for mon, coeff in F.terms():
        terms.append(
            {
                "exp": list(map(list, mon.exponents)),
                "num": str(coeff.numerator),
                "den": str(coeff.denominator),
            }
        )
    return {
        "shape": list(F.shape.factors),
        "degree": list(F.degree),
        "convention": "divided",
        "terms": terms,
    }


# ---------------------------------------------------------------------------
# Ideals
# ---------------------------------------------------------------------------

def graded_ideal_to_json(I: GradedIdeal) -> dict:
    gens = []
    for degree, poly in I.generators:
        terms = [
            {
                "exp": list(map(list, m.exponents)),
                "num": str(c.numerator),
                "den": str(c.denominator),
            }
            for m, c in sorted(poly.items(), key=lambda mc: mc[0].grevlex_key())
        ]
        gens.append({"degree": list(degree), "terms": terms})
    return {"shape": list(I.shape.factors), "generators": gens}


def contains_monomial(I: MonomialIdeal, m: Monomial) -> bool:
    """Whether some generator of I divides m."""
    return any(g.divides(m) for g in I.generators)


def monomial_piece(I: MonomialIdeal, D) -> tuple:
    """All degree-D monomials divisible by some generator, grevlex order."""
    D = I.shape.check_degree(D)
    return tuple(m for m in enumerate_monomials(I.shape, D) if contains_monomial(I, m))


def contained_in_apolar_by_listing(I: MonomialIdeal, F: Tensor) -> bool:
    """I ⊆ F^⊥ as ideals.contained_in_apolar once decided it for a monomial
    ideal: every monomial of I in degree L = deg F has coefficient 0 in F."""
    return all(F.coefficient(m) == 0 for m in monomial_piece(I, F.degree))


def piece_generator_count(shape: FactorShape, D, piece_rows) -> int:
    """Number of minimal generators in degree D of the ideal whose piece in
    each degree E is spanned by the linearly independent rows piece_rows(E),
    coefficient vectors over the grevlex basis of S_E: the reference for the
    generator count of bounds.minimal_border_rank_generator_test."""
    D = shape.check_degree(D)
    dim_piece = len(piece_rows(D))
    product_rows = []
    for j in range(shape.num_factors):
        lower = degree_sub(D, shape.unit_degree(j))
        if degree_is_effective(lower):
            product_rows += multiply(shape, piece_rows(lower), lower, shape.unit_degree(j))
    return dim_piece - linalg.rank(product_rows)


def minimal_generator_count(I, D) -> int:
    """Number of minimal generators of I in degree D:
    dim I_D - dim(sum over variables of I_{D - deg var} * var).

    I is a MonomialIdeal or a GradedIdeal; for an ideal known by its pieces,
    such as an apolar ideal, use piece_generator_count."""
    shape = I.shape
    D = shape.check_degree(D)
    if isinstance(I, GradedIdeal):
        return piece_generator_count(
            shape, D, lambda E: linalg.row_echelon(I.piece_rows(E))[0]
        )
    if not isinstance(I, MonomialIdeal):
        raise PreconditionError(f"unsupported ideal type {type(I).__name__}")
    dim_piece = len(monomial_piece(I, D))
    products = set()
    for j in range(shape.num_factors):
        unit = shape.unit_degree(j)
        lower = degree_sub(D, unit)
        if not degree_is_effective(lower):
            continue
        pos = positions(shape, lower)
        lower_positions = [pos[m.flat()] for m in monomial_piece(I, lower)]
        for shifted in product_table(shape, lower, unit):
            products.update(shifted[p] for p in lower_positions)
    return dim_piece - len(products)


def minimalize_by_divides(generators) -> tuple:
    """The minimal generators in canonical grevlex order, by
    `Monomial.divides` on every pair kept so far."""
    gens = sorted(set(generators), key=lambda m: (m.total_degree, m.grevlex_key()))
    kept = []
    for g in gens:
        if not any(h.divides(g) for h in kept):
            kept.append(g)
    kept.sort(key=Monomial.grevlex_key)
    return tuple(kept)


def colon(I: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    """(I : m): each generator drops to max(g_i - m_i, 0), then minimalize."""
    gens = []
    for g in I.generators:
        blocks = tuple(
            tuple(max(e - f, 0) for e, f in zip(gb, mb))
            for gb, mb in zip(g.exponents, m.exponents)
        )
        gens.append(Monomial(blocks))
    return MonomialIdeal(I.shape, gens)


def colon_irrelevant(I: MonomialIdeal) -> MonomialIdeal:
    """(I : B) as the intersection of (I : b) over the generators b of B,
    the monomials of degree (1, ..., 1): one variable from each factor."""
    result = None
    for b in enumerate_monomials(I.shape, (1,) * I.shape.num_factors):
        piece = colon(I, b)
        result = piece if result is None else intersect(result, piece)
    return result


def saturate_by_colons(I: MonomialIdeal) -> MonomialIdeal:
    """The saturation of I as the fixpoint of I -> (I : B)."""
    current = I
    while True:
        bigger = colon_irrelevant(current)
        if bigger == current:
            return current
        current = bigger


def is_saturated(I: MonomialIdeal) -> bool:
    """I == (I : B)."""
    return colon_irrelevant(I) == I


# ---------------------------------------------------------------------------
# Macaulay
# ---------------------------------------------------------------------------

def lex_segment(n: int, d: int, r: int) -> tuple:
    """The grevlex lex-segment of codimension r in S_d on P^n.

    Returns the last dim S_d - r monomials of S_d in descending grevlex
    order, i.e. the full list with the first r monomials removed.
    """
    shape = FactorShape((n,))
    mons = enumerate_monomials(shape, (d,))
    if r < 0 or r > len(mons):
        raise PreconditionError(
            f"codimension r={r} out of range 0..{len(mons)} for n={n}, d={d}"
        )
    return mons[r:]


def macaulay_coefficients_by_unit_steps(r: int, d: int) -> tuple:
    """(a_d, ..., a_1) of the greedy Macaulay decomposition of r in degree
    d, each a_i raised one step at a time from the degenerate floor i - 1
    while C(a_i + 1, i) still fits in what is left of r."""
    coefficients = []
    for i in range(d, 0, -1):
        a = i - 1
        while comb(a + 1, i) <= r:
            a += 1
        coefficients.append(a)
        r -= comb(a, i)
    return tuple(coefficients)


# ---------------------------------------------------------------------------
# Move-fit
# ---------------------------------------------------------------------------

def take_skip_walk(plan, carried, k):
    """The plain take/skip walk over the targets of level k one degree up:
    the only cut is a target that already overflows with the bits taken so
    far.  Yields each piece with its images in those targets."""
    mask, targets, _, _ = plan.level(k)
    targets = targets[: len(plan.higher[k])]
    M = carried[k]
    images = []
    for t, table, cap in targets:
        img = carried[t] | _image(M, table)
        if img.bit_count() > cap:
            return
        images.append(img)
    free = list(_bits(mask & ~M))
    need = plan.reqs[k] - M.bit_count()
    # the entry at depth d is (i, piece, images) with d bits chosen, all
    # below free[i]; the branch that skips free[i] waits below the one
    # that takes it
    stack = [(0, M, images)]
    while stack:
        i, piece, images = stack.pop()
        d = len(stack)
        if d == need:
            yield piece, images
            continue
        if i > len(free) - need + d:
            continue  # too few free bits left
        stack.append((i + 1, piece, images))
        p = free[i]
        grown = []
        for (t, table, cap), img in zip(targets, images):
            img |= table[p]
            if img.bit_count() > cap:
                break
            grown.append(img)
        else:
            stack.append((i + 1, piece | 1 << p, grown))


@lru_cache(maxsize=None)
def _product_masks(shape, D, E):
    """masks[p]: the positions in S_{D+E} of monomial p of S_D times every
    monomial of S_E, read from ring.product_table."""
    rows = product_table(shape, D, E)
    return [sum({1 << row[p] for row in rows}) for p in range(len(rows[0]))]


def shifted(plan, mask, t, u):
    """The products of the monomials of mask at level t with every monomial
    of degree u - t, as a mask at level u."""
    d = plan.degrees[t]
    return _image(mask, _product_masks(plan.shape, d, degree_sub(plan.degrees[u], d)))


def carried_after(plan, carried, k, images):
    """carried as movefit's assign leaves it for the next level, after a
    piece at level k with these images."""
    after = list(carried)
    for t, img in zip(plan.higher[k], images):
        after[t] = img
    return after


def entry_overflows(plan, carried, t):
    """Whether level t fails its entry test on carried: the shifts of its
    mandatory set carried[t], joined to carried[u], overflow some degree u
    one higher."""
    return any(
        (carried[u] | shifted(plan, carried[t], t, u)).bit_count() > plan.reqs[u]
        for u in plan.higher[t]
    )


def take_skip_fitting(plan, carried, k):
    """The pieces of movefit's _Searcher.fitting with no symmetry, with
    their images one degree up, found by the plain take/skip walk and kept
    when the levels one degree up, entered in order with no more than their
    mandatory sets, all pass their entry tests.  Cuts are not counted."""
    for piece, images in take_skip_walk(plan, carried, k):
        after = carried_after(plan, carried, k, images)
        for t in sorted(plan.higher[k]):
            if entry_overflows(plan, after, t):
                break
            for u in plan.higher[t]:
                after[u] |= shifted(plan, after[t], t, u)
        else:
            yield piece, images

"""Border-rank bounds for monomials, and necessary tests for minimal
border rank of general tensors.

Lower bounds: the catalecticant bound, and the disjoint-module bound that
plays the Lex-bar growth cap against the required codimension jump between
two consecutive degrees.  Upper bound: the toric-chart bound (drop one
variable per factor).  On P^1, P^2 and P^2 x (P^1)^k the two sides meet and
the border rank of a monomial is known in closed form.

The disjoint-module rule implemented here is slightly sharper than a bare
growth comparison: when a generator module enters at degree d+1 that was
absent at degree d (some exponent a_j equals d), its single new monomial
alpha_j^(d+1) enlarges the reachable codimension by exactly one, so the
threshold is lexbar_growth + #{j : a_j = d}.  Without that term the rule
would overreach on monomials with one exponent equal to the probe degree.
"""

from __future__ import annotations

import collections
from functools import lru_cache

from . import linalg, macaulay
from .apolarity import (
    Tensor,
    apolar_piece,
    apolar_piece_dimension,
    catalecticant_lower_bound,
    is_concise,
)
from .errors import BorderRankError, PreconditionError, UnsupportedShapeError
from .ring import FactorShape, Monomial, degree_sub, generic_hilbert, multiply, piece_dimension


class BoundReport(collections.namedtuple("BoundReport", [
    "lower",
    "lower_provenance",  # catalecticant | disjoint-module | closed-form
    "lower_witness",
    "upper",  # None for tensors where no upper bound is implemented
    "upper_provenance",  # chart | closed-form | none
    "upper_witness",
    "components",  # every bound that was computed, for inspection
])):
    """A certified sandwich lower <= borderrank <= upper, with witnesses."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.upper is not None and self.lower > self.upper:
            raise BorderRankError(
                f"bound sandwich inverted: lower {self.lower} > upper {self.upper}"
            )
        return self


def _monomial_exponents(F: Tensor) -> Monomial:
    if not F.is_monomial:
        raise PreconditionError("this bound is only defined for monomial tensors")
    return F.support_exponents()


def upper_bound_monomial(F: Tensor):
    """Toric chart bound: drop the largest exponent in each factor, multiply
    the remaining (exponent + 1).  Returns (value, witness)."""
    a = _monomial_exponents(F)
    value = 1
    dropped = []
    for j, block in enumerate(a.exponents):
        keep = max(range(len(block)), key=lambda i: block[i])
        dropped.append({"factor": j, "index": keep, "exponent": block[keep]})
        for i, e in enumerate(block):
            if i != keep:
                value *= e + 1
    return value, {"dropped": dropped}


def disjoint_module_obstruction(F: Tensor, r: int, max_degree: int):
    """The disjoint-module growth rule at rank r, for a monomial on one
    projective space.

    At a degree d <= max_degree where the apolar pieces split as a direct
    sum of shifted polynomial modules, any move-fit ideal for r would need
    codimension c_d inside the apolar piece at d and c_{d+1} at d+1.  If
    c_{d+1} exceeds the maximal reachable growth, no such ideal exists and
    br(F) > r.  Returns the witness for the first such d, or None.  Degrees
    with c_d < 0 are skipped: there the catalecticant already rules r out.
    """
    a = _monomial_exponents(F)
    if F.shape.num_factors != 1:
        raise PreconditionError("the disjoint-module rule applies to single-factor shapes")
    exps = a.exponents[0]
    n = F.shape.factors[0]
    for d in range(1, max_degree + 1):
        present = [e for e in exps if d - e - 1 >= 0]
        # two modules overlap when e + e' + 2 <= d, the two smallest first
        if not present or len(present) > 1 and sum(sorted(present)[:2]) + 2 <= d:
            continue
        dim_s, dim_perp, codim = {}, {}, {}
        for t in (d, d + 1):
            dim_s[t] = piece_dimension(F.shape, (t,))
            dim_perp[t] = apolar_piece_dimension(F, (t,))
            codim[t] = dim_perp[t] - (dim_s[t] - generic_hilbert(r, F.shape, (t,)))
        if codim[d] < 0:
            continue
        modules = sorted(d - e - 1 for e in present)
        new_modules = sum(1 for e in exps if e == d)
        growth = macaulay.lexbar_growth(modules, n, codim[d]) + new_modules
        if codim[d + 1] > growth:
            return {
                "ruled_out_r": r,
                "degree": d,
                "codim_d": codim[d],
                "codim_d_plus_1": codim[d + 1],
                "max_growth": growth,
                "new_modules": new_modules,
                "dim_apolar_d": dim_perp[d],
                "dim_s_d": dim_s[d],
                "dim_apolar_d_plus_1": dim_perp[d + 1],
                "dim_s_d_plus_1": dim_s[d + 1],
            }
    return None


def _disjoint_module_scan(F: Tensor, cat: int, upper: int):
    """Lower bound for a monomial F on one projective space via Lex-bar
    growth, given cat = catalecticant_lower_bound(F) and upper = its chart
    bound.

    Tries the disjoint-module rule on every r from upper - 1 down to cat, at
    every degree up to |L|; the first r it rules out gives border rank at
    least r + 1.  Returns (value, witness); witness is None when the
    catalecticant bound was never improved."""
    for r in range(upper - 1, cat - 1, -1):
        witness = disjoint_module_obstruction(F, r, sum(F.degree))
        if witness is not None:
            return r + 1, witness
    return cat, None


def closed_form_border_rank(F: Tensor) -> int:
    """Exact border rank of a monomial on P^1, P^2 or P^2 x (P^1)^k.

    Sort the exponents within every factor descending; the border rank is
    the product of (exponent + 1) over all but the largest exponent in each
    factor, which is the chart bound.  Other shapes raise
    UnsupportedShapeError.
    """
    _monomial_exponents(F)
    factors = F.shape.factors
    twos = sum(1 for f in factors if f == 2)
    ones = sum(1 for f in factors if f == 1)
    single = len(factors) == 1 and factors[0] in (1, 2)
    product = twos == 1 and twos + ones == len(factors)
    if not (single or product):
        raise UnsupportedShapeError(
            f"no closed form on {factors}: supported shapes are P^1, P^2 and "
            "P^2 x (P^1)^k"
        )
    return upper_bound_monomial(F)[0]


def almost_unbalanced_check(F: Tensor):
    """Exact value for (almost) unbalanced monomials on one projective space.

    After sorting exponents descending, a_0 >= (a_1 + ... + a_n) - 1 gives
    border rank exactly (a_1+1)...(a_n+1), the chart bound; returns None
    otherwise.
    """
    a = _monomial_exponents(F)
    if F.shape.num_factors != 1:
        raise PreconditionError("almost-unbalanced check applies to a single factor")
    exps = sorted(a.exponents[0], reverse=True)
    if exps[0] < sum(exps[1:]) - 1:
        return None
    return upper_bound_monomial(F)[0]


# ---------------------------------------------------------------------------
# Necessary tests for minimal border rank (one-directional verdicts)
# ---------------------------------------------------------------------------

HOLDS = "holds"
NOT_MINIMAL = "not-minimal-border-rank"


def minimal_border_rank_generator_test(F: Tensor):
    """On (P^a)^w: minimal border rank forces >= a minimal generators of the
    apolar ideal in degree L.  Returns (count, verdict); a verdict of
    NOT_MINIMAL certifies that F is not of minimal border rank, while HOLDS
    decides nothing.  The count is dim F^⊥_L minus the rank of the sum of
    the products P_j over the factors j."""
    if len(set(F.shape.factors)) != 1:
        raise PreconditionError(
            f"generator test needs a power of a single P^a, got {F.shape.factors}"
        )
    if not is_concise(F):
        raise PreconditionError("generator test needs a concise tensor")
    i, reduced = _reduced_products(F)
    others = [
        row for j in range(F.shape.num_factors) if j != i for row in _products(F, j)
    ]
    # every row lies in F^⊥_L, so the rank stops growing at its dimension
    dim = apolar_piece_dimension(F, F.degree)
    count = dim - linalg.rank(reduced + others, dim)
    return count, (HOLDS if count >= F.shape.factors[0] else NOT_MINIMAL)


def minimal_border_rank_quotient_test(F: Tensor):
    """dim(S_L / P_i) for the first factor i of maximal dimension; below
    dim S_{e_i} certifies not minimal border rank.  Returns (dimension,
    verdict)."""
    if not is_concise(F):
        raise PreconditionError("quotient test needs a concise tensor")
    i, reduced = _reduced_products(F)
    quotient_dim = piece_dimension(F.shape, F.degree) - len(reduced)
    threshold = F.shape.factors[i] + 1  # dim S_{e_i}
    return quotient_dim, (HOLDS if quotient_dim >= threshold else NOT_MINIMAL)


def _products(F: Tensor, j: int) -> list:
    """Int rows spanning P_j = F^⊥_{L - e_j} * S_{e_j} inside S_L."""
    # a concise tensor has L >= e_j, so the lower degree is effective
    unit = F.shape.unit_degree(j)
    lower = degree_sub(F.degree, unit)
    return multiply(F.shape, apolar_piece(F, lower), lower, unit)


@lru_cache(maxsize=1)
def _reduced_products(F: Tensor):
    """(i, echelon rows of P_i) for the first factor i of maximal dimension.

    Both tests read P_i, and a report runs them one after the other on the
    same tensor, so keeping the last tensor's rows reduces P_i once per
    report."""
    i = F.shape.factors.index(max(F.shape.factors))
    return i, linalg.row_echelon(_products(F, i))[0]


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

def _occurring_variables(F: Tensor):
    """(the monomial F on the variables that occur in it, and the indices of
    those variables in each factor), or None when every variable occurs.  A
    factor of degree 0 keeps its first variable, as a point factor."""
    a = F.support_exponents()
    kept = [[i for i, e in enumerate(block) if e] or [0] for block in a.exponents]
    if all(len(k) == len(block) for k, block in zip(kept, a.exponents)):
        return None
    restricted = Tensor.monomial(
        FactorShape([len(k) - 1 for k in kept]),
        [tuple(block[i] for i in k) for k, block in zip(kept, a.exponents)],
        F.coefficient(a),
    )
    return restricted, kept


def bounds_report(F: Tensor) -> BoundReport:
    """Compute every applicable bound for F and assemble the best sandwich.

    A monomial is bounded on the variables that occur in it, since its
    border rank does not depend on the space around it.
    components["restriction"] then names the variables kept in each factor,
    and the indices in the other components count among those."""
    components = {}
    whole = F
    if F.is_monomial and (restricted := _occurring_variables(F)) is not None:
        F, kept = restricted
        components["restriction"] = {"shape": list(F.shape.factors), "variables": kept}
    cat = catalecticant_lower_bound(F)
    components["catalecticant"] = {"value": cat}

    if not F.is_monomial:
        # general tensors get the catalecticant floor and, where defined,
        # the two necessary minimal-border-rank tests
        for name, key, threshold, test in (
            ("minimal_generator_test", "count", F.shape.factors[0],
             minimal_border_rank_generator_test),
            ("minimal_quotient_test", "dimension", max(F.shape.factors) + 1,
             minimal_border_rank_quotient_test),
        ):
            try:
                value, verdict = test(F)
            except PreconditionError:
                continue
            components[name] = {key: value, "threshold": threshold, "verdict": verdict}
        return BoundReport(
            lower=cat,
            lower_provenance="catalecticant",
            lower_witness={},
            upper=None,
            upper_provenance="none",
            upper_witness={"note": "no upper bound implemented for non-monomials"},
            components=components,
        )

    upper, upper_witness = upper_bound_monomial(F)
    components["chart_upper"] = {"value": upper, **upper_witness}

    lower, lower_provenance, lower_witness = cat, "catalecticant", {}
    method = None  # names the exact value's witness, once one is known
    if F.shape.num_factors == 1:
        dm, dm_witness = _disjoint_module_scan(F, cat, upper)
        components["disjoint_module"] = {"value": dm, "witness": dm_witness}
        if dm > lower:
            lower, lower_provenance, lower_witness = dm, "disjoint-module", dm_witness

        exact_unbalanced = almost_unbalanced_check(F)
        if exact_unbalanced is not None:
            components["almost_unbalanced"] = {"value": exact_unbalanced}
            method = "almost-unbalanced"

    # the closed form holds in the space of the variables that occur, and in
    # the whole space (P^2 x P^1 restricts to P^1 x P^1, which has none)
    for space in (F, whole):
        try:
            components["closed_form"] = {"value": closed_form_border_rank(space)}
            method = "sorted-exponent product"
            break
        except UnsupportedShapeError:
            pass

    upper_provenance = "chart"
    if method is not None:
        # the closed form and the almost-unbalanced value are both the chart
        # bound, so the sandwich closes at upper
        lower, lower_witness = upper, {"method": method}
        lower_provenance = upper_provenance = "closed-form"
        upper_witness = {"method": method}

    return BoundReport(
        lower=lower,
        lower_provenance=lower_provenance,
        lower_witness=lower_witness,
        upper=upper,
        upper_provenance=upper_provenance,
        upper_witness=upper_witness,
        components=components,
    )

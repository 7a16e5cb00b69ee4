"""Acceptance suite: nine headline criteria, one test (= one pass/fail line
in `pytest -v`) per criterion.

Values are asserted exactly; the stated runtime envelopes are asserted
alongside.  Criterion 5 is opt-in via --run-slow.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, product as iter_product

import pytest

from borderrank import linalg
from borderrank.apolarity import Tensor, catalecticant, tensor_from_json
from borderrank.bounds import (
    bounds_report,
    closed_form_border_rank,
    upper_bound_monomial,
)
from borderrank.ideals import (
    MonomialIdeal,
    ideal_from_json,
    saturate,
    verify_candidate,
)
from borderrank.macaulay import lexbar_growth, macaulay_exponent
from borderrank.movefit import (
    EXHAUSTED,
    FOUND,
    SearchConfig,
    search,
)
from borderrank.ring import FactorShape, enumerate_monomials, piece_dimension

from oracles import is_saturated, times, variable
from test_movefit import _corpus_json, _oracle_exists


def _best_time(fn, repeats=5):
    fn()  # warm caches; the criteria time steady-state evaluation
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_1_macaulay_exponents():
    expected = {(15, 3): 22, (10, 2): 20, (3, 3): 3, (13, 3): 19, (12, 4): 15}
    for (r, d), want in expected.items():
        assert macaulay_exponent(r, d) == want, (r, d)
    assert 20 + 3 + 19 + 15 == 57
    elapsed = _best_time(
        lambda: [macaulay_exponent(r, d) for (r, d) in expected]
    )
    assert elapsed < 0.001
    print(f"criterion 1: PASS — five exponents exact, {elapsed * 1e6:.1f} us")


def test_criterion_2_lexbar_growth():
    value = lexbar_growth((2, 3, 3, 4), 3, 38)
    assert value == 65
    elapsed = _best_time(lambda: lexbar_growth((2, 3, 3, 4), 3, 38))
    assert elapsed < 0.001
    print(f"criterion 2: PASS — growth 65, {elapsed * 1e6:.1f} us")


def test_criterion_3_bounds_flagship():
    t0 = time.perf_counter()
    F = Tensor.monomial(FactorShape([3]), [(4, 4, 4, 3)])
    report = bounds_report(F)
    elapsed = time.perf_counter() - t0
    assert report.components["catalecticant"]["value"] == 70
    assert report.components["disjoint_module"]["value"] == 86
    assert report.lower == 86 and report.upper == 100
    witness = report.components["disjoint_module"]["witness"]
    assert witness["dim_apolar_d"] == 95
    assert witness["dim_s_d"] == 165
    assert witness["dim_apolar_d_plus_1"] == 158
    assert witness["dim_s_d_plus_1"] == 220
    assert elapsed < 1.0
    print(f"criterion 3: PASS — 70/86/100 with exact dims, {elapsed:.3f} s")


def test_criterion_4_fast_exhaustions():
    t0 = time.perf_counter()
    F = Tensor.monomial(FactorShape([2]), [(2, 2, 2)])
    first = search(F, SearchConfig(r=8))
    assert first.status == EXHAUSTED  # hence border rank 9
    G = Tensor.monomial(FactorShape([3]), [(2, 2, 1, 1)])
    second = search(G, SearchConfig(r=11))
    assert second.status == EXHAUSTED  # hence border rank 12
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"criterion 4: PASS — r=8 and r=11 exhausted, {elapsed:.3f} s")


@pytest.mark.slow
@pytest.mark.usefixtures("pool_at_once")
def test_criterion_5_slow_exhaustions():
    cases = [
        ([(1, 1, 1, 1, 1)], 16),
        ([(2, 2, 1, 1, 1)], 24),
        ([(3, 3, 1, 1, 1)], 32),
    ]
    t0 = time.perf_counter()
    for blocks, rank in cases:
        F = Tensor.monomial(FactorShape([4]), blocks)
        upper, _ = upper_bound_monomial(F)
        assert upper == rank
        outcome = search(F, SearchConfig(r=rank - 1, parallel_width=8))
        assert outcome.status == EXHAUSTED, blocks
    elapsed = time.perf_counter() - t0
    print(f"criterion 5: PASS — borders 16/24/32 confirmed, {elapsed:.1f} s")


def test_exhaustion_settles_3331_on_p3():
    # bounds gives 27..32 for x0^(3) x1^(3) x2^(3) x3 on P^3; Exhausted at
    # r = 31 settles the border rank at 32
    F = Tensor.monomial(FactorShape([3]), [(3, 3, 3, 1)])
    report = bounds_report(F)
    assert (report.lower, report.upper) == (27, 32)
    outcome = search(F, SearchConfig(r=31))
    assert outcome.status == EXHAUSTED
    assert outcome.statistics.nodes == 232001


def test_exhaustion_settles_22211_on_p4():
    # the chart bound is 36 for x0^(2) x1^(2) x2^(2) x3 x4 on P^4; Exhausted
    # at r = 35 settles the border rank at 36
    F = Tensor.monomial(FactorShape([4]), [(2, 2, 2, 1, 1)])
    assert bounds_report(F).upper == 36
    outcome = search(F, SearchConfig(r=35))
    assert outcome.status == EXHAUSTED
    assert outcome.statistics.nodes == 43733


def test_criterion_6_verify_witness_ideals():
    t0 = time.perf_counter()

    tangent = ideal_from_json(_corpus_json("ideal-tangent-p3.json"))
    F1 = tensor_from_json(_corpus_json("mono-31-p3.json"))
    rep1 = verify_candidate(tangent, F1, 2)
    assert rep1.passed and rep1.saturation == {"kind": "exact", "saturated": True}

    minrank = ideal_from_json(_corpus_json("ideal-minrank-3x3x3.json"))
    F2 = tensor_from_json(_corpus_json("minrank-3x3x3.json"))
    by_degree = {}
    for degree, _poly in minrank.generators:
        by_degree[degree] = by_degree.get(degree, 0) + 1
    assert sum(by_degree.values()) == 28
    for D in [(2, 0, 0), (0, 2, 0), (0, 0, 2)]:
        assert by_degree[D] == 3
    for D in [(1, 1, 0), (1, 0, 1), (0, 1, 1)]:
        assert by_degree[D] == 6
    assert by_degree[(3, 0, 0)] == 1
    rep2 = verify_candidate(minrank, F2, 3)
    assert rep2.passed and rep2.hilbert_ok
    assert rep2.saturation["saturated"] is False

    cubic = ideal_from_json(_corpus_json("ideal-cubic-p4.json"))
    F3 = tensor_from_json(_corpus_json("cubic-p4.json"))
    degrees = sorted(d for d, _ in cubic.generators)
    assert degrees == [(2,)] * 10 + [(5,)]
    rep3 = verify_candidate(cubic, F3, 5, horizon=5)
    assert rep3.passed and rep3.hilbert_ok and rep3.containment

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"criterion 6: PASS — three witness ideals verified, {elapsed:.2f} s")


def test_criterion_7_closed_form_suite():
    t0 = time.perf_counter()
    shape = FactorShape([2])
    checked = 0
    for exps in iter_product(range(10), repeat=3):
        if not 1 <= sum(exps) <= 9:
            continue
        F = Tensor.monomial(shape, [exps])
        a = sorted(exps, reverse=True)
        value = closed_form_border_rank(F)
        assert value == (a[1] + 1) * (a[2] + 1), exps
        report = bounds_report(F)
        assert report.lower == report.upper == value, exps
        checked += 1
    assert checked == 219

    spots = [
        ([(2, 1, 1), (3, 1)], FactorShape([2, 1]), 8),
        ([(1, 1, 1), (2, 0)], FactorShape([2, 1]), 4),
        ([(2, 1, 1), (1, 1)], FactorShape([2, 1]), 8),
        ([(1, 1, 1), (1, 0), (1, 1)], FactorShape([2, 1, 1]), 8),
    ]
    for blocks, shape, want in spots:
        F = Tensor.monomial(shape, blocks)
        assert closed_form_border_rank(F) == want
        report = bounds_report(F)
        assert report.lower == report.upper == want

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(
        f"criterion 7: PASS — {checked} plane monomials + product spot "
        f"checks, {elapsed:.2f} s"
    )


def test_criterion_8_property_suites():
    t0 = time.perf_counter()

    # Macaulay extremality against exhaustive monomial subspaces, 3 variables
    shape = FactorShape([2])
    for d in (1, 2, 3):
        mons = enumerate_monomials(shape, (d,))
        dim = len(mons)
        for c in range(dim + 1):
            cap = macaulay_exponent(c, d)
            best = 0
            for kept in combinations(mons, dim - c):
                prods = {
                    times(m, variable(shape, 0, i))
                    for m in kept
                    for i in range(3)
                }
                g = piece_dimension(shape, (d + 1,)) - len(prods)
                assert g <= cap
                best = max(best, g)
            assert best == cap

    # exponent rearrangement sweeps
    for e in range(1, 5):
        for d in range(e, 5):
            for q in range(0, 41):
                for r in range(0, 41):
                    assert macaulay_exponent(q, d) + macaulay_exponent(
                        r, e
                    ) <= macaulay_exponent(q + r, e)
    import math

    for n in (1, 2, 3):
        for e in range(1, 5):
            dim_e = math.comb(n + e, n)
            for d in range(e, 5):
                dim_d = math.comb(n + d, n)
                for q in range(0, dim_d + 1):
                    for r in range(max(0, dim_e - q), dim_e + 1):
                        lhs = macaulay_exponent(q, d) + macaulay_exponent(r, e)
                        rhs = macaulay_exponent(q + r - dim_e, d) + macaulay_exponent(
                            dim_e, e
                        )
                        assert lhs <= rhs

    # catalecticant symmetry on seeded random tensors
    rng = random.Random(0)
    for _ in range(20):
        factors = rng.choice([[1], [2], [1, 1]])
        tshape = FactorShape(factors)
        L = tuple(rng.randint(1, 3) for _ in factors)
        basis = enumerate_monomials(tshape, L)
        coeffs = {
            m: Fraction(rng.randint(-3, 3))
            for m in rng.sample(basis, min(len(basis), 4))
        }
        coeffs = {m: c for m, c in coeffs.items() if c}
        if not coeffs:
            coeffs = {basis[0]: Fraction(1)}
        F = Tensor(tshape, L, coeffs)
        for D in iter_product(*(range(l + 1) for l in L)):
            comp = tuple(l - d for l, d in zip(L, D))
            assert linalg.rank(catalecticant(F, D)) == linalg.rank(
                catalecticant(F, comp)
            )

    # search vs brute-force oracle, all monomials of total degree <= 4
    for nn in (1, 2):
        sshape = FactorShape([nn])
        for exps in iter_product(range(5), repeat=nn + 1):
            if not 1 <= sum(exps) <= 4:
                continue
            F = Tensor.monomial(sshape, [exps])
            dim_L = piece_dimension(sshape, F.degree)
            for r in range(1, dim_L + 1):
                expected = (
                    FOUND
                    if _oracle_exists([exps], sshape, r, sum(exps))
                    else EXHAUSTED
                )
                assert search(F, SearchConfig(r=r)).status == expected, (exps, r)

    # saturation idempotence on seeded random monomial ideals
    sat_shape = FactorShape([1, 1])
    pool = [
        m
        for D in [(1, 0), (0, 1), (1, 1), (2, 1), (2, 2)]
        for m in enumerate_monomials(sat_shape, D)
    ]
    for _ in range(25):
        gens = rng.sample(pool, rng.randint(1, 4))
        S = saturate(MonomialIdeal(sat_shape, gens))
        assert is_saturated(S) and saturate(S) == S

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"criterion 8: PASS — property suites exact, {elapsed:.1f} s")


@pytest.mark.usefixtures("pool_at_once")
def test_criterion_9_worker_determinism():
    t0 = time.perf_counter()
    cases = [
        ("mono-21.json", 1, None),
        ("mono-21.json", 2, None),
        ("mono-222.json", 8, 5),
        ("mono-222.json", 9, None),
        ("mono-2211.json", 11, 5),
    ]
    for filename, r, horizon in cases:
        F = tensor_from_json(_corpus_json(filename))
        outcomes = [
            search(F, SearchConfig(r=r, horizon=horizon, parallel_width=w))
            for w in (1, 2, 8)
        ]
        statuses = {o.status for o in outcomes}
        assert len(statuses) == 1, (filename, r, statuses)
        if outcomes[0].status == FOUND:
            gens = {o.candidate.generators for o in outcomes}
            pieces = [o.candidate_pieces for o in outcomes]
            assert len(gens) == 1, (filename, r)
            assert pieces[0] == pieces[1] == pieces[2]
    elapsed = time.perf_counter() - t0
    print(f"criterion 9: PASS — 1/2/8 workers agree on {len(cases)} cases, {elapsed:.1f} s")

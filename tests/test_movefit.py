"""Move-fit search: oracle equivalence, pruning soundness, determinism,
budget semantics, and candidate verification."""

import collections
import concurrent.futures
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from itertools import combinations, permutations, product as iter_product
from pathlib import Path

import pytest

import borderrank
from borderrank import apolarity, cli, linalg, movefit
from borderrank.apolarity import Tensor, catalecticant_lower_bound, tensor_from_json
from borderrank.bounds import bounds_report, disjoint_module_obstruction
from borderrank.errors import EXIT_PRECONDITION, PreconditionError
from borderrank.ideals import GradedIdeal, MonomialIdeal, ideal_from_json
from borderrank.movefit import (
    BUDGET_EXCEEDED,
    EXHAUSTED,
    FOUND,
    SearchConfig,
    _Plan,
    search,
    verify_candidate,
)
from borderrank.ring import (
    FactorShape,
    Monomial,
    enumerate_monomials,
    generic_hilbert,
    piece_dimension,
    product_table,
)
from oracles import (
    carried_after,
    entry_overflows,
    shifted,
    take_skip_fitting,
    times,
    variable,
)


# ---------------------------------------------------------------------------
# Independent brute-force oracle
# ---------------------------------------------------------------------------

def _schedule(shape, horizon):
    degrees = []
    for total in range(1, horizon + 1):
        for split in iter_product(range(total + 1), repeat=shape.num_factors):
            if sum(split) == total:
                degrees.append(split)
    degrees.sort(key=lambda d: (sum(d), d))
    return degrees


def _oracle_exists(blocks, shape, r, horizon):
    """Set-based reimplementation of the search question: does a truncated
    monomial ideal with the generic Hilbert function exist inside the apolar
    ideal of x^(blocks)?  No pruning, no bitmasks."""
    a = Monomial(blocks)
    degrees = _schedule(shape, horizon)
    allowed = [
        frozenset(m for m in enumerate_monomials(shape, D) if not m.divides(a))
        for D in degrees
    ]
    reqs = [
        piece_dimension(shape, D) - generic_hilbert(r, shape, D) for D in degrees
    ]
    deg_index = {d: k for k, d in enumerate(degrees)}

    def mandatory(chosen, k):
        out = set()
        D = degrees[k]
        for j in range(shape.num_factors):
            lower = tuple(x - (1 if jj == j else 0) for jj, x in enumerate(D))
            lk = deg_index.get(lower)
            if lk is None:
                continue
            for m in chosen[lk]:
                for v in range(shape.factors[j] + 1):
                    out.add(times(m, variable(shape, j, v)))
        return out

    def walk(chosen, k):
        if k == len(degrees):
            return True
        forced = mandatory(chosen, k)
        assert forced <= allowed[k]
        extra = reqs[k] - len(forced)
        if extra < 0:
            return False
        free = sorted(allowed[k] - forced, key=Monomial.grevlex_key)
        if len(free) < extra:
            return False
        for combo in combinations(free, extra):
            chosen.append(forced | set(combo))
            if walk(chosen, k + 1):
                return True
            chosen.pop()
        return False

    return walk([], 0)


def _sweep_cases():
    cases = []
    p1 = FactorShape([1])
    for a0 in range(0, 5):
        for a1 in range(0, 5 - a0):
            if a0 + a1 == 0:
                continue
            cases.append((p1, [(a0, a1)]))
    p2 = FactorShape([2])
    for exps in iter_product(range(0, 4), repeat=3):
        if 1 <= sum(exps) <= 3:
            cases.append((p2, [exps]))
    p11 = FactorShape([1, 1])
    for e0 in iter_product(range(0, 3), repeat=2):
        for e1 in iter_product(range(0, 2), repeat=2):
            if sum(e0) >= 1 and sum(e1) == 1 and sum(e0) + sum(e1) <= 3:
                cases.append((p11, [e0, e1]))
    # degree (1, 1) is fed by both (1, 0) and (0, 1)
    p21 = FactorShape([2, 1])
    for e0 in iter_product(range(0, 3), repeat=3):
        for e1 in iter_product(range(0, 3), repeat=2):
            if sum(e0) >= 1 and sum(e1) >= 1 and sum(e0) + sum(e1) <= 3:
                cases.append((p21, [e0, e1]))
    return cases


def test_status_matches_brute_force_oracle():
    checked = 0
    for shape, blocks in _sweep_cases():
        F = Tensor.monomial(shape, blocks)
        dim_L = piece_dimension(shape, F.degree)
        horizon = sum(F.degree)
        for r in range(1, dim_L + 1):
            expected = FOUND if _oracle_exists(blocks, shape, r, horizon) else EXHAUSTED
            for sym in (True, False):
                outcome = search(F, SearchConfig(r=r, symmetry_pruning=sym))
                assert outcome.status == expected, (blocks, r, sym)
            checked += 1
    assert checked > 500


def _segment_maps(plan, k, elements):
    """{g: [g(p) for every position p]} at level k for each of the group
    elements, read from segment g of the packed symmetry table."""
    table = plan.level(k)[2][0]
    width = len(table) + 1
    mask = (1 << width) - 1
    return {
        g: [(entry >> g * width & mask).bit_length() - 1 for entry in table] for g in elements
    }


def _canonical_nodes(plan, k, active, pieces):
    """The (piece, images, fixing) nodes of the (piece, images) pairs that no
    active g maps below themselves, fixing the active g with g(piece) = piece."""
    maps = _segment_maps(plan, k, active) if active else {}
    for piece, images in pieces:
        own = sorted(movefit._bits(piece))
        mapped = {g: sorted(image[p] for p in own) for g, image in maps.items()}
        if all(m >= own for m in mapped.values()):
            yield piece, images, [g for g, m in mapped.items() if m == own]


def test_fitting_matches_take_skip_oracle(monkeypatch):
    # the look-ahead cuts only partial pieces with no fitting completion and
    # takes a forced completion whole, and the symmetry cut drops only
    # pieces that some active g maps below themselves, so every call must
    # give exactly the oracle's pieces that no active g maps below
    # themselves, in the oracle's order, with the images one degree up and
    # the active elements that fix each piece
    fitting = movefit._Searcher.fitting
    checked = collections.Counter()

    def compared(self, carried, k, active):
        nodes = [
            (piece, images, list(fixing))
            for piece, images, fixing in fitting(self, carried, k, active)
        ]
        oracle = list(take_skip_fitting(self.plan, carried, k))
        assert nodes == list(_canonical_nodes(self.plan, k, active, oracle))
        checked[min(len(nodes), 2)] += 1
        if active:
            checked["symmetry"] += 1
            checked["cut"] += len(nodes) < len(oracle)
            checked["fixing"] += sum(1 for *_, fixing in nodes if fixing)
        return iter(nodes)

    monkeypatch.setattr(movefit._Searcher, "fitting", compared)
    _benchmark_and_sweep_searches()
    # calls with no fitting piece, with one, and with several, and calls
    # with active elements, in some of which pieces were rejected and some
    # of whose nodes keep elements active.  Calls with none are the fewest,
    # since a piece whose next degree fails its entry test is cut, so the
    # walk seldom enters a level with no piece
    assert checked[0] > 100 and checked[1] > 1_000 and checked[2] > 1_000
    assert checked["symmetry"] > 1_000 and checked["cut"] > 100
    assert checked["fixing"] > 1_000


def _benchmark_and_sweep_searches():
    """Search the five monomials of the search benchmark on P^4, and every
    case of _sweep_cases at every r, with symmetry on and off."""
    for exps, r in [
        ((1, 1, 1, 1, 1), 15),
        ((2, 2, 1, 1, 1), 23),
        ((2, 2, 1, 1, 1), 24),
        ((2, 2, 2, 2, 1), 39),
        ((3, 2, 2, 1, 1), 33),
    ]:
        search(Tensor.monomial(FactorShape([4]), [exps]), SearchConfig(r=r))
    for shape, blocks in _sweep_cases():
        F = Tensor.monomial(shape, blocks)
        for r in range(1, piece_dimension(shape, F.degree) + 1):
            for sym in (True, False):
                search(F, SearchConfig(r=r, symmetry_pruning=sym))


def test_fitting_pieces_pass_the_next_entry_test(monkeypatch):
    # the overflow cut reads two degrees up, so no piece fitting yields may
    # make a level it maps into fail its entry test, with carried as assign
    # leaves it: the entry test reads the shifts of that level's mandatory
    # set, which hold the piece's products with every monomial of degree two
    fitting = movefit._Searcher.fitting
    checked = collections.Counter()

    def checking(self, carried, k, active):
        for piece, images, fixing in fitting(self, carried, k, active):
            after = carried_after(self.plan, carried, k, images)
            for t in self.plan.higher[k]:
                assert not entry_overflows(self.plan, after, t)
                checked[self.plan.shape.num_factors] += 1
            yield piece, images, fixing

    monkeypatch.setattr(movefit._Searcher, "fitting", checking)
    _benchmark_and_sweep_searches()
    # pieces with a level above them, on one factor and on two
    assert checked[1] > 5_000 and checked[2] > 1_000


def test_symmetry_pruning_keeps_first_candidate():
    # the prefix-minimality rule keeps the lexicographically least member of
    # every orbit, so the first candidate must be identical with and without
    for blocks, r in [([(2, 2, 2)], 9), ([(3, 2, 1)], 7), ([(2, 1, 1)], 4)]:
        F = Tensor.monomial(FactorShape([2]), blocks)
        with_sym = search(F, SearchConfig(r=r, symmetry_pruning=True))
        without = search(F, SearchConfig(r=r, symmetry_pruning=False))
        assert with_sym.status == without.status
        if with_sym.status == FOUND:
            assert (
                with_sym.candidate.generators == without.candidate.generators
            )
        # pruning never explores more nodes
        assert with_sym.statistics.nodes <= without.statistics.nodes


@pytest.mark.parametrize(
    "blocks, kwargs, status, generators, nodes, prunings",
    [
        # the README example
        (
            [(2, 2, 2)], {"r": 8, "horizon": 5}, EXHAUSTED, None, 3,
            {"mandatory_overflow": 3, "symmetry": 2},
        ),
        (
            [(2, 2, 2)], {"r": 9}, FOUND,
            ["a0*a1^3", "a1^4", "a1^3*a2", "a0^3"], 6, {},
        ),
        ([(2, 2, 2)], {"r": 9, "node_budget": 1}, BUDGET_EXCEEDED, None, 2, {}),
        # the budget caps the nodes of the whole run: a 6-node run stops at
        # budget 5, counting budget + 1 nodes, and finishes at budget 6
        ([(2, 2, 2)], {"r": 9, "node_budget": 5}, BUDGET_EXCEEDED, None, 6, {}),
        (
            [(1, 1, 1, 1, 1)], {"r": 15}, EXHAUSTED, None, 3,
            {"mandatory_overflow": 334, "symmetry": 124},
        ),
        (
            [(2, 2, 2)], {"r": 9, "node_budget": 6}, FOUND,
            ["a0*a1^3", "a1^4", "a1^3*a2", "a0^3"], 6, {},
        ),
        # two exhaustions that re-enter failed states, so the failure memo
        # charges part of their nodes and prunings instead of walking them
        (
            [(2, 2, 1, 1, 1)], {"r": 23}, EXHAUSTED, None, 648,
            {"mandatory_overflow": 8305, "symmetry": 542},
        ),
        (
            [(3, 2, 2, 1, 1)], {"r": 33}, EXHAUSTED, None, 7132,
            {"mandatory_overflow": 19453, "symmetry": 1065},
        ),
    ],
)
def test_search_outcomes_pinned(blocks, kwargs, status, generators, nodes, prunings):
    F = Tensor.monomial(FactorShape([len(blocks[0]) - 1]), blocks)
    data = search(F, SearchConfig(**kwargs)).to_json()
    assert data["status"] == status
    assert data["candidate_generators"] == generators
    assert data["statistics"]["nodes"] == nodes
    assert data["statistics"]["prunings"] == prunings


@pytest.mark.parametrize(
    "n, orders, r, symmetry",
    [
        (4, [(2, 2, 1, 1, 1), (1, 2, 1, 2, 1), (1, 1, 1, 2, 2), (2, 1, 1, 1, 2)], 23, True),
        (2, [(5, 5, 3), (5, 3, 5), (3, 5, 5)], 23, True),
        (2, [(5, 5, 3), (5, 3, 5), (3, 5, 5)], 23, False),
        # the two Exhausted search benchmark cases, whose variables the
        # benchmark shuffles on every pass
        (4, [(2, 2, 2, 2, 1), (2, 1, 2, 2, 2), (1, 2, 2, 2, 2)], 39, True),
        (4, [(3, 2, 2, 1, 1), (1, 2, 3, 1, 2), (2, 1, 1, 2, 3)], 33, True),
    ],
)
def test_exhausted_nodes_do_not_depend_on_variable_order(n, orders, r, symmetry):
    # a node is a canonical piece that fits, so relabelling the variables
    # maps the orbits of fitting prefixes of one run onto those of the
    # other; a count of partial bit choices, or of pieces the symmetry test
    # rejects, would depend on the order.  search walks one canonical order,
    # so the walk runs here on the plan of each order as given
    counts = set()
    for exps in orders:
        F = Tensor.monomial(FactorShape([n]), [exps])
        config = SearchConfig(r=r, symmetry_pruning=symmetry)
        plan = _Plan(F.shape, F.support_exponents(), config)
        walk = movefit._Searcher(plan, None)
        assert walk.descend([0] * len(plan.degrees), list(range(len(plan.group))), 0) is None
        counts.add(walk.nodes)
    assert len(counts) == 1 and counts.pop() > 1


def test_shifts_of_apolar_monomials_stay_apolar():
    # the hot loop relies on this: a multiple of a monomial outside the
    # divisor set of a is outside it too, so the mandatory set of every
    # level lies inside that level's apolar mask
    for shape, blocks in [
        (FactorShape([2]), [(2, 2, 2)]),
        (FactorShape([3]), [(2, 1, 1, 0)]),
        (FactorShape([1, 1]), [(2, 1), (1, 0)]),
        (FactorShape([2, 1]), [(1, 1, 0), (0, 1)]),
    ]:
        F = Tensor.monomial(shape, blocks)
        plan = _Plan(F.shape, F.support_exponents(), SearchConfig(r=2))
        levels = [plan.level(k) for k in range(len(plan.degrees))]
        for mask, targets, _, _ in levels:
            for target, table, _ in targets:
                for p, bits in enumerate(table):
                    if mask >> p & 1:
                        assert bits & ~levels[target][0] == 0


def _relabelling(blocks, arranged):
    """Per factor, sigma[i]: the variable of `arranged` that variable i of
    `blocks` becomes, variables of equal exponent kept in order."""
    sigmas = []
    for block, target in zip(blocks, arranged):
        slots = collections.defaultdict(collections.deque)
        for j, e in enumerate(target):
            slots[e].append(j)
        sigmas.append([slots[e].popleft() for e in block])
    return sigmas


def _relabelled(sigmas, m):
    blocks = []
    for block, sigma in zip(m.exponents, sigmas):
        moved = [0] * len(block)
        for i, e in zip(sigma, block):
            moved[i] = e
        blocks.append(moved)
    return Monomial(blocks)


@pytest.mark.parametrize(
    "factors, blocks, kwargs, status",
    [
        ([2], [(1, 3, 2)], {"r": 7}, FOUND),
        ([4], [(1, 2, 1, 2, 1)], {"r": 23}, EXHAUSTED),
        ([4], [(2, 2, 1, 1, 1)], {"r": 24, "node_budget": 50}, BUDGET_EXCEEDED),
        ([2, 1], [(2, 1, 2), (0, 1)], {"r": 5}, EXHAUSTED),
        ([2, 1], [(2, 2, 1), (1, 0)], {"r": 7}, FOUND),
        ([1, 2], [(1, 2), (2, 1, 1)], {"r": 9}, FOUND),
        ([1, 2], [(2, 1), (1, 2, 1)], {"r": 9, "node_budget": 30}, BUDGET_EXCEEDED),
    ],
)
def test_search_commutes_with_relabelling(factors, blocks, kwargs, status):
    # search walks the variables in one canonical order and maps the
    # candidate back, so every arrangement of the exponents gives the same
    # walk, and its candidate is the candidate of `blocks` relabelled by the
    # relabelling that keeps variables of equal exponent in order
    shape = FactorShape(factors)
    base = search(Tensor.monomial(shape, blocks), SearchConfig(**kwargs))
    assert base.status == status
    arrangements = list(iter_product(*(sorted(set(permutations(b))) for b in blocks)))
    assert len(arrangements) > 2
    for arranged in arrangements:
        F = Tensor.monomial(shape, arranged)
        outcome = search(F, SearchConfig(**kwargs))
        assert outcome.status == status, arranged
        assert outcome.statistics.nodes == base.statistics.nodes, arranged
        assert outcome.statistics.prunings == base.statistics.prunings, arranged
        if status != FOUND:
            assert outcome.candidate is None
            continue
        sigmas = _relabelling(blocks, arranged)
        assert outcome.candidate_pieces == {
            d: tuple(
                sorted((_relabelled(sigmas, m) for m in mons), key=Monomial.grevlex_key)
            )
            for d, mons in base.candidate_pieces.items()
        }, arranged
        assert outcome.candidate == MonomialIdeal(
            shape, [_relabelled(sigmas, g) for g in base.candidate.generators]
        )
        assert verify_candidate(outcome.candidate, F, kwargs["r"]).passed


# ---------------------------------------------------------------------------
# Plan tables against the Monomial-object construction they replaced
# ---------------------------------------------------------------------------

def _reference_permutations(a):
    """Variable permutations fixing a, as per-factor index maps (m -> m' with
    m'[mapping[i]] = m[i]), identity excluded; class transpositions above
    720 elements."""
    per_factor = []
    for block in a.exponents:
        classes = {}
        for i, e in enumerate(block):
            classes.setdefault(e, []).append(i)
        factor_perms = []
        for assignment in iter_product(
            *(permutations(idxs) for idxs in classes.values())
        ):
            mapping = list(range(len(block)))
            for idxs, image in zip(classes.values(), assignment):
                for src, dst in zip(idxs, image):
                    mapping[src] = dst
            factor_perms.append(tuple(mapping))
        per_factor.append(factor_perms)
    if math.prod(len(p) for p in per_factor) > 720:
        elements = set()
        for j, block in enumerate(a.exponents):
            classes = {}
            for i, e in enumerate(block):
                classes.setdefault(e, []).append(i)
            for idxs in classes.values():
                for s, t in zip(idxs, idxs[1:]):
                    mapping = list(range(len(block)))
                    mapping[s], mapping[t] = t, s
                    elements.add(tuple(
                        tuple(mapping) if jj == j else tuple(range(len(b)))
                        for jj, b in enumerate(a.exponents)
                    ))
        return sorted(elements)
    identity = tuple(tuple(range(len(b))) for b in a.exponents)
    return [e for e in iter_product(*per_factor) if e != identity]


def _reference_permute(m, element):
    blocks = []
    for block, mapping in zip(m.exponents, element):
        new = [0] * len(block)
        for i, e in enumerate(block):
            new[mapping[i]] = e
        blocks.append(tuple(new))
    return Monomial(blocks)


def _reference_tables(F, horizon):
    """targets and sym_tables of the plan, built through Monomial products
    and {monomial: position} dicts: the targets one degree up, then those
    two degrees up."""
    shape, a = F.shape, F.support_exponents()
    degrees = _schedule(shape, horizon)
    deg_index = {d: k for k, d in enumerate(degrees)}
    mons_by_degree = [enumerate_monomials(shape, d) for d in degrees]
    index_by_degree = [{m: p for p, m in enumerate(ms)} for ms in mons_by_degree]
    reqs = [piece_dimension(shape, d) - generic_hilbert(2, shape, d) for d in degrees]
    targets = [[] for _ in degrees]
    for src_k, d in enumerate(degrees):
        for j, nj in enumerate(shape.factors):
            target = tuple(x + (1 if jj == j else 0) for jj, x in enumerate(d))
            tk = deg_index.get(target)
            if tk is None:
                continue
            table = []
            for m in mons_by_degree[src_k]:
                bits = 0
                for v in range(nj + 1):
                    bits |= 1 << index_by_degree[tk][times(m, variable(shape, j, v))]
                table.append(bits)
            targets[src_k].append((tk, table, reqs[tk]))
        for i, j in iter_product(range(shape.num_factors), repeat=2):
            up = [0] * len(d)
            up[i] += 1
            up[j] += 1
            tk = deg_index.get(tuple(x + y for x, y in zip(d, up)))
            if tk is None or any(tk == t for t, _, _ in targets[src_k]):
                continue
            table = []
            for m in mons_by_degree[src_k]:
                bits = 0
                for w in enumerate_monomials(shape, tuple(up)):
                    bits |= 1 << index_by_degree[tk][times(m, w)]
                table.append(bits)
            targets[src_k].append((tk, table, reqs[tk]))
    sym_tables = [
        [
            [1 << idx[_reference_permute(m, element)] for m in ms]
            for ms, idx in zip(mons_by_degree, index_by_degree)
        ]
        for element in _reference_permutations(a)
    ]
    return targets, sym_tables


def _frozen(sym_tables):
    return {tuple(tuple(t) for t in tables) for tables in sym_tables}


def _unpacked(plan):
    """The packed symmetry tables of a plan as the reference lays them out:
    per group element, per degree, table[p] = the bit of g(p).  Segment g of
    every entry must hold exactly one bit, below its guard bit."""
    elements = len(plan.group)
    unpacked = [[] for _ in range(elements)]
    for table, guard in (plan.level(k)[2] for k in range(len(plan.degrees))):
        width = len(table) + 1
        assert guard == sum(1 << g * width + len(table) for g in range(elements))
        for g in range(elements):
            segments = [entry >> g * width & (1 << width) - 1 for entry in table]
            assert all(bits.bit_count() == 1 and bits < 1 << len(table) for bits in segments)
            unpacked[g].append(segments)
        assert all(entry < 1 << elements * width for entry in table)
    return unpacked


@pytest.mark.parametrize(
    "factors, blocks, horizon",
    [
        ([1], [(2, 2)], None),
        ([2, 1], [(1, 1, 0), (1, 1)], None),
        ([1, 1, 1], [(1, 1), (1, 1), (2, 0)], None),
        # 7! = 5040 permutations: the plan falls back to transpositions
        ([6], [(1, 1, 1, 1, 1, 1, 1)], 4),
    ],
)
def test_plan_tables_match_monomial_reference(factors, blocks, horizon):
    shape = FactorShape(factors)
    F = Tensor.monomial(shape, blocks)
    horizon = horizon or sum(F.degree)
    plan = _Plan(F.shape, F.support_exponents(), SearchConfig(r=2, horizon=horizon))
    targets, sym_tables = _reference_tables(F, horizon)
    assert [plan.level(k)[1] for k in range(len(plan.degrees))] == targets
    # each degree two up is fed by the shifts from the degrees between
    for k in range(len(plan.degrees)):
        ups = plan.higher[k]
        twos = [u for u, _, _ in targets[k][len(ups):]]
        assert plan.level(k)[3] == [
            [(t, table) for t in ups for v, table, _ in targets[t] if v == u]
            for u in twos
        ]
    # segment g of table[p] at each level is the position map of element g
    unpacked = _unpacked(plan)
    assert len(unpacked) == len(sym_tables) > 0
    assert _frozen(unpacked) == _frozen(sym_tables)
    # every product of two pieces lands where times puts it
    for D in plan.degrees:
        for E in plan.degrees:
            if sum(D) + sum(E) > horizon:
                continue
            DE = tuple(x + y for x, y in zip(D, E))
            index = {m: p for p, m in enumerate(enumerate_monomials(shape, DE))}
            assert product_table(shape, D, E) == tuple(
                tuple(index[times(m, u)] for m in enumerate_monomials(shape, D))
                for u in enumerate_monomials(shape, E)
            )


@pytest.mark.parametrize(
    "factors, blocks",
    [
        ([4], [(2, 2, 1, 1, 1)]),
        ([2, 1], [(1, 1, 0), (1, 1)]),
        ([1, 0, 2], [(1, 1), (2,), (1, 0, 1)]),
    ],
)
def test_two_degree_shifts_equal_product_table_masks(factors, blocks):
    # a shift table two degrees up is the one-degree table into a degree
    # between, shifted again; it must equal the masks of the products with
    # every monomial of degree two that ring.product_table lists
    shape = FactorShape(factors)
    F = Tensor.monomial(shape, blocks)
    plan = _Plan(shape, F.support_exponents(), SearchConfig(r=2))
    twos = {(k, u) for k in range(len(plan.degrees)) for t in plan.higher[k]
            for u in plan.higher[t]}
    assert twos
    for k, u in twos:
        d = plan.degrees[k]
        products = product_table(shape, d, tuple(y - x for x, y in zip(d, plan.degrees[u])))
        assert plan.shift_table(k, u) == [sum(1 << row[p] for row in products)
                                          for p in range(len(products[0]))]


@pytest.mark.parametrize(
    "factors, blocks, horizon",
    [
        # the shapes of the two plan-table tests above
        ([2], [(2, 2, 2)], None),
        ([3], [(2, 1, 1, 0)], None),
        ([1, 1], [(2, 1), (1, 0)], None),
        ([2, 1], [(1, 1, 0), (0, 1)], None),
        ([1], [(2, 2)], None),
        ([2, 1], [(1, 1, 0), (1, 1)], None),
        ([1, 1, 1], [(1, 1), (1, 1), (2, 0)], None),
        ([6], [(1, 1, 1, 1, 1, 1, 1)], 4),
        # the monomials of the search benchmark's five cases
        ([4], [(1, 1, 1, 1, 1)], None),
        ([4], [(2, 2, 1, 1, 1)], None),
        ([4], [(2, 2, 2, 2, 1)], None),
        ([4], [(3, 2, 2, 1, 1)], None),
    ],
)
def test_apolar_counts_match_level_masks(factors, blocks, horizon):
    # the insufficient-candidates check reads the counts before any level is
    # built; each must be the apolar mask that level(k) builds
    F = Tensor.monomial(FactorShape(factors), blocks)
    plan = _Plan(F.shape, F.support_exponents(), SearchConfig(r=2, horizon=horizon))
    masks = [plan.level(k)[0] for k in range(len(plan.degrees))]
    assert plan.apolar_counts == [mask.bit_count() for mask in masks]


def test_plan_counts_no_divisor_past_the_monomial(monkeypatch):
    # no divisor of a lies past a's own degree, so the plan's apolar counts
    # read dim S_D there without counting, and its build is linear in the
    # horizon
    calls = []
    count = apolarity._bounded_compositions_count

    def counted(bounds, total):
        calls.append(total)
        return count(bounds, total)

    monkeypatch.setattr(apolarity, "_bounded_compositions_count", counted)
    a = Monomial([(2, 1)])
    for horizon in (500, 2000):
        calls.clear()
        plan = _Plan(FactorShape([1]), a, SearchConfig(r=2, horizon=horizon))
        assert sorted(calls) == [1, 2, 3]
        assert plan.apolar_counts[3:] == [
            piece_dimension(plan.shape, d) for d in plan.degrees[3:]
        ]


def test_levels_are_built_on_first_visit(monkeypatch, tmp_path, capsys):
    # a level's tables are built once, when fitting first reaches it
    level, fitting = movefit._Plan.level, movefit._Searcher.fitting
    built, reached, sizes = [], [], set()

    def building(plan, k):
        if plan.levels[k] is None:
            built.append(k)
        sizes.add(len(plan.levels))
        return level(plan, k)

    def visiting(searcher, carried, k, active):
        reached.append(k)
        return fitting(searcher, carried, k, active)

    monkeypatch.setattr(movefit._Plan, "level", building)
    monkeypatch.setattr(movefit._Searcher, "fitting", visiting)

    def run(F, r):
        for log in (built, reached, sizes):
            log.clear()
        return search(F, SearchConfig(r=r))

    F = Tensor.monomial(FactorShape([4]), [(2, 2, 1, 1, 1)])
    assert run(F, 23).status == EXHAUSTED
    assert built == sorted(set(reached)) == [0, 1, 2, 3, 4] and sizes == {7}
    assert run(F, 24).status == FOUND
    assert built == sorted(set(reached)) == list(range(7))
    # ruled out before any piece: the worked example on P^1
    low = run(Tensor.monomial(FactorShape([1]), [(2, 1)]), 1)
    assert low.statistics.prunings == {"insufficient_candidates": 1}
    assert built == reached == []
    # refused by the plan-size guard: (3,...,3) on P^6 at an r the apolar
    # counts do not settle
    tensor = tmp_path / "cube-p6.json"
    tensor.write_text(json.dumps({
        "shape": [6],
        "degree": [21],
        "convention": "divided",
        "terms": [{"exp": [[3] * 7], "num": "1", "den": "1"}],
    }))
    code = cli.main(["search", str(tensor), "--r", "5000", "--budget", "10"])
    assert "search tables" in capsys.readouterr().err
    assert code == EXIT_PRECONDITION and built == reached == []


@pytest.mark.parametrize(
    "factors, blocks, classes",
    [
        ([4], [(2, 2, 1, 1, 1)], [[0, 1], [2, 3, 4]]),
        ([2, 1], [(1, 1, 0), (1, 1)], [[0, 1], [2], [3, 4]]),
        # equal exponents in different factors are not exchanged
        ([1, 1, 1], [(1, 1), (1, 1), (1, 1)], [[0, 1], [2, 3], [4, 5]]),
        ([5], [(1, 1, 1, 1, 1, 1)], [[0, 1, 2, 3, 4, 5]]),  # 720: at the cap
    ],
)
def test_variable_permutations_form_the_stabilizer(factors, blocks, classes):
    a = Monomial(blocks)
    elements, fallback = movefit._variable_permutations(a)
    elements = set(elements)
    assert not fallback
    identity = tuple(range(len(a.flat())))
    assert identity not in elements
    group = elements | {identity}
    assert len(group) == math.prod(math.factorial(len(c)) for c in classes)
    for g in group:
        assert tuple(a.flat()[x] for x in g) == a.flat()
        assert all(sorted(g[x] for x in c) == c for c in classes)
        for h in group:
            # f -> g -> h reads f[g[h[i]]]
            assert tuple(g[h[i]] for i in identity) in group


def test_variable_permutations_above_cap_are_neighbour_transpositions():
    # classes of 7 and 2 (with one singleton) give 7! * 2! > 720 elements
    a = Monomial([(1, 1, 1, 1, 1, 1, 1), (2, 2, 0)])
    elements, fallback = movefit._variable_permutations(a)
    assert fallback
    identity = list(range(10))
    expected = set()
    for s in list(range(6)) + [7]:
        g = list(identity)
        g[s], g[s + 1] = s + 1, s
        expected.add(tuple(g))
    assert len(elements) == len(expected)
    assert set(elements) == expected


# ---------------------------------------------------------------------------
# Metamorphic checks: input and option changes that must not move the status
# ---------------------------------------------------------------------------

def _seeded_cases(seed, count):
    """Random concise monomials, with r drawn from the catalecticant bound
    upward, where the search has work to do on both sides of the border
    rank."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        factors, top, max_total = rng.choice(
            [([1], 5, 8), ([2], 3, 7), ([3], 2, 6), ([1, 1], 2, 6), ([2, 1], 2, 5)]
        )
        blocks = [tuple(rng.randint(1, top) for _ in range(a + 1)) for a in factors]
        if sum(map(sum, blocks)) > max_total:
            continue
        shape = FactorShape(factors)
        F = Tensor.monomial(shape, blocks)
        low = catalecticant_lower_bound(F)
        r = rng.randint(low, min(low + 4, piece_dimension(shape, F.degree)))
        cases.append((shape, blocks, r))
    return cases


def test_status_survives_options_and_relabelling():
    rng = random.Random(5)
    statuses = []
    for shape, blocks, r in _seeded_cases(seed=5, count=120):
        base = search(Tensor.monomial(shape, blocks), SearchConfig(r=r))
        statuses.append(base.status)
        permuted = [tuple(rng.sample(block, len(block))) for block in blocks]
        variants = [(blocks, {"symmetry_pruning": False}), (permuted, {})]
        for variant_blocks, options in variants:
            F = Tensor.monomial(shape, variant_blocks)
            outcome = search(F, SearchConfig(r=r, **options))
            assert outcome.status == base.status, (blocks, r, variant_blocks, options)
            if not options and base.status == EXHAUSTED:
                # an exhausted run visits one piece sequence per orbit,
                # whatever the variable order
                assert outcome.statistics.nodes == base.statistics.nodes
        # the same monomial read with either coefficient convention: plain
        # scales the coefficient by the factorials, which moves no status
        document = {
            "shape": list(shape.factors),
            "degree": [sum(block) for block in blocks],
            "terms": [{"exp": [list(b) for b in blocks], "num": "1", "den": "1"}],
        }
        for convention in ("plain", "divided"):
            F = tensor_from_json({**document, "convention": convention})
            outcome = search(F, SearchConfig(r=r))
            assert outcome.status == base.status, (blocks, r, convention)
    assert statuses.count(EXHAUSTED) >= 5 and statuses.count(FOUND) >= 5


@pytest.fixture
def submitted(monkeypatch):
    """The argument tuples of every task a search submits to a pool."""
    submitted = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def submit(self, fn, *args):
            submitted.append(args)
            return super().submit(fn, *args)

    # movefit reads the pool class from concurrent.futures when a pool starts
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    return submitted


@pytest.mark.parametrize(
    "factors, blocks, r, status",
    [([2, 1], [(1, 1, 1), (1, 1)], 6, EXHAUSTED), ([1, 1], [(2, 2), (1, 1)], 6, FOUND)],
)
@pytest.mark.usefixtures("pool_at_once")
def test_status_survives_parallel_width(submitted, factors, blocks, r, status):
    F = Tensor.monomial(FactorShape(factors), blocks)
    serial = search(F, SearchConfig(r=r))
    pooled = search(F, SearchConfig(r=r, parallel_width=2))
    assert len(submitted) >= 2
    assert pooled.status == serial.status == status
    assert pooled.candidate_pieces == serial.candidate_pieces
    assert pooled.statistics.nodes == serial.statistics.nodes


# ---------------------------------------------------------------------------
# Worked example and generic Hilbert function
# ---------------------------------------------------------------------------

def test_generic_hilbert_clamps():
    shape = FactorShape([2])
    assert generic_hilbert(4, shape, (1,)) == 3
    assert generic_hilbert(4, shape, (2,)) == 4
    assert generic_hilbert(100, shape, (2,)) == 6


def test_worked_example_p1():
    F = Tensor.monomial(FactorShape([1]), [(2, 1)])
    low = search(F, SearchConfig(r=1))
    assert low.status == EXHAUSTED
    assert low.statistics.prunings.get("insufficient_candidates", 0) >= 1
    assert "border rank exceeds 1" in low.note

    high = search(F, SearchConfig(r=2))
    assert high.status == FOUND
    assert high.candidate.generators == (Monomial([(0, 2)]),)
    assert high.candidate_pieces[(1,)] == ()
    assert high.candidate_pieces[(2,)] == (Monomial([(0, 2)]),)
    assert high.candidate_pieces[(3,)] == (
        Monomial([(1, 2)]),
        Monomial([(0, 3)]),
    )
    assert "not verified" in high.note


def test_trivial_r_equals_dimension():
    # r = dim S_L forces nothing: the zero ideal works and the walk settles
    F = Tensor.monomial(FactorShape([2]), [(2, 1, 1)])
    dim_L = piece_dimension(F.shape, F.degree)
    outcome = search(F, SearchConfig(r=dim_L))
    assert outcome.status == FOUND
    assert outcome.candidate.is_zero()


def test_exhausted_and_found_flagship():
    F = Tensor.monomial(FactorShape([2]), [(2, 2, 2)])
    gone = search(F, SearchConfig(r=8, horizon=5))
    assert gone.status == EXHAUSTED
    there = search(F, SearchConfig(r=9))
    assert there.status == FOUND
    report = verify_candidate(there.candidate, F, 9)
    assert report.passed


# ---------------------------------------------------------------------------
# Preconditions
# ---------------------------------------------------------------------------

def test_preconditions():
    F = Tensor.monomial(FactorShape([2]), [(2, 2, 2)])
    with pytest.raises(PreconditionError):
        search(F, SearchConfig(r=0))
    with pytest.raises(PreconditionError):
        search(F, SearchConfig(r=29))  # dim S_L = 28
    with pytest.raises(PreconditionError):
        search(F, SearchConfig(r=5, horizon=0))
    with pytest.raises(PreconditionError):
        search(F, SearchConfig(r=5, parallel_width=0))
    with pytest.raises(PreconditionError):
        search(F, SearchConfig(r=5, node_budget=0))
    G = Tensor(
        FactorShape([1]),
        (1,),
        {Monomial([(1, 0)]): 1, Monomial([(0, 1)]): 1},
    )
    with pytest.raises(PreconditionError):
        search(G, SearchConfig(r=1))


# ---------------------------------------------------------------------------
# Growth (disjoint-module) rule against the search
# ---------------------------------------------------------------------------

def test_growth_prune_settles_flagship_statically():
    # the static rule rules r = 8 out on x0^2 x1^2 x2^2 at degree 4, so the
    # search to horizon 5 is Exhausted and the bounds report agrees
    F = Tensor.monomial(FactorShape([2]), [(2, 2, 2)])
    witness = disjoint_module_obstruction(F, 8, 4)
    assert witness["degree"] == 4
    assert witness["ruled_out_r"] == 8
    assert search(F, SearchConfig(r=8, horizon=5)).status == EXHAUSTED
    assert bounds_report(F).lower > 8


def test_growth_prune_is_conservative():
    # the rule is sound: wherever it rules r out up to degree h - 1, the
    # search to horizon h is Exhausted and the report's lower bound exceeds r
    shape = FactorShape([2])
    cases = []
    for a in range(1, 6):
        for b in range(0, a + 1):
            for c in range(0, b + 1):
                if a + b + c > 5:
                    continue
                F = Tensor.monomial(shape, [(a, b, c)])
                for r in range(1, piece_dimension(shape, F.degree) + 1):
                    cases += [(F, r, h) for h in range(1, a + b + c + 1)]
    witnesses = 0
    for F, r, h in cases:
        if disjoint_module_obstruction(F, r, h - 1) is None:
            continue
        assert search(F, SearchConfig(r=r, horizon=h)).status == EXHAUSTED, (F, r, h)
        assert bounds_report(F).lower > r, (F, r, h)
        witnesses += 1
    assert (len(cases), witnesses) == (882, 7)


# ---------------------------------------------------------------------------
# Budget semantics
# ---------------------------------------------------------------------------

def test_budget_exceeded_and_statistics():
    F = Tensor.monomial(FactorShape([2]), [(2, 2, 2)])
    outcome = search(F, SearchConfig(r=9, node_budget=1))
    assert outcome.status == BUDGET_EXCEEDED
    assert outcome.candidate is None
    assert "budget" in outcome.note
    data = outcome.to_json()
    assert data["status"] == BUDGET_EXCEEDED
    assert data["candidate_generators"] is None
    assert set(data["statistics"]) == {
        "nodes",
        "prunings",
        "memo_hits",
        "symmetry_elements",
        "symmetry_fallback",
        "pooled",
        "wall_time_seconds",
    }


# ---------------------------------------------------------------------------
# Failure memo
# ---------------------------------------------------------------------------

_MEMO_CASE = Tensor.monomial(FactorShape([4]), [(3, 2, 2, 1, 1)])


def test_memo_charges_repeated_failures(monkeypatch):
    # 32211 r33 re-enters failed states thousands of times; each entry is
    # charged from the memo, and the pinned counts above stay those of a
    # full walk.  A memo emptied every few states charges fewer subtrees and
    # walks the rest, to the same counts
    full = search(_MEMO_CASE, SearchConfig(r=33)).statistics
    assert full.memo_hits > 0
    monkeypatch.setattr(movefit, "_MEMO_ENTRIES", 8)
    capped = search(_MEMO_CASE, SearchConfig(r=33)).statistics
    assert 0 < capped.memo_hits < full.memo_hits
    assert (capped.nodes, capped.prunings) == (full.nodes, full.prunings)


def test_memo_key_is_the_whole_state():
    # the walk below level k reads carried[k:] and the active elements.  The
    # same carried images with and without active elements are different
    # subtrees (the README example prunes by symmetry in one and not in the
    # other), so walking both with one memo must charge each its own counts
    F = Tensor.monomial(FactorShape([2]), [(2, 2, 2)])
    plan = _Plan(F.shape, F.support_exponents(), SearchConfig(r=8, horizon=5))
    zeros = [0] * len(plan.degrees)
    shared = movefit._Searcher(plan, None)
    for active in (list(range(len(plan.group))), []):
        alone = movefit._Searcher(plan, None)
        assert alone.descend(zeros, active, 0) is None
        nodes, prunings = shared.nodes, dict(shared.prunings)
        assert shared.descend(zeros, active, 0) is None
        spent = {
            cause: count - prunings.get(cause, 0)
            for cause, count in shared.prunings.items()
            if count != prunings.get(cause, 0)
        }
        assert (shared.nodes - nodes, spent) == (alone.nodes, alone.prunings)
    # and every failed state is recorded under its level, each carried image
    # from that level on, and the active elements
    assert shared.memo
    for k, images, active in shared.memo:
        assert len(images) == len(plan.degrees) - k
        assert set(active) <= set(range(len(plan.group)))


@pytest.mark.parametrize("budget", [1, 97, 1000, 5003, 6789, 7131])
def test_memo_stops_budget_on_the_walks_node(budget):
    # a charged subtree larger than the budget left stops the run where the
    # walk would have stopped: one node past the budget.  The run has 7,132
    # nodes, so the last budget stops it on its last node
    outcome = search(_MEMO_CASE, SearchConfig(r=33, node_budget=budget))
    assert outcome.status == BUDGET_EXCEEDED
    assert outcome.statistics.nodes == budget + 1


# ---------------------------------------------------------------------------
# Symmetry group reporting
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "n, elements, fallback",
    [
        (5, 719, False),  # 6! = 720 permutations: the whole group, identity aside
        (6, 6, True),  # 7! = 5040 > 720: neighbour transpositions
    ],
)
def test_statistics_report_symmetry_group(n, elements, fallback):
    F = Tensor.monomial(FactorShape([n]), [(1,) * (n + 1)])
    statistics = search(F, SearchConfig(r=3, horizon=2)).to_json()["statistics"]
    assert statistics["symmetry_elements"] == elements
    assert statistics["symmetry_fallback"] is fallback
    plain = search(F, SearchConfig(r=3, horizon=2, symmetry_pruning=False))
    assert plain.statistics.symmetry_elements == 0
    assert plain.statistics.symmetry_fallback is False


@pytest.mark.parametrize(
    "kwargs, status",
    [
        ({**kwargs, "parallel_width": width}, status)
        for width in (1, 2)
        for kwargs, status in [
            ({"r": 9}, FOUND),
            ({"r": 8, "horizon": 5}, EXHAUSTED),
            ({"r": 9, "node_budget": 2}, BUDGET_EXCEEDED),
        ]
    ],
)
@pytest.mark.usefixtures("pool_at_once")
def test_serial_search_releases_plan(kwargs, status):
    # worker state belongs to pool processes; once search() returns, the
    # calling process must not keep the plan alive
    F = Tensor.monomial(FactorShape([2]), [(2, 2, 2)])
    assert search(F, SearchConfig(**kwargs)).status == status
    assert movefit._WORKER_STATE is None


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.usefixtures("pool_at_once")
def test_budget_boundary(width):
    # the budget counts the nodes of the whole run, so a Found run of N
    # nodes fits a budget of N, and a budget of N - 1 stops it on its last
    # node, which is counted: N nodes, one past the budget
    F = Tensor.monomial(FactorShape([4]), [(2, 2, 1, 1, 1)])
    free_run = search(F, SearchConfig(r=24, parallel_width=width))
    assert free_run.status == FOUND
    nodes = free_run.statistics.nodes
    exact = search(F, SearchConfig(r=24, parallel_width=width, node_budget=nodes))
    assert exact.status == FOUND
    assert exact.candidate_pieces == free_run.candidate_pieces
    short = search(F, SearchConfig(r=24, parallel_width=width, node_budget=nodes - 1))
    assert short.status == BUDGET_EXCEEDED
    assert short.statistics.nodes == nodes


def test_budget_large_enough_changes_nothing():
    F = Tensor.monomial(FactorShape([2]), [(2, 2, 2)])
    free_run = search(F, SearchConfig(r=9))
    capped = search(F, SearchConfig(r=9, node_budget=10**9))
    assert capped.status == FOUND
    assert capped.candidate.generators == free_run.candidate.generators


# ---------------------------------------------------------------------------
# Parallel determinism
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("width", [2, 4])
@pytest.mark.usefixtures("pool_at_once")
def test_parallel_found_deterministic(width):
    F = Tensor.monomial(FactorShape([2]), [(2, 2, 2)])
    seq = search(F, SearchConfig(r=9))
    par = search(F, SearchConfig(r=9, parallel_width=width))
    assert par.status == seq.status == FOUND
    assert par.candidate.generators == seq.candidate.generators
    assert par.candidate_pieces == seq.candidate_pieces


@pytest.mark.usefixtures("pool_at_once")
def test_parallel_width_two_matches_serial():
    F = Tensor.monomial(FactorShape([4]), [(2, 2, 1, 1, 1)])
    serial = search(F, SearchConfig(r=24)).to_json()
    pooled = search(F, SearchConfig(r=24, parallel_width=2)).to_json()
    assert serial["status"] == pooled["status"] == FOUND
    assert serial["candidate_generators"] == pooled["candidate_generators"]
    assert serial["statistics"]["nodes"] == pooled["statistics"]["nodes"]


_START_METHOD_RUN = """
import json, multiprocessing, sys
from borderrank import movefit
from borderrank.apolarity import Tensor
from borderrank.movefit import SearchConfig, search
from borderrank.ring import FactorShape

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    movefit._SERIAL_SECONDS = 0  # the first level with two pieces goes to the pool
    F = Tensor.monomial(FactorShape([4]), [(2, 2, 1, 1, 1)])
    print(json.dumps(search(F, SearchConfig(r=24, parallel_width=2)).to_json()))
"""


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_pool_matches_serial_under_start_method(tmp_path, method):
    # spawn and forkserver workers get the plan by pickling, not by fork, so
    # the plan must be plain data; the pooled outcome is the serial one
    F = Tensor.monomial(FactorShape([4]), [(2, 2, 1, 1, 1)])
    serial = search(F, SearchConfig(r=24)).to_json()
    script = tmp_path / "pooled.py"
    script.write_text(_START_METHOD_RUN)
    env = {**os.environ, "PYTHONPATH": str(Path(borderrank.__file__).parent.parent)}
    done = subprocess.run(
        [sys.executable, str(script), method],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    pooled = json.loads(done.stdout)
    assert pooled["status"] == serial["status"] == FOUND
    assert pooled["candidate_pieces"] == serial["candidate_pieces"]
    assert pooled["statistics"]["nodes"] == serial["statistics"]["nodes"]


_START_METHOD_CLI_RUN = """
import multiprocessing, sys
from borderrank import cli

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    # movefit is loaded here, through the CLI's lazy entry, as a command loads it
    cli.movefit._SERIAL_SECONDS = 0
    sys.exit(cli.main(["search", sys.argv[2], "--r", "24", "--jobs", "2"]))
"""


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_cli_pool_matches_serial_under_start_method(tmp_path, method):
    # the CLI enters the package modules lazily; its workers, which import
    # the script and unpickle functions of `borderrank.movefit` by name, must
    # find the one module the parent ran
    path = cli._corpus_path("mono-22111.json")
    serial = search(cli.load_tensor(path), SearchConfig(r=24)).to_json()
    script = tmp_path / "pooled.py"
    script.write_text(_START_METHOD_CLI_RUN)
    env = {**os.environ, "PYTHONPATH": str(Path(borderrank.__file__).parent.parent)}
    done = subprocess.run(
        [sys.executable, str(script), method, path],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    pooled = json.loads(done.stdout)["outcome"]
    assert pooled["statistics"]["pooled"] is True
    assert pooled["status"] == serial["status"] == FOUND
    assert pooled["candidate_pieces"] == serial["candidate_pieces"]
    assert pooled["statistics"]["nodes"] == serial["statistics"]["nodes"]


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.usefixtures("pool_at_once")
def test_found_reads_branching_level_lazily(width):
    # the last level has C(125, 26) > 10^27 fitting pieces and the first one
    # completes a candidate, so the pieces must not be listed first
    F = Tensor.monomial(FactorShape([4]), [(1, 1, 1, 1, 1)])
    outcome = search(F, SearchConfig(r=100, parallel_width=width))
    assert outcome.status == FOUND
    assert outcome.statistics.nodes == 5


@pytest.mark.parametrize(
    "n, exps, kwargs, status",
    [
        (2, (4, 4, 2), {"r": 14}, EXHAUSTED),
        (3, (2, 2, 2, 1), {"r": 15}, EXHAUSTED),
        (4, (2, 2, 1, 1, 1), {"r": 21}, EXHAUSTED),
        (4, (2, 2, 1, 1, 1), {"r": 23, "node_budget": 2}, BUDGET_EXCEEDED),
    ],
)
@pytest.mark.usefixtures("pool_at_once")
def test_pool_merges_like_serial(submitted, n, exps, kwargs, status):
    # the first three cases have 8, 6 and 27 nodes, on levels of a few
    # nodes each; at width 2 even those go through the pool, and the merged
    # status and nodes must equal the serial run's.  The pool reads pieces
    # ahead of the serial walk, so prunings are equal only when both runs
    # read them all
    F = Tensor.monomial(FactorShape([n]), [exps])
    serial = search(F, SearchConfig(**kwargs))
    pooled = search(F, SearchConfig(parallel_width=2, **kwargs))
    assert len(submitted) >= 2
    assert pooled.status == serial.status == status
    assert pooled.statistics.nodes == serial.statistics.nodes
    if status == EXHAUSTED:
        assert pooled.statistics.prunings == serial.statistics.prunings


@pytest.mark.usefixtures("pool_at_once")
def test_pool_spans_carry_only_what_the_next_level_reads(submitted):
    # a span carries its level's carried images, degree and budget left, and
    # each node as its piece, its images one degree up and the active
    # elements that fix the piece: no images two degrees up, no packed
    # images under the group, and no mask of the active elements
    F = Tensor.monomial(FactorShape([4]), [(2, 2, 1, 1, 1)])
    config = SearchConfig(r=23, parallel_width=2)
    assert search(F, config).statistics.pooled is True
    plan = _Plan(F.shape, F.support_exponents(), config)
    group = range(len(plan.group))
    fixing = collections.Counter()
    for (carried, k, left), span in submitted:
        assert len(carried) == len(plan.degrees) and left is None
        maps = _segment_maps(plan, k, group)
        for piece, images, active in span:
            assert images == [carried[t] | shifted(plan, piece, k, t) for t in plan.higher[k]]
            own = sorted(movefit._bits(piece))
            assert all(sorted(maps[g][p] for p in own) == own for g in active)
            fixing[bool(active)] += 1
    assert len(submitted) >= 2 and fixing[True] and fixing[False]


@pytest.mark.parametrize("exps, r", [((1, 1, 1, 1, 1), 15), ((2, 2, 1, 1, 1), 24)])
def test_short_run_starts_no_pool(submitted, exps, r):
    # a run that ends within the serial period walks in this process, as
    # width 1 does: it submits nothing, and only its wall time differs
    F = Tensor.monomial(FactorShape([4]), [exps])
    documents = [
        search(F, SearchConfig(r=r, parallel_width=width)).to_json() for width in (1, 2)
    ]
    for document in documents:
        del document["statistics"]["wall_time_seconds"]
    assert submitted == []
    assert documents[0] == documents[1]
    assert documents[1]["statistics"]["pooled"] is False


_SWITCH_RUN = """
import concurrent.futures, itertools, json, multiprocessing, sys
from borderrank import movefit
from borderrank.apolarity import Tensor
from borderrank.movefit import SearchConfig, search
from borderrank.ring import FactorShape


class MemoPool(concurrent.futures.ProcessPoolExecutor):
    # records how many failed states each pool hands its workers
    def __init__(self, *args, initargs, **kwargs):
        memos.append(len(initargs[-1]))
        super().__init__(*args, initargs=initargs, **kwargs)


if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    exps, kwargs, readings = json.loads(sys.argv[2])
    # the clock stands still for the first readings, one at the start and
    # one per piece taken, then jumps past the serial period: the pool is
    # due at a fixed point of the walk
    ticks = itertools.count()
    movefit.perf_counter = lambda: 0.0 if next(ticks) < readings else 1e6
    memos = []
    concurrent.futures.ProcessPoolExecutor = MemoPool
    F = Tensor.monomial(FactorShape([4]), [exps])
    outcome = search(F, SearchConfig(parallel_width=2, **kwargs)).to_json()
    print(json.dumps({"outcome": outcome, "memos": memos}))
"""


@pytest.mark.parametrize("method", ["fork", "spawn"])
@pytest.mark.parametrize(
    "exps, kwargs, readings, status",
    [
        ((3, 2, 2, 1, 1), {"r": 33}, 300, EXHAUSTED),
        ((2, 2, 1, 1, 1), {"r": 24}, 40, FOUND),
        ((3, 2, 2, 1, 1), {"r": 33, "node_budget": 5000}, 300, BUDGET_EXCEEDED),
    ],
)
def test_pool_restarts_on_the_serial_memo(tmp_path, method, exps, kwargs, readings, status):
    # a run still going after its serial period hands the pieces left at
    # the level it stands on to a pool whose workers start from the memo the
    # serial walk filled; the status, nodes and first Found are the serial
    # run's, and so are the prunings of an Exhausted run
    F = Tensor.monomial(FactorShape([4]), [exps])
    serial = search(F, SearchConfig(**kwargs)).to_json()
    script = tmp_path / "switched.py"
    script.write_text(_SWITCH_RUN)
    env = {**os.environ, "PYTHONPATH": str(Path(borderrank.__file__).parent.parent)}
    done = subprocess.run(
        [sys.executable, str(script), method, json.dumps([exps, kwargs, readings])],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    pooled = result["outcome"]
    assert pooled["status"] == serial["status"] == status
    assert pooled["statistics"]["nodes"] == serial["statistics"]["nodes"]
    assert pooled["candidate_pieces"] == serial["candidate_pieces"]
    if status == EXHAUSTED:
        assert pooled["statistics"]["prunings"] == serial["statistics"]["prunings"]
    assert pooled["statistics"]["pooled"] is True
    assert result["memos"] and all(result["memos"])


@pytest.mark.parametrize("readings", [100, 500, 600])
def test_pooled_run_generates_no_piece_twice(monkeypatch, readings):
    # the pool takes over where the serial walk stands, so this process
    # yields no piece twice: at most the pieces of the width-1 run, wherever
    # the clock jumps past the serial period (see _SWITCH_RUN)
    F = Tensor.monomial(FactorShape([4]), [(2, 2, 1, 1, 1)])
    here = os.getpid()
    yielded = collections.Counter()
    fitting = movefit._Searcher.fitting

    def counted(self, *args):
        for entry in fitting(self, *args):
            yielded[os.getpid() == here] += 1
            yield entry

    monkeypatch.setattr(movefit._Searcher, "fitting", counted)
    serial = search(F, SearchConfig(r=23))
    alone = yielded[True]
    yielded.clear()
    ticks = itertools.count()
    monkeypatch.setattr(
        movefit, "perf_counter", lambda: 0.0 if next(ticks) < readings else 1e6
    )
    pooled = search(F, SearchConfig(r=23, parallel_width=2))
    assert pooled.statistics.pooled is True
    assert pooled.status == serial.status == EXHAUSTED
    assert pooled.statistics.nodes == serial.statistics.nodes
    assert yielded[True] <= alone


@pytest.mark.usefixtures("pool_at_once")
def test_parallel_exhausted_deterministic():
    F = Tensor.monomial(FactorShape([3]), [(2, 2, 1, 1)])
    seq = search(F, SearchConfig(r=11, horizon=5))
    par = search(F, SearchConfig(r=11, horizon=5, parallel_width=2))
    assert seq.status == par.status == EXHAUSTED


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


def _corpus_json(name):
    path = resources.files("borderrank") / "corpus" / name
    return json.loads(path.read_text())


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
# Slow exhaustions
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("pool_at_once")
def test_slow_exhaustion_squarefree_quintic():
    F = Tensor.monomial(FactorShape([4]), [(1, 1, 1, 1, 1)])
    outcome = search(F, SearchConfig(r=15, parallel_width=4))
    assert outcome.status == EXHAUSTED


@pytest.mark.usefixtures("pool_at_once")
def test_slow_exhaustion_mixed_exponents():
    F = Tensor.monomial(FactorShape([4]), [(2, 2, 1, 1, 1)])
    outcome = search(F, SearchConfig(r=23, parallel_width=4))
    assert outcome.status == EXHAUSTED

"""Backtracking search for monomial ideals with the generic Hilbert function
inside the apolar ideal of a monomial.

A border-rank bound br(F) <= r forces an ideal I inside F^perp whose Hilbert
function is dim(S/I)_D = min(r, dim S_D) in every multidegree.  The search
enumerates candidate graded pieces degree by degree up to a horizon: each
piece must contain the shifts of all lower pieces (the ideal property), stay
inside the apolar piece, and have the exact forced dimension.

Exhausted is a certificate: no such truncated ideal exists, hence br(F) > r.
Found only produces a candidate; the flat-limit condition that would turn it
into an actual border-rank-r decomposition is NOT checked here, so Found
never certifies br(F) <= r.

Pieces are bitmasks over the descending-grevlex monomial list of each
multidegree, so the hot loop is integer arithmetic.  A level's tables are
built the first time the walk reaches it, so a run that fails low never
builds the top levels, which are the largest.  The search carries, for
every level, the image of the pieces chosen so far (their shifts by one
variable), so the mandatory part of a piece is read off, never rebuilt.  It
also looks ahead: a piece is built bit by bit in increasing position, and a
bit is cut as soon as the image of the piece would give some higher level
more monomials than that level's piece may have, two degrees up as well as
one: the products of a piece with the monomials of degree two lie in the
image that the next degree's entry test reads.  Images only grow as bits are
added, so the cut loses no piece that fits, and the pieces still come in
lexicographic order.  It also counts ahead: while a piece still has to take
all but s of the free bits left, a monomial of a higher level that more than
s of those bits map to is hit by one the piece takes (pigeonhole), so it lies
in the image of every completion, and the partial piece is cut when those
monomials already overflow the level.  At s = 0 the one completion takes
every bit left, so the count is exact and the completion is emitted whole.
Both cuts drop only partial pieces with no fitting completion, so the pieces
and their order stay those of the plain bit-by-bit walk.  Symmetry pruning
quotients by variable permutations fixing the exponent vector; a state is
discarded if relabelling makes its piece sequence strictly smaller in the
prefix order, which keeps the lexicographically least member of every orbit
and hence preserves both the Exhausted status and the first candidate found.
The test runs while a piece is built, on all active permutations at once in
one packed int, and cuts a partial piece as soon as every completion of it
would be discarded.  A node is a complete piece that fits every level one or
two degrees up and passes the symmetry test, so an Exhausted run counts one
node per orbit of fitting prefixes, whatever the order of the variables; the
node budget counts these nodes.  At width K > 1 the walk is the same until a
serial period is over; from then on a level with two or more pieces left
hands them to one process pool per run in spans, each piece with its
images one degree up and the active permutations that fix it, so a worker
only counts and descends them.
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
import sys
from time import perf_counter
from typing import NamedTuple

from . import ideals
from .apolarity import Tensor, monomial_catalecticant_rank
from .errors import PreconditionError
from .ring import (
    FactorShape,
    Monomial,
    check_r_and_horizon,
    degree_add,
    degree_le,
    degree_sub,
    degrees_up_to,
    enumerate_monomials,
    generic_hilbert,
    monomial_to_text,
    piece_dimension,
    positions,
    product_table,
)

EXHAUSTED = "Exhausted"
FOUND = "Found"
BUDGET_EXCEEDED = "BudgetExceeded"

FOUND_NOTE = (
    "candidate only: the Hilbert function, containment and ideal conditions "
    "hold up to the horizon, but the flat-limit condition for border rank "
    "<= r is not verified"
)

_SYMMETRY_GROUP_CAP = 720

# refuse a search whose plan lists or tables are estimated above this many bytes
_PLAN_BYTES_LIMIT = 1 << 30

# how many spans of a split level a process pool may have submitted
# ahead of the result being merged
_SPANS_AHEAD = 64

# a process's failure memo is emptied when it holds this many states: a state
# took 415-460 bytes on 22111 r23, 32211 r33, 22221 r39, 3331 r31 and 33111
# r31 (each active symmetry element adds 8), so the memo stays near 60 MB
_MEMO_ENTRIES = 1 << 17

# a search at width K > 1 walks in this process for this many seconds before
# a level may hand its pieces to a pool, so a shorter run pays no pool
# start-up (see descend)
_SERIAL_SECONDS = 0.5


# the result records declare their fields in the key order of the CLI's
# documents, so each one's _asdict() is its JSON form
class SearchConfig(NamedTuple):
    r: int
    horizon: int | None = None  # defaults to the total degree of F
    symmetry_pruning: bool = True
    parallel_width: int = 1
    node_budget: int | None = None  # nodes of the whole run: canonical pieces


class SearchStatistics(NamedTuple):
    nodes: int
    prunings: dict
    memo_hits: int  # subtrees charged from the failure memo, not walked
    symmetry_elements: int  # elements the symmetry test used
    symmetry_fallback: bool  # transpositions, not the group
    pooled: bool  # a pool was created: depends on the host's speed
    wall_time_seconds: float  # rounded to microseconds


class SearchOutcome(NamedTuple):
    status: str  # Exhausted | Found | BudgetExceeded
    r: int
    horizon: int
    candidate: ideals.MonomialIdeal | None
    candidate_pieces: dict | None  # MultiDegree -> tuple[Monomial, ...]
    note: str
    statistics: SearchStatistics

    def to_json(self) -> dict:
        pieces = None
        if self.candidate_pieces is not None:
            pieces = {
                ",".join(str(x) for x in d): [monomial_to_text(m) for m in mons]
                for d, mons in self.candidate_pieces.items()
            }
        return {
            "status": self.status,
            "r": self.r,
            "horizon": self.horizon,
            "candidate_generators": None
            if self.candidate is None
            else [monomial_to_text(g) for g in self.candidate.generators],
            "candidate_pieces": pieces,
            "note": self.note,
            "statistics": self.statistics._asdict(),
        }


# ---------------------------------------------------------------------------
# Plan: everything the hot loop needs, as plain picklable data
# ---------------------------------------------------------------------------

class _Plan:
    """The fixed data of the search of config in the apolar ideal of the
    monomial a, and each level's tables once built.

    The degrees, reqs, dims and the group are worked out when the plan is
    made; a level's tables are built the first time the walk reaches it (see
    level), since an Exhausted run usually fails long before the horizon and
    the top levels are the largest; only the shifts of a degree into those
    one higher are needed, and built, one level earlier.  Plain data plus
    methods, so a pool worker gets a copy by pickling: it holds the levels
    built before the split, and the worker builds the deeper ones itself."""

    def __init__(self, shape: FactorShape, a: Monomial, config: SearchConfig):
        self.shape = shape
        self.a = a
        horizon = a.total_degree if config.horizon is None else config.horizon
        self.horizon = horizon
        check_r_and_horizon(config.r, horizon)
        dim_L = piece_dimension(shape, a.degree)
        if config.r > dim_L:
            raise PreconditionError(
                f"r = {config.r} exceeds dim S_L = {dim_L}; the hypothesis "
                "br(F) <= r is vacuous there"
            )
        if config.parallel_width < 1:
            raise PreconditionError("parallel width must be >= 1")
        if config.node_budget is not None and config.node_budget < 1:
            raise PreconditionError("node budget must be >= 1")
        # building the per-level lists peaks near 1 KiB a level (measured on
        # one to four factors), so the levels are counted before they are listed
        w = shape.num_factors
        count = math.comb(horizon + w, w) - 1
        if count << 10 > _PLAN_BYTES_LIMIT:
            raise PreconditionError(
                f"the plan would list {count:,} degrees, about {count >> 10:,} MiB "
                f"at 1 KiB a degree, over the limit of {_PLAN_BYTES_LIMIT >> 20:,} "
                "MiB; lower the horizon"
            )

        # ascending (total, lex); degree 0 is left out: I_0 = 0 for every r >= 1
        self.degrees = degrees = degrees_up_to(w, horizon)[1:]
        deg_index = {d: k for k, d in enumerate(degrees)}
        # per degree: the indices of the degrees one higher, factor by factor
        self.higher = higher = [
            [
                deg_index[up]
                for j in range(w)
                if (up := degree_add(d, shape.unit_degree(j))) in deg_index
            ]
            for d in degrees
        ]
        # flat index maps of the elements the symmetry test uses, and whether
        # they are the transpositions, not the group
        self.group, self.symmetry_fallback = (
            _variable_permutations(a) if config.symmetry_pruning else ([], False)
        )
        dims = [piece_dimension(shape, d) for d in degrees]  # dim S_D
        # dim I_D forced by the Hilbert function
        self.reqs = [dim - generic_hilbert(config.r, shape, d) for d, dim in zip(degrees, dims)]
        # the monomials outside the divisor set of a
        self.apolar_counts = [
            dim - monomial_catalecticant_rank(a, d) for d, dim in zip(degrees, dims)
        ]
        # a table entry is an int as wide as the degree it points into: dim_t bits
        # for each target t, one or two degrees higher, and a segment of dim_k + 1
        # bits per group element
        reach = [{*h, *(u for t in h for u in higher[t])} for h in higher]
        table_bytes = sum(
            dim * (sum(dims[t] for t in reach[k]) + len(self.group) * (dim + 1))
            for k, dim in enumerate(dims)
        ) // 8
        # a search the apolar counts settle builds no table (see search)
        if table_bytes > _PLAN_BYTES_LIMIT and all(
            map(operator.ge, self.apolar_counts, self.reqs)
        ):
            raise PreconditionError(
                f"the search tables would take about {table_bytes >> 20:,} MiB, "
                f"over the limit of {_PLAN_BYTES_LIMIT >> 20:,} MiB; "
                "lower the horizon"
            )
        self.levels = [None] * len(degrees)  # per degree: level(k)'s tables, once built
        self.shifts = {}  # (k, u) -> shift table from degree k into u, once built

    def shift_table(self, k, u):
        """table[p]: the mask of the products of monomial p of degree k with
        every monomial of degree u - k, u one or two degrees higher, built on
        the first call.  Two degrees up, the shifts into a degree t between
        are shifted into u again: every monomial of degree u - k is a
        variable of degree t - k times one of degree u - t."""
        table = self.shifts.get((k, u))
        if table is None:
            if u in self.higher[k]:
                d = self.degrees[k]
                products = product_table(self.shape, d, degree_sub(self.degrees[u], d))
                # distinct monomials of S_{u-k} give distinct products, so the
                # sum of their bits is their union
                table = [sum(1 << x for x in c) for c in zip(*products)]
            else:
                t = next(t for t in self.higher[k] if u in self.higher[t])
                table = [_image(m, self.shift_table(t, u)) for m in self.shift_table(k, t)]
            self.shifts[k, u] = table
        return table

    def level(self, k):
        """(mask, targets, symmetry, feeds) of level k, built on first call.

        mask is the bitmask of the monomials outside the divisor set of a.
        targets holds (target index, table, target req) for each degree one
        higher, then for each degree u two higher, with table[p] the mask of
        the products of monomial p into the target (see shift_table).
        feeds holds, per degree two higher, (t, table) for each degree t
        between, with table the shifts from t into it.  symmetry is (table,
        guard), or None with no group: element g owns bits g*W to
        g*W + W - 1, W = dim + 1, table[p] holds the bit g(p) of every
        segment, and guard the top bit of each."""
        tables = self.levels[k]
        if tables is not None:
            return tables
        pos = positions(self.shape, self.degrees[k])
        a = self.a.flat()
        mask = 0
        for p, f in enumerate(pos):
            if not degree_le(f, a):
                mask |= 1 << p
        between = {}  # degree two higher -> the degrees one higher below it
        for t in self.higher[k]:
            for u in self.higher[t]:
                between.setdefault(u, []).append(t)
        targets = [
            (u, self.shift_table(k, u), self.reqs[u])
            for u in [*self.higher[k], *between]
        ]
        feeds = [[(t, self.shift_table(t, u)) for t in ts] for u, ts in between.items()]
        symmetry = None
        if self.group:
            # segment g of table[p] holds the one bit g(p), under a guard bit;
            # each entry is set bit by bit in a buffer, since OR-ing bits into
            # an int copies it once per bit
            permutes = [operator.itemgetter(*g) for g in self.group]  # f -> f[g[x]]
            width = len(pos) + 1
            starts = range(0, len(self.group) * width, width)
            table = []
            for f in pos:
                buf = bytearray((len(self.group) * width + 7) >> 3)
                for start, permute in zip(starts, permutes):
                    b = start + pos[permute(f)]
                    buf[b >> 3] |= 1 << (b & 7)
                table.append(int.from_bytes(buf, "little"))
            symmetry = (table, sum(1 << start + len(pos) for start in starts))
        tables = self.levels[k] = (mask, targets, symmetry, feeds)
        return tables


def _variable_permutations(a: Monomial):
    """(elements, fallback): the permutations of the variables, factor by
    factor, fixing the exponent vector of a, identity excluded.  An element
    g maps a flat exponent tuple f to tuple(f[x] for x in g).  Above
    _SYMMETRY_GROUP_CAP elements only the transpositions of neighbours in
    each class are returned, with fallback True: a generating set is still a
    sound (weaker) pruning group."""
    classes = {}
    flat_index = itertools.count()
    for j, block in enumerate(a.exponents):
        for e in block:
            classes.setdefault((j, e), []).append(next(flat_index))
    classes = list(classes.values())
    identity = tuple(range(len(a.flat())))

    def moved(pairs):
        g = list(identity)
        for src, dst in pairs:
            g[src] = dst
        return tuple(g)

    if math.prod(math.factorial(len(c)) for c in classes) > _SYMMETRY_GROUP_CAP:
        return [moved([(s, t), (t, s)]) for c in classes for s, t in zip(c, c[1:])], True
    elements = (
        moved(pair for c, image in zip(classes, images) for pair in zip(c, image))
        for images in itertools.product(*map(itertools.permutations, classes))
    )
    return [g for g in elements if g != identity], False


# the benchmark's traced run (perfbench/traced_cli.py) times the plan build
# under this name, and verification under movefit.verify_candidate, which the
# hook below reads from `ideals` on demand, so that a search runs no `ideals`
_build_plan = _Plan


def __getattr__(name: str):
    if name == "verify_candidate":
        return ideals.verify_candidate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# Hot loop
# ---------------------------------------------------------------------------

def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# maps the digits of bin(mask) to the selector bytes 0 and 1
_DIGIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _image(mask: int, table: list) -> int:
    """The union of table[p] over the bits p of mask."""
    img = 0
    selectors = bin(mask)[:1:-1].encode().translate(_DIGIT_BYTES)
    for bits in itertools.compress(table, selectors):
        img |= bits
    return img


def _look_ahead(targets, free, need):
    """(forced, rest) for a piece that takes need of the bits free.

    forced[j][i] holds, per target, the target monomials hit by more than j
    of the bits free[i:], where a bit hits the monomials of its table entry,
    so the count is the same for a target one or two degrees higher;
    rest[i] is the mask of free[i:].  A monomial is hit by more than j bits
    of free[i:] when it is hit by more than j of free[i + 1:], or by free[i]
    and more than j - 1 of free[i + 1:], so each layer is one suffix pass
    over the one below it.  fitting reads layer j only where j free bits
    remain to be skipped, i >= n - need - j, so that is all that is built.
    forced[j][i] only shrinks as i grows, and forced[j + 1][i] lies inside
    forced[j][i + 1], so an empty forced[j][n - need - j] makes layer j and
    every layer above it empty: the layers stop there, past layer 0."""
    n = len(free)
    rest = [0] * (n + 1)
    for i in range(n - 1, n - need - 1, -1):
        rest[i] = rest[i + 1] | 1 << free[i]
    pick = operator.itemgetter(*free)
    hits = [pick(table) for _, table, _ in targets]
    above = [[-1] * (n + 1)] * len(targets)  # every monomial is hit > -1 times
    forced = []
    for j in range(n):
        lo = max(0, n - need - j)
        layer = []
        for h, g in zip(hits, above):
            f = [0] * (n + 1)
            for i in range(n - 1 - j, lo - 1, -1):
                f[i] = f[i + 1] | h[i] & g[i + 1]
            layer.append(f)
        if j and not any(f[lo] for f in layer):
            break
        forced.append(list(zip(*layer)) if layer else [()] * (n + 1))
        above = layer
    return forced, rest


class _BudgetHit(Exception):
    pass


class _Searcher:
    """Depth-first search with a node budget, in this process or, once the
    clock reads `switch`, partly on a pool of `workers` processes.

    `carried[t]` is the image in level t of the pieces chosen so far, so at
    level k it is the mandatory set.  Each assignment extends a copy of it,
    so a failed branch leaves nothing to reset, and the pieces of a Found
    come back up the return path.  `memo` maps the state of each failed
    subtree to what walking it cost (see descend); a pool worker passes
    the one it keeps across its spans.  The first split creates `pool`,
    and the caller shuts it down."""

    def __init__(self, plan: _Plan, budget, workers=None, memo=None, switch=None):
        self.plan = plan
        self.budget = budget  # most nodes to count, or None
        self.workers = workers  # pool width, or None to search in-process
        self.memo = {} if memo is None else memo
        self.switch = switch  # perf_counter() time the pool may take over at
        self.pool = None
        # descend refuses a level this deep on entry: with descend and assign
        # two frames a level, the caller and a level's own calls are left 100
        # frames (the CLI and the deepest calls inside a level take under 20)
        self.deepest = sys.getrecursionlimit() // 2 - 50
        self.nodes = 0
        self.prunings = {}
        self.memo_hits = 0

    def _charge(self, n):
        """Count n nodes; stop past the budget, counting budget + 1."""
        self.nodes += n
        if self.budget is not None and self.nodes > self.budget:
            self.nodes = self.budget + 1
            raise _BudgetHit()

    def _absorb(self, nodes, prunings):
        """Count the nodes and the (cause, count) prunings of a subtree
        walked elsewhere: by a pool worker, or earlier (see descend)."""
        for cause, count in prunings:
            self.prunings[cause] = self.prunings.get(cause, 0) + count
        self._charge(nodes)

    def _prune(self, cause):
        self.prunings[cause] = self.prunings.get(cause, 0) + 1

    def fitting(self, carried, k, active):
        """The nodes of level k in lexicographic order of the added bits:
        each piece that fits and that the symmetry test keeps, with its
        images one degree up and the active elements that fix it.

        A piece is the mandatory set M = carried[k] plus need = req_k - |M|
        of the n free bits of the apolar mask, and fits when its image in
        every target, joined to what the pieces chosen so far put there,
        has at most req bits.  That is carried[t] in a target t, and in a
        degree two higher also the shifts of carried at each degree
        between, which the pieces of level k never change.  The bits are
        chosen one at a time in increasing position, and a bit is cut as
        soon as a target would overflow: adding bits only grows an image,
        so no fitting piece is lost.  M stays inside the apolar mask: a
        multiple of a monomial outside the divisor set of a is outside it
        too.

        A target u two degrees higher starts from carried[u] and the shifts
        of carried[t] for each degree t between.  On entry to the later such
        t, its mandatory set holds carried[t] and the shifts of the piece,
        and carried[u] the image of the earlier t, so the entry test of t
        fails in every completion of a piece that overflows u.

        Look-ahead: with d bits taken below free[i], every completion takes
        need - d of the n - i bits free[i:] and skips the other
        skips = n - i - (need - d).  A target monomial hit by more than
        skips of them is hit by a taken bit, so the image of every
        completion contains forced[skips][i] (see _look_ahead), and the
        entry is cut when that already overflows a target.  At skips = 0
        the one completion is piece | rest[i], its image is exactly the
        image so far joined to forced[0][i], and it is taken whole: it is
        the one piece the take-chain below the entry would reach, at the
        same point of the walk.  A monomial of degree D + E is the product
        of at most one monomial of degree D with each monomial of degree E,
        so it is hit at most dim S_E times: by one bit per variable of a
        factor one degree up, by up to dim S_{u-k} bits two degrees up.

        Symmetry: pieces are ordered as sets by their lowest differing bit,
        the set that holds it being the smaller, and a whole piece Q with
        g(Q) < Q for an active g is rejected.  Every active g fixes M (see
        descend), so G, the images of the piece under the active elements
        packed as in _Plan.level, starts as M in each active segment and
        gains g(p) with each bit p taken, or with the bits of a completion:
        segment g of G is g(piece).  The test on a whole piece reads, per
        segment, the lowest bit of g(piece) ^ piece: in g(piece) it
        rejects, and where the two are equal the element still fixes the
        piece and stays active at the next level.  A partial piece is cut
        when every completion would be rejected.  With A the bits taken,
        g(piece) ^ piece is g(A) ^ A, and as many bits of A leave as g(A)
        brings in, so its lowest bit x, if any, lies below c = free[i],
        under which every bit is decided.  Every completion Q has the bits
        of the piece below c, and g(Q) contains g(piece).  So when x lies
        in g(piece), it lies in g(Q) and not in Q, and a bit y < x of
        g(Q) ^ Q would lie in the piece and g(piece) alike or in neither,
        hence in g(Q) and not in Q.  Either way g(Q) < Q, so the entry is
        cut.  Skipping a bit changes neither the piece nor G, so the test
        runs when a bit is taken.  One test covers every segment: Y = (G ^
        piece * act) | guard has a set bit in each segment, Y & ~(Y - act)
        holds the lowest one of each active segment and nothing else, and
        one of those that lies in G rejects.  A cut drops only pieces the
        test on whole pieces rejects, so the nodes come in the same order."""
        mask, targets, symmetry, feeds = self.plan.level(k)
        M = carried[k]
        images = [carried[t] | _image(M, table) for t, table, _ in targets]
        ups = len(self.plan.higher[k])
        for i, feed in enumerate(feeds, ups):
            for t, table in feed:
                images[i] |= _image(carried[t], table)
        caps = [cap for _, _, cap in targets]
        if any(map(operator.gt, map(int.bit_count, images), caps)):
            self._prune("mandatory_overflow")
            return
        free = list(_bits(mask & ~M))
        need = self.plan.reqs[k] - M.bit_count()
        n = len(free)
        forced, rest = _look_ahead(targets, free, need) if 1 < need <= n else ((), ())
        depth = len(forced)
        act = 0
        if active:
            sym, guard = symmetry
            # the lowest bit of the segment of each active element
            act = sum(1 << g * (len(sym) + 1) for g in active)
            targets = [*targets, (None, sym, guard.bit_length())]
            images.append(M * act)
        # the entry at depth d is (i, piece, images) with d bits chosen, all
        # below free[i]; the branch that skips free[i] waits below the one
        # that takes it
        stack = [(0, M, images)]
        while stack:
            i, piece, images = stack.pop()
            d = len(stack)
            skips = n - need + d - i  # free bits of free[i:] left out
            if d < need:
                if skips < 0:
                    continue  # too few free bits left
                if skips < depth:
                    # every completion hits forced[skips][i]
                    grown = list(map(operator.or_, images, forced[skips][i]))
                    if any(map(operator.gt, map(int.bit_count, grown), caps)):
                        self._prune("mandatory_overflow")
                        continue
                if skips or not depth:  # else forced[0] gives the one completion
                    stack.append((i + 1, piece, images))
                    p = free[i]
                    grown = []
                    for (t, table, cap), img in zip(targets, images):
                        img |= table[p]
                        if img.bit_count() > cap:
                            self._prune("mandatory_overflow")
                            break
                        grown.append(img)
                    else:
                        taken = piece | 1 << p
                        if act:
                            G = grown[-1]
                            Y = G ^ taken * act | guard
                            if Y & ~(Y - act) & G:
                                self._prune("symmetry")
                                continue
                        stack.append((i + 1, taken, grown))
                    continue
                # with no skips left the one completion takes all of free[i:]
                if act:
                    grown.append(images[-1] | _image(rest[i], sym))
                piece, images = piece | rest[i], grown
            fixing = ()
            if act:
                G = images[-1]
                Y = G ^ piece * act | guard
                low = Y & ~(Y - act)
                if low & G:
                    self._prune("symmetry")
                    continue
                # shifted down by dim, a guard bit starts its segment, and
                # no other bit of low does
                marks = bin(low >> len(sym))[:1:-1][:: len(sym) + 1]
                fixing = [g for g, bit in enumerate(marks) if bit == "1"]
            yield piece, images[:ups], fixing

    def assign(self, carried, k, piece: int, images, active):
        """Count the node piece at level k as one, carry its images one
        degree up, and descend with the active elements that fix it;
        returns the pieces from level k on of a Found, else None."""
        self._charge(1)
        carried = list(carried)
        for t, img in zip(self.plan.higher[k], images):
            carried[t] = img
        rest = self.descend(carried, active, k + 1)
        return None if rest is None else [piece, *rest]

    def descend(self, carried, active, k):
        """Explore level k onward; returns the pieces from level k on of the
        first Found, else None.

        A subtree that fails is recorded in the memo under its state
        (k, carried[k:], active), with the nodes and prunings it spent, and
        a later entry into the same state charges those and fails at once
        (nogood recording).  This is sound because the walk below level k
        reads nothing else.  fitting(carried, k, active) reads carried[k],
        the carried images of its targets one and two degrees up and of the
        degrees between, which lie above k, the active elements and the
        plan, and assign hands the next level a copy of carried that differs
        only at the targets one degree up.  Found pieces travel back up the
        return path, so no level reads the pieces chosen below k.  The
        subtree therefore repeats the same walk: the same pieces, nodes,
        prunings and failure.  Only failures are stored, so the first Found
        stays the leftmost one.  Charging the stored nodes at once stops a
        budget on the node where the walk would stop, since _charge clamps
        to budget + 1; only the prunings of that last, partial subtree
        differ.  A stop leaves the subtrees still open unrecorded.

        Every active element fixes the pieces chosen so far and the apolar
        masks, so it fixes the carried images, and in particular the
        mandatory set carried[k] that fitting starts from.

        With a pool, once the clock reads switch, a level with two or more
        pieces left hands them to split, the piece it is on first; a level
        above does the same when the walk comes back to it.  So nothing is
        walked twice, and the nodes, the first Found and the prunings of an
        Exhausted run are the serial walk's."""
        if k == len(self.plan.degrees):
            return []
        if k >= self.deepest:
            raise PreconditionError(
                f"the walk reached degree {self.plan.degrees[k]}, past the {self.deepest} "
                f"levels a recursion limit of {sys.getrecursionlimit()} allows; lower the horizon"
            )
        key = (k, tuple(carried[k:]), tuple(active))
        spent = self.memo.get(key)
        if spent is not None:
            self.memo_hits += 1
            self._absorb(*spent)
            return None
        nodes, prunings = self.nodes, dict(self.prunings)
        pieces = self.fitting(carried, k, active)
        for entry in pieces:
            if (
                self.switch is not None
                and perf_counter() >= self.switch
                and (following := next(pieces, None)) is not None
            ):
                # the pool takes this piece and the rest
                result = self.split(carried, k, itertools.chain((entry, following), pieces))
            else:
                result = self.assign(carried, k, *entry)
            if result is not None:
                return result
        if len(self.memo) >= _MEMO_ENTRIES:
            self.memo.clear()
        self.memo[key] = (
            self.nodes - nodes,
            [
                (cause, count - prunings.get(cause, 0))
                for cause, count in self.prunings.items()
                if count != prunings.get(cause, 0)
            ],
        )
        return None

    def split(self, carried, k, pieces):
        """Explore the nodes left at level k on the pool, in spans, and
        charge the span results in span order.

        pieces yields two or more of fitting's nodes, which the spans carry
        to the workers with the level's (carried, k, budget left).  The
        stream is read lazily: a level can have more nodes than could ever
        be listed, and a Found run needs only the first few.  Each span runs
        one searcher with the budget left when the level splits.  A span
        that passes it reports that budget + 1 nodes, so the charge stops
        the run on the node where a serial walk would stop, and the status,
        nodes and first Found equal the serial run's.  The first split
        creates the run's pool, whose workers start from a copy of the memo
        the walk has filled so far."""
        if self.pool is None:
            import concurrent.futures  # loads the process pool module on first use

            self.pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(self.plan, self.memo),
            )
        left = None if self.budget is None else self.budget - self.nodes
        state = carried, k, left
        for found, nodes, prunings, memo_hits in _in_order(
            self.pool, state, pieces, self.workers
        ):
            self.memo_hits += memo_hits
            self._absorb(nodes, prunings.items())
            if found is not None:
                return found
        return None


# worker-side state, installed once per process: the plan and the failure
# memo the worker's spans share
_WORKER_STATE = None


def _init_worker(*state):
    global _WORKER_STATE
    _WORKER_STATE = state


def _run_chunk(state, pieces):
    """Assign the given nodes of a split level, as fitting yielded them, in
    order, with one searcher and the worker's memo; state is the level's
    (carried, k, budget left when it split).

    Returns the pieces from level k on of the first Found (or None), and
    the nodes, prunings and memo hits spent; past the budget the nodes read
    budget + 1."""
    carried, k, budget = state
    plan, memo = _WORKER_STATE
    searcher = _Searcher(plan, budget, memo=memo)
    result = None
    try:
        for entry in pieces:
            result = searcher.assign(carried, k, *entry)
            if result is not None:
                break
    except _BudgetHit:
        pass
    return result, searcher.nodes, searcher.prunings, searcher.memo_hits


def _in_order(pool, state, pieces, workers):
    """_run_chunk over the level state and consecutive spans of the nodes,
    read lazily, on the pool; results in span order.  A span holds one
    piece for every 4 * workers pieces merged before it, and at least one,
    and at most _SPANS_AHEAD spans wait unmerged.  So two pieces already
    keep two workers busy, N pieces make O(workers * log N) spans, and the
    pieces read ahead stay within a multiple of those merged, however slowly
    they come: a run that stops early reads few it never needed."""
    pending = collections.deque()
    merged = 0
    while True:
        while len(pending) < _SPANS_AHEAD and (
            span := list(itertools.islice(pieces, max(1, merged // (4 * workers))))
        ):
            pending.append((len(span), pool.submit(_run_chunk, state, span)))
        if not pending:
            return
        size, future = pending.popleft()
        merged += size
        yield future.result()


def _permuted(m: Monomial, order) -> list:
    """The exponent blocks of m with variable p of factor j taken from
    variable order[j][p]."""
    return [[block[i] for i in o] for block, o in zip(m.exponents, order)]


def search(F: Tensor, config: SearchConfig) -> SearchOutcome:
    """Run the move-fit search for border rank <= config.r.

    The outcome status is Exhausted (certificate: br > r up to the horizon
    constraints), Found (candidate ideal, nothing certified), or
    BudgetExceeded, once the whole run has counted more than node_budget
    nodes.  Given the same config the status, the candidate and the node
    count are deterministic, independent of parallel_width; the pruning
    counts of a Found or BudgetExceeded run are not.
    At width K > 1 the walk is the one of width 1, in this process, for
    _SERIAL_SECONDS; from then on a level with two or more pieces left hands
    them to a pool of K processes, one per run, which is shut down here.
    statistics.pooled says if a pool was created.

    The walk takes the variables of F in a canonical order, exponents
    descending within each factor and ties kept in input order, and the
    candidate is mapped back to the variables of F: the nodes of an
    Exhausted run do not depend on the order, but its time does, by up to
    10x.  So two inputs that differ by a relabelling that keeps variables of
    equal exponent in order give the same status, nodes and prunings, and
    candidates that differ by that relabelling.
    """
    t0 = perf_counter()
    if not F.is_monomial:
        raise PreconditionError("move-fit search needs a monomial tensor")
    # order[j][p] is the input variable of factor j at canonical position p
    a = F.support_exponents()
    order = [sorted(range(len(b)), key=lambda i: -b[i]) for b in a.exponents]
    back = [sorted(range(len(o)), key=o.__getitem__) for o in order]
    plan = _Plan(F.shape, Monomial(_permuted(a, order)), config)
    workers = config.parallel_width if config.parallel_width > 1 else None
    switch = None if workers is None else t0 + _SERIAL_SECONDS
    searcher = _Searcher(plan, config.node_budget, workers, switch=switch)
    status, pieces = EXHAUSTED, None
    # every piece lies inside its apolar mask: a level with fewer apolar
    # monomials than its req rules out every ideal before any piece is chosen
    if any(count < req for count, req in zip(plan.apolar_counts, plan.reqs)):
        searcher.prunings["insufficient_candidates"] = 1
    else:
        try:
            pieces = searcher.descend(
                [0] * len(plan.degrees), list(range(len(plan.group))), 0
            )
            status = EXHAUSTED if pieces is None else FOUND
        except _BudgetHit:
            status = BUDGET_EXCEEDED
        finally:
            if searcher.pool is not None:
                searcher.pool.shutdown(cancel_futures=True)
    stats = SearchStatistics(
        nodes=searcher.nodes,
        prunings=dict(searcher.prunings),
        memo_hits=searcher.memo_hits,
        symmetry_elements=len(plan.group),
        symmetry_fallback=plan.symmetry_fallback,
        pooled=searcher.pool is not None,
        wall_time_seconds=round(perf_counter() - t0, 6),
    )

    candidate = candidate_pieces = None
    if status == FOUND:
        candidate_pieces = {}
        for degree, piece in zip(plan.degrees, pieces):
            mons = enumerate_monomials(F.shape, degree)
            candidate_pieces[degree] = tuple(
                sorted(
                    (Monomial(_permuted(mons[p], back)) for p in _bits(piece)),
                    key=Monomial.grevlex_key,
                )
            )
        monomials = [m for piece in candidate_pieces.values() for m in piece]
        candidate = ideals.MonomialIdeal(F.shape, monomials)
        note = FOUND_NOTE
    elif status == EXHAUSTED:
        note = (
            f"no ideal with the generic Hilbert function for r = {config.r} "
            f"exists inside the apolar ideal up to total degree {plan.horizon}; "
            f"hence the border rank exceeds {config.r}"
        )
    else:
        note = "node budget exhausted before the search space was covered"
    return SearchOutcome(
        status=status,
        r=config.r,
        horizon=plan.horizon,
        candidate=candidate,
        candidate_pieces=candidate_pieces,
        note=note,
        statistics=stats,
    )

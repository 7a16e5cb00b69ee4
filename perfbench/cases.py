"""Case table and seeded inputs for the borderrank benchmark.

Every case is one `borderrank` CLI invocation.  Each carries the verdict it
must produce and the source of that expectation:

* `catalog:<name>`: the expectation is read from the corpus catalog
  (`src/borderrank/corpus/catalog.json`) of the code under test;
* `sandwich`: the `bounds` sandwich settles the verdict (r < lower gives
  Exhausted, r >= upper gives Found);
* `generic`: for a dense tensor with generic coefficients the catalecticant
  lower bound is max_D min(dim S_D, dim S_{L-D}), computed here from binomials;
* `pinned`: the verdict was taken from the output of the parent commit
  (636ab66) where nothing above covers the case.

The seed drives the coefficients of the dense tensors and the variable order
of every search monomial whose verdict is Exhausted, with a new draw in every
pass.  How long exact row reduction takes depends on the coefficients, so a
run's median then averages over several draws.  Exhausted node counts
do not depend on that order, so run.py checks that they agree across
orders.  A Found search stops at the first candidate, and how soon it gets
there depends on the order (10 to 79,951 nodes over the ten orders of
x0^2 x1^2 x2 x3 x4 at r = 24).  So Found cases keep their catalog order;
permuting them would make the timing measure the seed, not the program.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# A rank mod p never exceeds the rank over Q, so a full rank mod p is a full
# rank over Q.
_PRIME = 2_147_483_647
_COEFFS = [c for c in range(-9, 10) if c]


@dataclass
class Case:
    name: str
    argv: list  # CLI arguments; "{tensor}" is replaced by the pass's input
    expect: dict
    source: str
    tensor: dict | None = None  # tensor JSON written per pass, if generated
    permute: bool = False  # draw a new variable order each pass
    dense: tuple | None = None  # (shape, degree): new coefficients each pass
    inputs: dict = field(default_factory=dict)  # pass index -> tensor path

    @property
    def command(self) -> str:
        return self.argv[0]


def _mono_tensor(shape, blocks) -> dict:
    return {
        "shape": list(shape),
        "degree": [sum(b) for b in blocks],
        "convention": "divided",
        "terms": [{"exp": [list(b) for b in blocks], "num": "1", "den": "1"}],
    }


def _search(name, exps, r, jobs, expect, source) -> Case:
    return Case(
        name=name,
        argv=["search", "{tensor}", "--r", str(r), "--jobs", str(jobs)],
        expect=expect,
        source=source,
        tensor=_mono_tensor([len(exps) - 1], [exps]),
        permute=expect["status"] == "Exhausted",
    )


def _catalog_expect(catalog: dict, name: str) -> dict:
    return dict(catalog[name]["expected"])


def search_cases(catalog: dict, jobs: int, names=None) -> list:
    exhausted = {"status": "Exhausted"}
    cases = [
        _search(
            "search-11111-r15", [1, 1, 1, 1, 1], 15, jobs,
            _catalog_expect(catalog, "search-11111-r15"), "catalog:search-11111-r15",
        ),
        _search(
            "search-22111-r23", [2, 2, 1, 1, 1], 23, jobs,
            _catalog_expect(catalog, "search-22111-r23"), "catalog:search-22111-r23",
        ),
        _search(
            "search-22111-r24", [2, 2, 1, 1, 1], 24, jobs, {"status": "Found"},
            "sandwich: bounds gives upper = 24 (chart), so r >= upper is Found",
        ),
        _search(
            "search-22221-r39", [2, 2, 2, 2, 1], 39, jobs, exhausted,
            "pinned: bounds gives 35..54, so r = 39 is in the gap",
        ),
        _search(
            "search-32211-r33", [3, 2, 2, 1, 1], 33, jobs, exhausted,
            "pinned: bounds gives 30..36, so r = 33 is in the gap",
        ),
    ]
    if names is not None:
        cases = [c for c in cases if c.name in names]
    return cases


def _dims(shape, D) -> int:
    return math.prod(math.comb(a + d, a) for a, d in zip(shape, D))


def _blocks(shape, D):
    """Exponent tuples of every monomial of multidegree D, one per factor."""
    per_factor = []
    for a, d in zip(shape, D):
        block = []
        for combo in itertools.combinations_with_replacement(range(a + 1), d):
            e = [0] * (a + 1)
            for i in combo:
                e[i] += 1
            block.append(tuple(e))
        per_factor.append(block)
    return list(itertools.product(*per_factor))


def _add(x, y):
    return tuple(tuple(a + b for a, b in zip(xb, yb)) for xb, yb in zip(x, y))


def generic_catalecticant(shape, L):
    """(max_D min(dim S_D, dim S_{L-D}), a maximising D)."""
    best = (0, None)
    for D in itertools.product(*(range(l + 1) for l in L)):
        value = min(_dims(shape, D), _dims(shape, [l - d for l, d in zip(L, D)]))
        if value > best[0]:
            best = (value, D)
    return best


def _rank_mod_p(rows) -> int:
    rows = [[x % _PRIME for x in row] for row in rows]
    rank, ncols = 0, len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], _PRIME - 2, _PRIME)
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] * inv % _PRIME
                rows[i] = [(x - f * y) % _PRIME for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def dense_tensor(shape, L, rng: random.Random):
    """A tensor with every coefficient drawn from the seed, redrawn until its
    catalecticant at the maximising degree has the generic rank."""
    value, D = generic_catalecticant(shape, L)
    monomials = _blocks(shape, L)
    rows_basis = _blocks(shape, D)
    cols_basis = _blocks(shape, [l - d for l, d in zip(L, D)])
    while True:
        coeff = {m: rng.choice(_COEFFS) for m in monomials}
        matrix = [[coeff[_add(e, m)] for m in cols_basis] for e in rows_basis]
        if _rank_mod_p(matrix) == value:
            break
    terms = [
        {"exp": [list(b) for b in m], "num": str(coeff[m]), "den": "1"}
        for m in monomials
    ]
    return {"shape": list(shape), "degree": list(L), "convention": "divided",
            "terms": terms}


def certify_cases(catalog: dict, corpus: Path) -> list:
    cubic = [str(corpus / "ideal-cubic-p4.json"), str(corpus / "cubic-p4.json")]
    minrank = [
        str(corpus / "ideal-minrank-3x3x3.json"),
        str(corpus / "minrank-3x3x3.json"),
    ]
    cubic_expect = _catalog_expect(catalog, "verify-cubic-p4")
    minrank_expect = _catalog_expect(catalog, "verify-minrank-3x3x3")
    cases = [
        Case("verify-cubic-p4-h5", ["verify", *cubic, "--r", "5", "--horizon", "5"],
             cubic_expect, "catalog:verify-cubic-p4"),
        Case("verify-cubic-p4-h6", ["verify", *cubic, "--r", "5", "--horizon", "6"],
             cubic_expect, "pinned: the horizon-5 catalog verdict, at horizon 6"),
        Case("verify-minrank-3x3x3", ["verify", *minrank, "--r", "3"],
             minrank_expect, "catalog:verify-minrank-3x3x3"),
        Case("verify-minrank-3x3x3-h4",
             ["verify", *minrank, "--r", "3", "--horizon", "4"],
             minrank_expect, "pinned: the default-horizon catalog verdict, at horizon 4"),
    ]
    b4443 = _catalog_expect(catalog, "bounds-4443")
    closed = _catalog_expect(catalog, "closed-form-211x31")["value"]
    for name, shape, blocks, expect, source in [
        ("bounds-mono-4443", [3], [[4, 4, 4, 3]], b4443, "catalog:bounds-4443"),
        ("bounds-mono-211x31", [2, 1], [[2, 1, 1], [3, 1]],
         {"lower": closed, "upper": closed},
         "catalog:closed-form-211x31 (lower = upper = the closed form)"),
        ("bounds-mono-33111", [4], [[3, 3, 1, 1, 1]], {"lower": 26, "upper": 32},
         "pinned: catalog search-33111-r31 is Exhausted, so the upper 32 is exact"),
    ]:
        cases.append(Case(name, ["bounds", "{tensor}"], expect, source,
                          tensor=_mono_tensor(shape, blocks)))
    for name, shape, L in [
        ("bounds-dense-quartic-p4", [4], [4]),
        ("bounds-dense-cubic-p5", [5], [3]),
        ("bounds-dense-trilinear-p3p3p3", [3, 3, 3], [1, 1, 1]),
        ("bounds-dense-22-p2p2", [2, 2], [2, 2]),
    ]:
        value = generic_catalecticant(shape, L)[0]
        cases.append(Case(name, ["bounds", "{tensor}"],
                          {"lower": value, "upper": None},
                          "generic: max_D min(dim S_D, dim S_{L-D})", dense=(shape, L)))
    return cases


def tensor_for_pass(case: Case, seed: int, pass_index: int, work: Path) -> str | None:
    """Write (once) and return the tensor file a case reads in a given pass."""
    if case.tensor is None and case.dense is None:
        return None
    key = pass_index if case.permute or case.dense else 0
    if key not in case.inputs:
        tensor = case.tensor
        rng = random.Random(f"{seed}:{pass_index}:{case.name}")
        if case.dense:
            tensor = dense_tensor(*case.dense, rng)
        elif case.permute:
            blocks = [list(b) for b in tensor["terms"][0]["exp"]]
            for b in blocks:
                rng.shuffle(b)
            tensor = _mono_tensor(tensor["shape"], blocks)
        path = work / f"{case.name}.p{key}.json"
        path.write_text(json.dumps(tensor))
        case.inputs[key] = str(path)
    return case.inputs[key]


def check_document(case: Case, doc) -> str | None:
    """None if the output document carries the expected verdict, else why not."""
    if not isinstance(doc, dict):
        return "output is not a JSON object"
    if case.command == "search":
        status = doc.get("outcome", {}).get("status")
        if status != case.expect["status"]:
            return f"status {status!r}, expected {case.expect['status']!r}"
        return None
    report = doc.get("report", {})
    if case.command == "bounds":
        actual = {"lower": report.get("lower"), "upper": report.get("upper")}
        if "catalecticant" in case.expect:
            cat = report.get("components", {}).get("catalecticant", {})
            actual["catalecticant"] = cat.get("value")
    else:
        actual = {
            "passed": report.get("passed"),
            "saturated": report.get("saturation", {}).get("saturated"),
        }
        if "generator_count" in case.expect:
            ideal = json.loads(Path(case.argv[1]).read_text())
            gens = ideal.get("generators", ideal.get("monomial_generators", []))
            actual["generator_count"] = len(gens)
    if actual != case.expect:
        return f"got {actual}, expected {case.expect}"
    return None

"""Run fixed `borderrank` commands in two source trees and compare their output.

    python .github/compare_documents.py BASE_TREE CHANGE_TREE

Each command runs in a fresh process with PYTHONPATH set to the tree's
`src`, on the same input files.  Its stdout, stderr and exit code are
compared, with `wall_time_seconds` and the corpus runner's per-case
`seconds` masked, as they are timings.  Prints a markdown table, one row per
command, that says whether the output is the same.  Exits 0 either way,
since a change may alter documents on purpose.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

TIMINGS = re.compile(r'("(?:wall_time_seconds|seconds)": )-?[0-9.eE+-]+')

# the monomials on P^4 that perfbench's search-serial workload searches
SEARCHES = [
    ([1, 1, 1, 1, 1], 15),
    ([2, 2, 1, 1, 1], 23),
    ([2, 2, 1, 1, 1], 24),
    ([2, 2, 2, 2, 1], 39),
    ([3, 2, 2, 1, 1], 33),
]


def commands(corpus: Path, work: Path):
    yield ["corpus", "run", "all"]
    for path in sorted(corpus.glob("*.json")):
        if path.name != "catalog.json" and not path.name.startswith("ideal-"):
            yield ["bounds", str(path)]
    cubic = [str(corpus / "ideal-cubic-p4.json"), str(corpus / "cubic-p4.json")]
    for horizon in 5, 6, 8:
        yield ["verify", *cubic, "--r", "5", "--horizon", str(horizon)]
    minrank = [str(corpus / "ideal-minrank-3x3x3.json"), str(corpus / "minrank-3x3x3.json")]
    yield ["verify", *minrank, "--r", "3"]
    for exps, r in SEARCHES:
        path = work / ("mono-" + "".join(map(str, exps)) + ".json")
        term = {"exp": [exps], "num": "1", "den": "1"}
        tensor = {"shape": [4], "degree": [sum(exps)], "convention": "divided", "terms": [term]}
        path.write_text(json.dumps(tensor))
        yield ["search", str(path), "--r", str(r), "--jobs", "1"]


def run(tree: Path, argv) -> tuple:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "borderrank.cli", *argv], env=env, capture_output=True, text=True
    )
    return done.returncode, TIMINGS.sub(r"\g<1>0", done.stdout), TIMINGS.sub(r"\g<1>0", done.stderr)


def main(base: str, change: str) -> int:
    base, change = Path(base).resolve(), Path(change).resolve()
    print("| command | output |")
    print("|---|---|")
    with tempfile.TemporaryDirectory() as work:
        for argv in commands(change / "src" / "borderrank" / "corpus", Path(work)):
            same = run(base, argv) == run(change, argv)
            shown = " ".join(Path(a).name if "/" in a else a for a in argv)
            print(f"| `{shown}` | {'same' if same else '**differs**'} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))

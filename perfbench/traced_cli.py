"""Run one `borderrank` CLI invocation with spans around the layer functions.

    python3 traced_cli.py SPANS_OUT CASE_ID CLI_ARG...

Imports `borderrank.cli`, wraps each function in TRACED, and rebinds every
name that refers to it in every `borderrank` module, so that calls through a
`from ... import` name are timed too.  Spans (name, start, end, parent, case)
stay in memory and are written to SPANS_OUT as JSON when the command ends.
The exit code is the CLI's.  Process-pool workers inherit the wrappers, but
their spans are not written: the parent's `movefit.search` span covers them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

TRACED = {
    "cli": ["main", "load_tensor", "load_ideal"],
    "movefit": ["search", "_build_plan", "verify_candidate"],
    "ideals": ["hilbert_function", "saturation_defect"],
    "linalg": ["row_echelon"],
    "apolarity": ["catalecticant_lower_bound"],
    "bounds": [
        "bounds_report",
        "minimal_border_rank_generator_test",
        "minimal_border_rank_quotient_test",
    ],
    "macaulay": ["lexbar_growth", "lexbar_profile"],
    "ring": ["enumerate_monomials"],
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            index = len(spans)
            spans.append([name, None, None, stack[-1] if stack else None])
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1:3] = start, end

        return timed


def install(tracer: Tracer) -> None:
    modules = [m for n, m in sys.modules.items() if n.startswith("borderrank.")]
    for short, names in TRACED.items():
        module = sys.modules[f"borderrank.{short}"]
        for name in names:
            original = getattr(module, name)  # AttributeError: layer renamed
            wrapper = tracer.wrap(f"{short}.{name}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)


def main(argv) -> int:
    out_path, case_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    start = time.perf_counter()
    cli = importlib.import_module("borderrank.cli")
    tracer.spans.append(["cli.import", start, time.perf_counter(), None])
    install(tracer)
    try:
        return cli.main(cli_args)
    finally:
        spans = [
            {"name": n, "start": s, "end": e, "parent": p, "case": case_id}
            for n, s, e, p in tracer.spans
        ]
        with open(out_path, "w") as fh:
            json.dump(spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

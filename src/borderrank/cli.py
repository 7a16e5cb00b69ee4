"""Command-line front end: bounds, search, verify, macaulay, corpus.

Each invocation writes exactly one JSON document to stdout (or --output):
every `cmd_*` returns (document, exit code), and `main` alone writes it.
`corpus run` runs each case as the argv of the command it names, through the
same parser and `cmd_*`, and reads the expected values from that document.
Errors are mirrored as machine-readable JSON on stderr with distinct exit
codes: 2 for parse/validation problems, 3 for violated preconditions, 4 for
budget exhaustion (the outcome document is still written), 1 for anything
unexpected.  The default worker count comes from BORDERRANK_JOBS.
"""

from __future__ import annotations

import argparse
import importlib.resources
import importlib.util
import json
import os
import re
import sys
import time
from pathlib import Path

from .errors import (
    EXIT_BUDGET,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    BorderRankError,
    ParseError,
    PreconditionError,
    ShapeMismatchError,
)


def _lazy(name: str):
    """The package module `name`: entered in sys.modules now, compiled and run
    when an attribute of it is first read; one imported already is returned."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


# each command runs only the modules it reads, yet all seven are in sys.modules
# once this one is, as the benchmark's tracer needs (so no command imports one)
ring, linalg, macaulay, apolarity, ideals, bounds, movefit = map(
    _lazy, "ring linalg macaulay apolarity ideals bounds movefit".split()
)

JOBS_ENV_VAR = "BORDERRANK_JOBS"


def _jobs(flag: int | None) -> int:
    """The worker count: --jobs when given, else $BORDERRANK_JOBS, else 1."""
    if flag is not None:
        value, source = flag, "--jobs"
    else:
        raw, source = os.environ.get(JOBS_ENV_VAR, "1"), JOBS_ENV_VAR
        try:
            value = int(raw)
        except ValueError:
            raise PreconditionError(f"{JOBS_ENV_VAR} must be an integer, got {raw!r}")
    if value < 1:
        raise PreconditionError(f"{source} must be >= 1, got {value}")
    return value


def _load_schema(name: str) -> dict:
    ref = importlib.resources.files("borderrank") / "schemas" / name
    return json.loads(ref.read_text())


# The shipped schemas are the single source of truth for input documents.  Their
# keywords keep their draft 2020-12 meaning and `jsonschema`'s visiting order;
# any other keyword, or other form of one, is refused, so no edit goes unseen.
_KEYWORDS = frozenset(
    "$schema $id title $defs $ref oneOf type enum minimum minItems pattern required"
    " properties additionalProperties items".split()
)
_TYPES = {"object": dict, "array": list, "string": str, "number": (int, float)}


def _is_type(value, name: str) -> bool:
    """A bool is not a number, and an integral float is an integer."""
    if name == "integer":
        return _is_type(value, "number") and (isinstance(value, int) or value.is_integer())
    return isinstance(value, _TYPES[name]) and not isinstance(value, bool)


def _schema_errors(value, schema: dict, root: dict, path: tuple):
    """Yield (path, message) for every way value fails schema."""
    is_object, is_array = isinstance(value, dict), isinstance(value, list)
    for key, arg in schema.items():
        if (
            key not in _KEYWORDS
            or key == "additionalProperties" and arg is not False
            or key == "$ref" and not arg.startswith("#/$defs/")
            or key == "type" and arg not in ("integer", *_TYPES)
            # against strings only, == is JSON equality
            or key == "enum" and not all(isinstance(option, str) for option in arg)
        ):
            raise BorderRankError(f"schema keyword {key}: {arg!r} is not supported")
        if key == "$ref":
            target = root["$defs"][arg.removeprefix("#/$defs/")]
            yield from _schema_errors(value, target, root, path)
        elif key == "oneOf":
            valid = [s for s in arg if not any(_schema_errors(value, s, root, path))]
            if not valid:
                yield path, f"{value!r} is not valid under any of the given schemas"
            elif len(valid) > 1:
                reprs = ", ".join(map(repr, valid[1:] + valid[:1]))
                yield path, f"{value!r} is valid under each of {reprs}"
        elif key == "type" and not _is_type(value, arg):
            yield path, f"{value!r} is not of type {arg!r}"
        elif key == "enum" and value not in arg:
            yield path, f"{value!r} is not one of {arg!r}"
        elif key == "minimum" and _is_type(value, "number") and value < arg:
            yield path, f"{value!r} is less than the minimum of {arg!r}"
        elif key == "minItems" and is_array and len(value) < arg:
            short = "should be non-empty" if arg == 1 else "is too short"
            yield path, f"{value!r} {short}"
        elif key == "pattern" and isinstance(value, str) and not re.search(arg, value):
            yield path, f"{value!r} does not match {arg!r}"
        elif key == "required" and is_object:
            missing = [name for name in arg if name not in value]
            yield from ((path, f"{name!r} is a required property") for name in missing)
        elif key == "properties" and is_object:
            for name, subschema in arg.items():
                if name in value:
                    yield from _schema_errors(value[name], subschema, root, path + (name,))
        elif key == "additionalProperties" and is_object:
            known = schema.get("properties", {})
            extras = [repr(name) for name in sorted(value) if name not in known]
            if extras:
                were = f"{', '.join(extras)} {'was' if len(extras) == 1 else 'were'}"
                yield path, f"Additional properties are not allowed ({were} unexpected)"
        elif key == "items" and is_array:
            for index, item in enumerate(value):
                yield from _schema_errors(item, arg, root, path + (index,))


def _validate(data: dict, schema_name: str, path: str) -> None:
    schema = _load_schema(schema_name)
    # the first error by path, ties in visiting order, as `jsonschema` sorts
    first = min(_schema_errors(data, schema, schema, ()), key=lambda e: e[0], default=None)
    if first is not None:
        where = "/".join(str(p) for p in first[0]) or "(root)"
        raise ParseError(f"{path} fails {schema_name} at {where}: {first[1]}")


def _load(path: str, schema_name: str, parse):
    """The one input check: the document at path, validated against its
    schema and built by parse.  A document that fits its schema but not its
    own shape or degree, which only the constructors see, is a parse error."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ParseError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}")
    _validate(data, schema_name, path)
    try:
        return parse(data)
    except (PreconditionError, ShapeMismatchError) as exc:
        raise ParseError(str(exc)) from exc


def load_tensor(path: str) -> apolarity.Tensor:
    return _load(path, "tensor.schema.json", apolarity.tensor_from_json)


def load_ideal(path: str):
    return _load(path, "ideal.schema.json", ideals.ideal_from_json)


def _tensor_head(args: argparse.Namespace, **inputs) -> tuple:
    """(F, head): the tensor at args.tensor and the keys its command's document
    opens with; inputs, when given, name the input files instead of `input`."""
    F = load_tensor(args.tensor)
    terms = [
        ("" if coeff == 1 else f"({coeff})*") + ring.monomial_to_text(mon)
        for mon, coeff in F.terms()
    ]  # a tensor the text format cannot name stops here
    return F, {
        "command": args.command,
        **(inputs or {"input": args.tensor}),
        "tensor": " + ".join(terms) if terms else "0",
        "shape": list(F.shape.factors),
    }


def _check_output(output: str | None) -> None:
    """Refuse an --output path that cannot be written before the work, not after."""
    parent = os.path.dirname(output or "") or "."
    if output and os.path.isdir(output):
        raise ParseError(f"cannot write --output {output}: it is a directory")
    if output and not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        raise ParseError(f"cannot write --output {output}: no writable directory {parent}")


# ---------------------------------------------------------------------------
# Subcommands: each returns (document, exit code), and main writes the document
# ---------------------------------------------------------------------------

def cmd_bounds(args: argparse.Namespace) -> tuple:
    F, head = _tensor_head(args)
    report = bounds.bounds_report(F)
    return {**head, "degree": list(F.degree), "report": report._asdict()}, EXIT_OK


def cmd_search(args: argparse.Namespace) -> tuple:
    config = movefit.SearchConfig(
        r=args.r,
        horizon=args.horizon,
        symmetry_pruning=not args.no_symmetry,
        parallel_width=_jobs(args.jobs),
        node_budget=args.budget,
    )
    F, head = _tensor_head(args)
    outcome = movefit.search(F, config)
    document = {
        **head,
        "config": {**config._asdict(), "horizon": outcome.horizon},
        "outcome": {
            **outcome.to_json(),
            "candidate_ideal": None
            if outcome.candidate is None
            else ideals.ideal_to_json(outcome.candidate),
        },
    }
    return document, EXIT_BUDGET if outcome.status == movefit.BUDGET_EXCEEDED else EXIT_OK


def cmd_verify(args: argparse.Namespace) -> tuple:
    I = load_ideal(args.ideal)
    F, head = _tensor_head(args, input=args.ideal, tensor_input=args.tensor)
    report = ideals.verify_candidate(I, F, args.r, args.horizon)
    return {**head, "report": report._asdict()}, EXIT_OK


def cmd_macaulay(args: argparse.Namespace) -> tuple:
    if args.d is None and args.summands is None:
        raise ParseError("macaulay needs --d and/or --summands")
    summands = None
    if args.summands is not None:
        if args.n is None:
            raise ParseError("--summands needs --n")
        try:
            summands = [int(x) for x in args.summands.split(",")]
        except ValueError:
            raise ParseError(f"bad --summands value {args.summands!r}")
    document = {"command": "macaulay", "decomposition": None, "lexbar": None}
    if args.d is not None:
        document["decomposition"] = macaulay.macaulay_coefficients(args.r, args.d).to_json()
    if summands is not None:
        document["lexbar"] = macaulay.lexbar_profile(summands, args.n, args.r).to_json()
    return document, EXIT_OK


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------

def _corpus_dir():
    return importlib.resources.files("borderrank") / "corpus"


def corpus_catalog() -> list:
    return json.loads((_corpus_dir() / "catalog.json").read_text())


def _corpus_path(filename: str) -> str:
    return str(_corpus_dir() / filename)


# the command each catalog command runs as; a closed-form case reads `bounds`
_CASE_COMMANDS = {"search": "search", "bounds": "bounds", "verify": "verify",
                  "closed-form": "bounds"}
# where each expected value of a case lies in its command's document
_CASE_VALUES = {
    "status": lambda doc: doc["outcome"]["status"],
    "lower": lambda doc: doc["report"]["lower"],
    "upper": lambda doc: doc["report"]["upper"],
    "catalecticant": lambda doc: doc["report"]["components"]["catalecticant"]["value"],
    "value": lambda doc: doc["report"]["components"]["closed_form"]["value"],
    "passed": lambda doc: doc["report"]["passed"],
    "saturated": lambda doc: doc["report"]["saturation"]["saturated"],
    "generator_count": lambda doc: len(load_ideal(doc["input"]).generators),
}


def _run_corpus_case(case: dict, jobs: int) -> dict:
    """Run a case as the argv of its command, through the parser and the
    command itself, and read its expected keys from the document."""
    start = time.perf_counter()
    command = _CASE_COMMANDS.get(case["command"])
    if command is None:
        raise PreconditionError(f"unknown corpus command {case['command']!r}")
    argv = [command, *(_corpus_path(case[k]) for k in ("ideal", "tensor") if k in case)]
    for key in ("r", "horizon"):
        argv += [f"--{key}", str(case[key])] if key in case else []
    if command == "search":
        argv += ["--jobs", str(jobs)]
    args = _build_parser().parse_args(argv)
    document, _ = _DISPATCH[command](args)
    actual = {key: _CASE_VALUES[key](document) for key in case["expected"]}
    return {
        **{k: case[k] for k in ("name", "class", "command", "expected")},
        "actual": actual,
        "pass": actual == case["expected"],
        "seconds": round(time.perf_counter() - start, 3),
    }


def cmd_corpus(args: argparse.Namespace) -> tuple:
    catalog = corpus_catalog()
    if args.action == "list":
        flt = args.filter or ""
        cases = [
            {k: c[k] for k in ("name", "class", "command", "expected")}
            for c in catalog
            if flt in c["name"]
        ]
        return {"command": "corpus", "action": "list", "cases": cases}, EXIT_OK

    jobs = _jobs(args.jobs)
    selected = [c for c in catalog if args.target == "all" or c["name"] == args.target]
    if not selected:
        raise ParseError(f"no corpus case named {args.target!r}")
    results = []
    for case in selected:
        # --slow widens "all"; a case named on its own always runs
        if case["class"] == "slow" and args.target == "all" and not args.slow:
            results.append({"name": case["name"], "class": "slow", "skipped": True})
            continue
        results.append(_run_corpus_case(case, jobs))
    ran = [x for x in results if not x.get("skipped")]
    summary = {
        "total": len(results),
        "passed": sum(1 for x in ran if x["pass"]),
        "failed": sum(1 for x in ran if not x["pass"]),
        "skipped": len(results) - len(ran),
    }
    document = {"command": "corpus", "action": "run", "cases": results, "summary": summary}
    return document, EXIT_OK if summary["failed"] == 0 else EXIT_INTERNAL


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="borderrank",
        description="Exact border-rank bounds and certificates for monomials "
        "and partially symmetric tensors on products of projective spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="compute the lower/upper bound sandwich")
    p_bounds.add_argument("tensor", help="tensor JSON file")
    p_bounds.add_argument("--output", help="write the report here instead of stdout")

    p_search = sub.add_parser("search", help="move-fit search for border rank <= r")
    p_search.add_argument("tensor", help="monomial tensor JSON file")
    p_search.add_argument("--r", type=int, required=True, help="candidate border rank")
    p_search.add_argument("--horizon", type=int, help="max total degree (default |L|)")
    p_search.add_argument(
        "--no-symmetry", action="store_true", help="disable symmetry pruning"
    )
    p_search.add_argument(
        "--jobs", type=int, help=f"worker count (default ${JOBS_ENV_VAR} or 1)"
    )
    p_search.add_argument(
        "--budget",
        type=int,
        help="node budget of the whole run; a node is a piece that fits and "
        "passes the symmetry test",
    )
    p_search.add_argument("--output", help="write the report here instead of stdout")

    p_verify = sub.add_parser("verify", help="replay move-fit conditions on an ideal")
    p_verify.add_argument("ideal", help="ideal JSON file")
    p_verify.add_argument("tensor", help="tensor JSON file")
    p_verify.add_argument("--r", type=int, required=True)
    p_verify.add_argument("--horizon", type=int)
    p_verify.add_argument("--output", help="write the report here instead of stdout")

    p_mac = sub.add_parser(
        "macaulay", help="Macaulay decompositions, exponents, Lex-bar profiles"
    )
    p_mac.add_argument("--r", type=int, required=True, help="codimension")
    p_mac.add_argument("--d", type=int, help="degree for the exponent r^<d>")
    p_mac.add_argument(
        "--summands", help="comma-separated summand degrees for a Lex-bar profile"
    )
    p_mac.add_argument("--n", type=int, help="ambient P^n for the Lex-bar profile")
    p_mac.add_argument("--output", help="write the report here instead of stdout")

    p_corpus = sub.add_parser("corpus", help="list or run the shipped corpus")
    corpus_sub = p_corpus.add_subparsers(dest="action", required=True)
    p_list = corpus_sub.add_parser("list")
    p_list.add_argument("--filter", help="substring filter on case names")
    p_list.add_argument("--output")
    p_run = corpus_sub.add_parser("run")
    p_run.add_argument("target", help="case name or 'all'")
    p_run.add_argument(
        "--slow",
        action="store_true",
        help="include slow cases in 'all'; a case named on its own always runs",
    )
    p_run.add_argument("--jobs", type=int)
    p_run.add_argument("--output")

    return parser


_DISPATCH = {
    "bounds": cmd_bounds,
    "search": cmd_search,
    "verify": cmd_verify,
    "macaulay": cmd_macaulay,
    "corpus": cmd_corpus,
}


def _print_error(kind: str, message: str, code: int) -> None:
    print(
        json.dumps({"error": {"type": kind, "message": message}, "exit_code": code}),
        file=sys.stderr,
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_output(args.output)
        document, code = _DISPATCH[args.command](args)
        text = json.dumps(document, indent=2, sort_keys=False)
        if args.output:
            Path(args.output).write_text(text + "\n")
        else:
            print(text)
    except ParseError as exc:
        _print_error(type(exc).__name__, str(exc), EXIT_PARSE)
        return EXIT_PARSE
    except (PreconditionError, ShapeMismatchError) as exc:
        _print_error(type(exc).__name__, str(exc), EXIT_PRECONDITION)
        return EXIT_PRECONDITION
    except Exception as exc:  # BorderRankError and anything unexpected
        _print_error(type(exc).__name__, str(exc), EXIT_INTERNAL)
        return EXIT_INTERNAL
    if code == EXIT_BUDGET:
        _print_error(
            "BudgetExceededError",
            "node budget exhausted; the emitted outcome is partial",
            EXIT_BUDGET,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())

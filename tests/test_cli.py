"""End-to-end CLI tests: exit codes, document shapes, schema conformance."""

import copy
import functools
import itertools
import json
import math
import operator
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import borderrank
from borderrank.apolarity import tensor_from_json
from borderrank.cli import (
    JOBS_ENV_VAR,
    _corpus_path,
    _load_schema,
    _validate,
    corpus_catalog,
    main,
)
from borderrank.errors import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    BorderRankError,
    ParseError,
)
from borderrank.ideals import GradedIdeal, ideal_from_json, ideal_to_json
from oracles import graded_ideal_to_json, tensor_to_json

REPORT_SCHEMA = _load_schema("report.schema.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_and_check(text: str) -> dict:
    document = json.loads(text)
    jsonschema.validate(document, REPORT_SCHEMA)
    return document


def corpus(filename: str) -> str:
    return _corpus_path(filename)


def cli_process(*argv, timeout):
    """A fresh `borderrank` CLI process, killed after timeout seconds."""
    env = {**os.environ, "PYTHONPATH": str(Path(borderrank.__file__).parent.parent)}
    return subprocess.run(
        [sys.executable, "-m", "borderrank.cli", *argv],
        env=env, capture_output=True, text=True, timeout=timeout,
    )


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_bounds_flagship(capsys):
    code, out, err = run_cli(capsys, "bounds", corpus("mono-4443.json"))
    assert code == EXIT_OK
    assert err == ""
    document = parse_and_check(out)
    assert document["command"] == "bounds"
    assert document["tensor"] == "a0^4*a1^4*a2^4*a3^3"
    assert document["report"]["lower"] == 86
    assert document["report"]["upper"] == 100
    assert document["report"]["components"]["catalecticant"]["value"] == 70


def test_bounds_closed_form_product(capsys):
    code, out, _ = run_cli(capsys, "bounds", corpus("mono-211x31.json"))
    assert code == EXIT_OK
    document = parse_and_check(out)
    assert document["report"]["lower"] == document["report"]["upper"] == 8
    assert document["report"]["lower_provenance"] == "closed-form"


@pytest.mark.parametrize("position", range(3))
def test_bounds_of_a_high_degree_monomial_is_quick(tmp_path, position):
    # the catalecticant bound takes each factor's count at its middle degree
    # alone, in time linear in the degree, so x0^(20000) x1 x2 is quick in
    # every variable order; a walk over every degree takes minutes
    exponents = [1, 1, 1]
    exponents[position] = 20000
    tensor = tmp_path / "tensor.json"
    tensor.write_text(json.dumps({
        "shape": [2],
        "degree": [20002],
        "convention": "divided",
        "terms": [{"exp": [exponents], "num": "1", "den": "1"}],
    }))
    done = cli_process("bounds", str(tensor), timeout=10)
    assert done.returncode == EXIT_OK, done.stderr
    report = parse_and_check(done.stdout)["report"]
    assert report["lower"] == report["upper"] == 4


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def test_search_deep_horizons_end_cleanly():
    # the walk takes two frames a level, so mono-21 passes the 330 levels
    # that three frames a level allowed; a level past the depth bound is
    # refused on entry with exit 3, where the stack would overflow
    def run(horizon):
        return cli_process(
            "search", corpus("mono-21.json"), "--r", "2", "--horizon", str(horizon), timeout=60
        )

    deep = run(1000)
    assert deep.returncode == EXIT_PRECONDITION, deep.stderr
    message = parse_and_check(deep.stderr)["error"]["message"]
    assert "lower the horizon" in message
    bound = int(re.search(r"degree \((\d+),\)", message).group(1)) - 1
    assert bound >= 400
    done = run(bound)
    assert done.returncode == EXIT_OK, done.stderr
    assert parse_and_check(done.stdout)["outcome"]["status"] == "Found"
    past = run(bound + 1)
    assert past.returncode == EXIT_PRECONDITION
    assert parse_and_check(past.stderr)["error"]["message"] == message


def test_search_counts_the_degrees_before_listing_them():
    # 5 * 10^9 degrees on P^2 x P^1: refused at once, not listed
    done = cli_process(
        "search", corpus("mono-211x31.json"), "--r", "3", "--horizon", "100000", timeout=20
    )
    assert done.returncode == EXIT_PRECONDITION
    error = parse_and_check(done.stderr)["error"]
    assert error["type"] == "PreconditionError"
    assert "5,000,150,000 degrees" in error["message"] and "1 KiB a degree" in error["message"]


def test_search_found_document(capsys):
    code, out, err = run_cli(capsys, "search", corpus("mono-21.json"), "--r", "2")
    assert code == EXIT_OK
    assert err == ""
    document = parse_and_check(out)
    assert document["outcome"]["status"] == "Found"
    assert document["config"]["horizon"] == 3
    assert document["outcome"]["candidate_generators"] == ["a1^2"]
    assert document["outcome"]["candidate_pieces"]["3"] == ["a0*a1^2", "a1^3"]
    ideal = document["outcome"]["candidate_ideal"]
    assert ideal["monomial_generators"] == [[[0, 2]]]


def test_search_exhausted_document(capsys):
    code, out, _ = run_cli(
        capsys, "search", corpus("mono-222.json"), "--r", "8", "--horizon", "5"
    )
    assert code == EXIT_OK
    document = parse_and_check(out)
    assert document["outcome"]["status"] == "Exhausted"
    assert document["outcome"]["candidate_ideal"] is None
    assert "border rank exceeds 8" in document["outcome"]["note"]


@pytest.mark.usefixtures("pool_at_once")
def test_search_flag_plumbing(capsys):
    code, out, _ = run_cli(
        capsys,
        "search",
        corpus("mono-222.json"),
        "--r",
        "8",
        "--horizon",
        "5",
        "--no-symmetry",
        "--jobs",
        "2",
        "--budget",
        "50000",
    )
    assert code == EXIT_OK
    document = parse_and_check(out)
    config = document["config"]
    assert config == {
        "r": 8,
        "horizon": 5,
        "symmetry_pruning": False,
        "parallel_width": 2,
        "node_budget": 50000,
    }
    # and in this order, which `SearchConfig.to_json` fixes
    keys = ["r", "horizon", "symmetry_pruning", "parallel_width", "node_budget"]
    assert list(config) == keys
    assert document["outcome"]["status"] == "Exhausted"
    # the growth rule is a bound, reported by `bounds`; search has no flag for it
    with pytest.raises(SystemExit) as exit_info:
        main(["search", corpus("mono-222.json"), "--r", "8", "--growth-prune"])
    assert exit_info.value.code == 2


def test_search_budget_exit_code(capsys):
    code, out, err = run_cli(
        capsys, "search", corpus("mono-222.json"), "--r", "9", "--budget", "1"
    )
    assert code == EXIT_BUDGET
    document = parse_and_check(out)
    assert document["outcome"]["status"] == "BudgetExceeded"
    error = parse_and_check(err)
    assert error["exit_code"] == EXIT_BUDGET
    assert error["error"]["type"] == "BudgetExceededError"


@pytest.mark.usefixtures("pool_at_once")
def test_search_budget_bounds_the_run(capsys):
    # the branching level of 4443 r86 has subtrees far larger than the
    # budget; the budget counts the whole run, so the search stops at once.
    # The pool reads pieces ahead of the merge only in proportion to the
    # pieces merged, so it stops soon too, though the pieces come slowly
    args = ("search", corpus("mono-4443.json"), "--r", "86", "--budget", "50")
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, *args, "--jobs", "1")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_BUDGET
    serial = parse_and_check(out)["outcome"]
    assert serial["status"] == "BudgetExceeded"
    assert serial["statistics"]["nodes"] == 51
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, *args, "--jobs", "2")
    assert time.perf_counter() - start < 10.0
    assert code == EXIT_BUDGET
    assert parse_and_check(out)["outcome"]["statistics"]["nodes"] == 51


def test_search_vacuous_r_is_precondition(capsys):
    code, out, err = run_cli(capsys, "search", corpus("mono-21.json"), "--r", "5")
    assert code == EXIT_PRECONDITION
    assert out == ""
    error = parse_and_check(err)
    assert error["error"]["type"] == "PreconditionError"
    assert "vacuous" in error["error"]["message"]


def test_search_oversized_plan_is_precondition(tmp_path, capsys):
    # (3,...,3) on P^6 at r = 5000: the plan tables would take about 1.9e5
    # MiB, so the search refuses before it builds any of them.  At r = 100
    # the apolar counts settle it before any table is needed, so it runs
    tensor = tmp_path / "cube-p6.json"
    tensor.write_text(json.dumps({
        "shape": [6],
        "degree": [21],
        "convention": "divided",
        "terms": [{"exp": [[3] * 7], "num": "1", "den": "1"}],
    }))
    code, out, _ = run_cli(capsys, "search", str(tensor), "--r", "100", "--budget", "10")
    assert code == EXIT_OK
    statistics = json.loads(out)["outcome"]["statistics"]
    assert statistics["prunings"] == {"insufficient_candidates": 1}
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "search", str(tensor), "--r", "5000", "--budget", "10")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_PRECONDITION
    assert out == ""
    error = parse_and_check(err)
    assert error["error"]["type"] == "PreconditionError"
    assert "search tables" in error["error"]["message"]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_document(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        corpus("ideal-tangent-p3.json"),
        corpus("mono-31-p3.json"),
        "--r",
        "2",
    )
    assert code == EXIT_OK
    document = parse_and_check(out)
    assert document["report"]["passed"] is True
    assert document["report"]["saturation"]["saturated"] is True


def test_verify_shape_mismatch_is_precondition(capsys):
    code, out, err = run_cli(
        capsys,
        "verify",
        corpus("ideal-tangent-p3.json"),
        corpus("mono-222.json"),
        "--r",
        "2",
    )
    assert code == EXIT_PRECONDITION
    error = parse_and_check(err)
    assert error["error"]["type"] == "ShapeMismatchError"


def test_verify_compares_shapes_first(tmp_path, capsys):
    # an ideal on P^2 against a tensor on P^1 x P^0: the shapes differ, and
    # no degree of one shape is read on the other
    ideal, tensor = tmp_path / "ideal.json", tmp_path / "tensor.json"
    ideal.write_text(json.dumps({"shape": [2], "monomial_generators": [[[1, 1, 0]]]}))
    tensor.write_text(json.dumps({
        "shape": [1, 0],
        "degree": [2, 1],
        "convention": "divided",
        "terms": [{"exp": [[1, 1], [1]], "num": "1", "den": "1"}],
    }))
    code, out, err = run_cli(capsys, "verify", str(ideal), str(tensor), "--r", "2")
    assert code == EXIT_PRECONDITION
    assert out == ""
    error = parse_and_check(err)["error"]
    assert error == {"type": "ShapeMismatchError", "message": "ideal and tensor shapes differ"}


@pytest.mark.parametrize(
    "ideal",
    [
        {"shape": [2], "monomial_generators": [[[1, 1]]]},
        {
            "shape": [2],
            "generators": [
                {"degree": [2], "terms": [{"exp": [[1, 1]], "num": "1", "den": "1"}]}
            ],
        },
    ],
    ids=["monomial", "graded"],
)
def test_verify_ideal_off_its_own_shape_is_a_parse_error(tmp_path, capsys, ideal):
    # a generator that does not fit the shape its own file declares is a
    # malformed file, in either form of ideal, as it is in a tensor file
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps(ideal))
    code, out, err = run_cli(
        capsys, "verify", str(path), corpus("mono-222.json"), "--r", "2"
    )
    assert code == EXIT_PARSE
    assert out == ""
    error = parse_and_check(err)
    assert error["error"]["type"] == "ParseError"
    assert "does not fit (2,)" in error["error"]["message"]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--r", "3", "--horizon", "-1"], "horizon must be >= 1, got -1"),
        (["--r", "3", "--horizon", "0"], "horizon must be >= 1, got 0"),
        (["--r", "0"], "r must be >= 1, got 0"),
    ],
)
def test_verify_refuses_empty_runs(capsys, flags, message):
    # a horizon below 1 leaves no degree to check, so every candidate would
    # pass; verify refuses it, and an r below 1, as search does
    ideal, tensor = corpus("ideal-tangent-p3.json"), corpus("mono-31-p3.json")
    code, out, err = run_cli(capsys, "verify", ideal, tensor, *flags)
    assert code == EXIT_PRECONDITION
    assert out == ""
    error = parse_and_check(err)
    assert error["error"]["type"] == "PreconditionError"
    assert error["error"]["message"] == message


@pytest.mark.parametrize("horizon", ["70", "100000"])
def test_verify_oversized_horizon_is_precondition(horizon):
    # up to degree 70 on P^3 lie C(74, 4) = 1,150,626 monomials, just over
    # the limit; verify counts them before it lists any, so even a horizon
    # of 100000 is refused at once
    done = cli_process(
        "verify", corpus("ideal-tangent-p3.json"), corpus("mono-31-p3.json"),
        "--r", "2", "--horizon", horizon, timeout=10,
    )
    assert done.returncode == EXIT_PRECONDITION
    assert done.stdout == ""
    error = parse_and_check(done.stderr)["error"]
    assert error["type"] == "PreconditionError"
    assert "over the limit of 1,000,000" in error["message"]


# ---------------------------------------------------------------------------
# macaulay
# ---------------------------------------------------------------------------

def test_macaulay_decomposition(capsys):
    code, out, _ = run_cli(capsys, "macaulay", "--r", "15", "--d", "3")
    assert code == EXIT_OK
    document = parse_and_check(out)
    assert document["decomposition"]["coefficients"] == [5, 3, 2]
    assert document["decomposition"]["exponent"] == 22
    assert document["lexbar"] is None


def test_macaulay_decomposes_a_large_r_at_once():
    # each a_i is found by bisection: at d = 1, a_1 = r, which steps of one
    # would take r binomials to reach
    done = cli_process("macaulay", "--r", "1000000000000", "--d", "1", timeout=10)
    assert done.returncode == EXIT_OK, done.stderr
    decomposition = parse_and_check(done.stdout)["decomposition"]
    assert decomposition["coefficients"] == [10**12]
    assert decomposition["exponent"] == math.comb(10**12 + 1, 2)


def test_macaulay_lexbar(capsys):
    code, out, _ = run_cli(
        capsys, "macaulay", "--r", "38", "--summands", "2,3,3,4", "--n", "3"
    )
    assert code == EXIT_OK
    document = parse_and_check(out)
    assert document["lexbar"]["codims"] == [10, 20, 8, 0]
    assert document["lexbar"]["growth"] == 65


def test_macaulay_flag_validation(capsys):
    code, _, err = run_cli(capsys, "macaulay", "--r", "15")
    assert code == EXIT_PARSE
    assert "needs --d and/or --summands" in json.loads(err)["error"]["message"]
    code, _, err = run_cli(capsys, "macaulay", "--r", "3", "--summands", "1,2")
    assert code == EXIT_PARSE
    code, _, err = run_cli(
        capsys, "macaulay", "--r", "3", "--summands", "1,x", "--n", "2"
    )
    assert code == EXIT_PARSE
    # negative r is a domain violation, not a parse problem
    code, _, err = run_cli(capsys, "macaulay", "--r", "-1", "--d", "2")
    assert code == EXIT_PRECONDITION
    # and so is a negative n, which no binomial may see
    code, out, err = run_cli(
        capsys, "macaulay", "--r", "0", "--summands", "0", "--n", "-1"
    )
    assert code == EXIT_PRECONDITION
    assert out == ""
    error = parse_and_check(err)
    assert error["error"]["type"] == "PreconditionError"
    assert error["error"]["message"] == "n must be >= 0, got -1"


# ---------------------------------------------------------------------------
# result records
# ---------------------------------------------------------------------------

_VERIFY_REPORT = ["r", "horizon", "rows", "hilbert_ok", "containment", "saturation", "passed"]


@pytest.mark.parametrize(
    "argv, records",
    [
        (
            ["bounds", corpus("mono-4443.json")],
            {
                ("report",): [
                    "lower", "lower_provenance", "lower_witness", "upper",
                    "upper_provenance", "upper_witness", "components",
                ],
            },
        ),
        (
            ["search", corpus("mono-21.json"), "--r", "2"],
            {
                ("config",): [
                    "r", "horizon", "symmetry_pruning", "parallel_width", "node_budget",
                ],
                ("outcome",): [
                    "status", "r", "horizon", "candidate_generators", "candidate_pieces",
                    "note", "statistics", "candidate_ideal",
                ],
                ("outcome", "statistics"): [
                    "nodes", "prunings", "memo_hits", "symmetry_elements",
                    "symmetry_fallback", "pooled", "wall_time_seconds",
                ],
            },
        ),
        (
            ["verify", corpus("ideal-tangent-p3.json"), corpus("mono-31-p3.json"),
             "--r", "2"],
            {("report",): _VERIFY_REPORT},
        ),
        (
            ["verify", corpus("ideal-minrank-3x3x3.json"), corpus("minrank-3x3x3.json"),
             "--r", "3"],
            {("report",): _VERIFY_REPORT},
        ),
        (
            ["macaulay", "--r", "15", "--d", "3"],
            {("decomposition",): ["r", "d", "coefficients", "exponent"]},
        ),
        (
            ["macaulay", "--r", "38", "--summands", "2,3,3,4", "--n", "3"],
            {("lexbar",): ["degrees", "n", "codims", "r", "growth"]},
        ),
    ],
    ids=["bounds", "search", "verify-monomial", "verify-graded", "macaulay-d",
         "macaulay-summands"],
)
def test_records_keep_their_key_order(capsys, argv, records):
    # each result record is written with its fields in declaration order;
    # the schema's nested `type: object` refuses a record written as an array
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    document = parse_and_check(out)
    for path, keys in records.items():
        record = document
        for key in path:
            record = record[key]
        assert list(record) == keys, path


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def test_corpus_list(capsys):
    code, out, _ = run_cli(capsys, "corpus", "list")
    assert code == EXIT_OK
    document = parse_and_check(out)
    names = [c["name"] for c in document["cases"]]
    assert len(names) == len(set(names)) >= 13
    code, out, _ = run_cli(capsys, "corpus", "list", "--filter", "4443")
    filtered = parse_and_check(out)["cases"]
    assert [c["name"] for c in filtered] == ["bounds-4443"]


def test_corpus_run_all_fast(capsys):
    code, out, _ = run_cli(capsys, "corpus", "run", "all")
    assert code == EXIT_OK
    document = parse_and_check(out)
    summary = document["summary"]
    assert summary["failed"] == 0
    assert summary["skipped"] == 1  # the slow class stays off by default
    assert summary["passed"] == summary["total"] - summary["skipped"]
    for case in document["cases"]:
        if not case.get("skipped"):
            assert case["pass"] is True, case["name"]


def test_corpus_run_single(capsys):
    code, out, _ = run_cli(capsys, "corpus", "run", "search-21-r2")
    assert code == EXIT_OK
    document = parse_and_check(out)
    assert document["summary"] == {
        "total": 1,
        "passed": 1,
        "failed": 0,
        "skipped": 0,
    }
    code, _, err = run_cli(capsys, "corpus", "run", "no-such-case")
    assert code == EXIT_PARSE


def test_corpus_run_named_slow_case(capsys, monkeypatch):
    # a slow case named on its own runs; only "all" leaves it out without --slow
    catalog = [
        {**case, "class": "slow"} if case["name"] == "search-21-r2" else case
        for case in corpus_catalog()
    ]
    monkeypatch.setattr("borderrank.cli.corpus_catalog", lambda: catalog)
    code, out, _ = run_cli(capsys, "corpus", "run", "search-21-r2")
    assert code == EXIT_OK
    document = parse_and_check(out)
    assert document["summary"] == {"total": 1, "passed": 1, "failed": 0, "skipped": 0}
    assert document["cases"][0]["class"] == "slow"
    code, out, _ = run_cli(capsys, "corpus", "run", "all")
    assert code == EXIT_OK
    skipped = [c["name"] for c in parse_and_check(out)["cases"] if c.get("skipped")]
    assert skipped == ["search-21-r2", "search-33111-r31"]


# where each expected key of a corpus case lies in the document of its command
CASE_KEY_PATHS = {
    "status": ("outcome", "status"),
    "lower": ("report", "lower"),
    "upper": ("report", "upper"),
    "catalecticant": ("report", "components", "catalecticant", "value"),
    "value": ("report", "components", "closed_form", "value"),
    "passed": ("report", "passed"),
    "saturated": ("report", "saturation", "saturated"),
}


@pytest.mark.parametrize(
    "case", [c for c in corpus_catalog() if c["class"] == "fast"], ids=lambda c: c["name"]
)
def test_corpus_case_reads_the_document_of_its_command(capsys, case):
    # a case is the argv of its command: its files, --r, --horizon, and --jobs
    # for a search; a closed-form case reads its value off `bounds`
    code, out, _ = run_cli(capsys, "corpus", "run", case["name"], "--jobs", "1")
    assert code == EXIT_OK
    (result,) = parse_and_check(out)["cases"]
    command = "bounds" if case["command"] == "closed-form" else case["command"]
    argv = [command, *(corpus(case[k]) for k in ("ideal", "tensor") if k in case)]
    argv += [arg for key in ("r", "horizon") if key in case for arg in (f"--{key}", str(case[key]))]
    argv += ["--jobs", "1"] if command == "search" else []
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    document = parse_and_check(out)
    assert list(result["actual"]) == list(case["expected"])
    for key, value in result["actual"].items():
        if key == "generator_count":  # the generators of the loaded ideal
            with open(corpus(case["ideal"])) as fh:
                assert value == len(ideal_from_json(json.load(fh)).generators)
        else:
            assert value == functools.reduce(operator.getitem, CASE_KEY_PATHS[key], document)


@pytest.mark.parametrize("command", ["frobnicate", "macaulay", "corpus"])
def test_corpus_unknown_command_is_precondition(capsys, monkeypatch, command):
    # a catalog command with no case runner stops before the parser sees it
    catalog = [{**case, "command": command} for case in corpus_catalog()[:1]]
    monkeypatch.setattr("borderrank.cli.corpus_catalog", lambda: catalog)
    code, out, err = run_cli(capsys, "corpus", "run", "all")
    assert (code, out) == (EXIT_PRECONDITION, "")
    assert json.loads(err) == {
        "error": {
            "type": "PreconditionError",
            "message": f"unknown corpus command {command!r}",
        },
        "exit_code": EXIT_PRECONDITION,
    }


def test_corpus_files_round_trip():
    for case in corpus_catalog():
        for key in ("tensor", "ideal"):
            if key not in case:
                continue
            with open(corpus(case[key])) as fh:
                data = json.load(fh)
            if key == "tensor":
                assert tensor_to_json(tensor_from_json(data)) == data
            else:
                ideal = ideal_from_json(data)
                if isinstance(ideal, GradedIdeal):
                    assert graded_ideal_to_json(ideal) == data
                else:
                    assert ideal_to_json(ideal) == data


# ---------------------------------------------------------------------------
# Parse failures and output plumbing
# ---------------------------------------------------------------------------

def test_missing_file_is_parse_error(capsys):
    code, out, err = run_cli(capsys, "bounds", "/nonexistent/tensor.json")
    assert code == EXIT_PARSE
    assert out == ""
    error = parse_and_check(err)
    assert "no such file" in error["error"]["message"]


def test_directory_path_is_parse_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "bounds", str(tmp_path))
    assert code == EXIT_PARSE
    assert out == ""
    error = parse_and_check(err)["error"]
    assert error["type"] == "ParseError"
    assert error["message"] == f"cannot read {tmp_path}: Is a directory"


def test_non_utf8_file_is_parse_error(tmp_path, capsys):
    latin = tmp_path / "latin.json"
    latin.write_bytes('{"shape": [1], "note": "caf\u00e9"}'.encode("latin-1"))
    code, out, err = run_cli(capsys, "bounds", str(latin))
    assert code == EXIT_PARSE
    assert out == ""
    error = parse_and_check(err)["error"]
    assert error["type"] == "ParseError"
    assert error["message"].startswith(f"{latin} is not UTF-8 text: ")


def test_invalid_json_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "bounds", str(bad))
    assert code == EXIT_PARSE
    assert "not valid JSON" in json.loads(err)["error"]["message"]


def test_schema_violation_is_parse_error(tmp_path, capsys):
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"shape": [1], "terms": []}))
    code, _, err = run_cli(capsys, "bounds", str(incomplete))
    assert code == EXIT_PARSE
    message = json.loads(err)["error"]["message"]
    assert "tensor.schema.json" in message


def test_tensor_json_errors(tmp_path, capsys):
    # the schema refuses each before a tensor is built
    for document, where in [
        ({"shape": [1], "degree": [1]}, "(root): 'convention' is a required property"),
        (
            {"shape": [1], "degree": [1], "convention": "weird", "terms": []},
            "convention: 'weird' is not one of ['divided', 'plain']",
        ),
        (
            _tensor_with(terms=[{"exp": [[1, 0]], "num": "1", "den": "0"}]),
            "terms/0/den: '0' does not match '^[1-9][0-9]*$'",
        ),
    ]:
        path = tmp_path / "tensor.json"
        path.write_text(json.dumps(document))
        code, out, err = run_cli(capsys, "bounds", str(path))
        assert (code, out) == (EXIT_PARSE, "")
        assert json.loads(err)["error"] == {
            "type": "ParseError",
            "message": f"{path} fails tensor.schema.json at {where}",
        }


def test_ideal_json_errors(tmp_path, capsys):
    # the schema refuses each before an ideal is built; behind its oneOf,
    # the failure is reported at the root
    for document in [
        {"monomial_generators": []},
        {"shape": [2]},
        {
            "shape": [1],
            "generators": [{"degree": [1], "terms": [{"exp": [[1, 0]], "num": "1"}]}],
        },
    ]:
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps(document))
        code, out, err = run_cli(
            capsys, "verify", str(path), corpus("mono-21.json"), "--r", "2"
        )
        assert (code, out) == (EXIT_PARSE, "")
        assert json.loads(err)["error"] == {
            "type": "ParseError",
            "message": f"{path} fails ideal.schema.json at (root): {document!r} is not "
            "valid under any of the given schemas",
        }


# ---------------------------------------------------------------------------
# In-tree input validation, against jsonschema
# ---------------------------------------------------------------------------

_TENSOR = {
    "shape": [1],
    "degree": [2],
    "convention": "divided",
    "terms": [{"exp": [[1, 1]], "num": "1", "den": "1"}],
}


def _tensor_with(**fields):
    return {**copy.deepcopy(_TENSOR), **fields}


# one bad document per keyword, with the message the CLI gave when it
# validated through jsonschema; in the ideal schema a failure behind oneOf
# (and so behind every $ref) is reported at the root
_BAD_DOCUMENTS = {
    "type": (
        _tensor_with(shape=[True]),
        "tensor.schema.json at shape/0: True is not of type 'integer'",
    ),
    "type-root": ([], "tensor.schema.json at (root): [] is not of type 'object'"),
    "type-float": (
        _tensor_with(degree=[1.5]),
        "tensor.schema.json at degree/0: 1.5 is not of type 'integer'",
    ),
    "type-before-minimum": (
        _tensor_with(degree=[-1.5]),
        "tensor.schema.json at degree/0: -1.5 is not of type 'integer'",
    ),
    "properties": (
        _tensor_with(shape="1"),
        "tensor.schema.json at shape: '1' is not of type 'array'",
    ),
    "required": (
        {k: v for k, v in _TENSOR.items() if k != "convention"},
        "tensor.schema.json at (root): 'convention' is a required property",
    ),
    "additionalProperties": (
        _tensor_with(extra=1),
        "tensor.schema.json at (root): Additional properties are not allowed "
        "('extra' was unexpected)",
    ),
    "additionalProperties-two": (
        _tensor_with(zeta=1, alpha=2),
        "tensor.schema.json at (root): Additional properties are not allowed "
        "('alpha', 'zeta' were unexpected)",
    ),
    "items": (
        _tensor_with(degree=[2, "2"]),
        "tensor.schema.json at degree/1: '2' is not of type 'integer'",
    ),
    "minItems": (
        _tensor_with(shape=[]),
        "tensor.schema.json at shape: [] should be non-empty",
    ),
    "minimum": (
        _tensor_with(terms=[{"exp": [[1, -1]], "num": "1", "den": "1"}]),
        "tensor.schema.json at terms/0/exp/0/1: -1 is less than the minimum of 0",
    ),
    "enum": (
        _tensor_with(convention="cubic"),
        "tensor.schema.json at convention: 'cubic' is not one of ['divided', 'plain']",
    ),
    "pattern": (
        _tensor_with(terms=[{"exp": [[1, 1]], "num": "1.5", "den": "1"}]),
        "tensor.schema.json at terms/0/num: '1.5' does not match '^-?[0-9]+$'",
    ),
    "oneOf": (
        {"shape": [1]},
        "ideal.schema.json at (root): {'shape': [1]} is not valid under any of "
        "the given schemas",
    ),
    "$ref": (
        {"shape": [-1], "monomial_generators": []},
        "ideal.schema.json at (root): {'shape': [-1], 'monomial_generators': []} "
        "is not valid under any of the given schemas",
    ),
}


@pytest.mark.parametrize("keyword", list(_BAD_DOCUMENTS))
def test_schema_violation_message_per_keyword(tmp_path, capsys, keyword):
    document, failure = _BAD_DOCUMENTS[keyword]
    path = tmp_path / "document.json"
    path.write_text(json.dumps(document))
    if failure.startswith("ideal"):
        argv = ["verify", str(path), corpus("mono-21.json"), "--r", "1"]
    else:
        argv = ["bounds", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_PARSE
    assert out == ""
    assert err == (
        '{"error": {"type": "ParseError", "message": "'
        + f'{path} fails {failure}"}}, "exit_code": 2}}\n'
    )


def test_validator_accepts_integral_floats():
    _validate(_tensor_with(shape=[1.0], degree=[2.0]), "tensor.schema.json", "t")


def test_validator_refuses_unknown_keywords(monkeypatch):
    # a schema edit the in-tree validator does not implement fails loudly
    schema = copy.deepcopy(_load_schema("tensor.schema.json"))
    schema["properties"]["shape"]["maxItems"] = 3
    monkeypatch.setattr("borderrank.cli._load_schema", lambda name: schema)
    with pytest.raises(BorderRankError, match="maxItems"):
        _validate(_TENSOR, "tensor.schema.json", "t")


def _graded(degree, *terms):
    """An ideal on P^1 with one generator tagged degree, of (exp, num) terms."""
    terms = [{"exp": exp, "num": num, "den": "1"} for exp, num in terms]
    return {"shape": [1], "generators": [{"degree": degree, "terms": terms}]}


# documents that fit their schema but not their own shape or degree: only the
# constructors see these, and the CLI reports their refusal as a parse error
@pytest.mark.parametrize(
    "document, message",
    [
        (
            _tensor_with(terms=[{"exp": [[1, 1, 0]], "num": "1", "den": "1"}]),
            "term Monomial(exponents=((1, 1, 0),)) does not fit shape (1,)",
        ),
        (
            _tensor_with(degree=[2, 0]),
            "multidegree (2, 0) has 2 entries, shape (1,) has 1 factors",
        ),
        (
            _tensor_with(degree=[3]),
            "term Monomial(exponents=((1, 1),)) has degree (2,), tensor degree is (3,)",
        ),
        (_graded([1], ([[1, 0]], "0")), "zero polynomial cannot be an ideal generator"),
        (
            _graded([1], ([[1, 0]], "1"), ([[2, 0]], "1")),
            "inhomogeneous polynomial with degrees {(1,), (2,)}",
        ),
        (
            _graded([2], ([[1, 0]], "1")),
            "generator tagged (2,) but is homogeneous of (1,)",
        ),
        (
            _graded([1, 0], ([[1, 0]], "1")),
            "multidegree (1, 0) has 2 entries, shape (1,) has 1 factors",
        ),
    ],
    ids=[
        "term-off-shape",
        "degree-length",
        "term-degree",
        "zero-generator",
        "inhomogeneous-generator",
        "generator-tag",
        "generator-tag-length",
    ],
)
def test_schema_valid_faults_are_parse_errors(tmp_path, capsys, document, message):
    path = tmp_path / "document.json"
    path.write_text(json.dumps(document))
    if "generators" in document:
        argv = ["verify", str(path), corpus("mono-21.json"), "--r", "2"]
    else:
        argv = ["bounds", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_PARSE, "")
    assert err == json.dumps(
        {"error": {"type": "ParseError", "message": message}, "exit_code": EXIT_PARSE}
    ) + "\n"


def _floated(value):
    """value with every int in it written as a float, as JSON allows."""
    if isinstance(value, dict):
        return {key: _floated(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_floated(item) for item in value]
    return float(value) if type(value) is int else value


@pytest.mark.parametrize(
    "ideal, tensor",
    [("ideal-tangent-p3.json", "mono-31-p3.json"), ("ideal-cubic-p4.json", "cubic-p4.json")],
    ids=["monomial", "graded"],
)
def test_integral_floats_give_the_integer_documents(tmp_path, capsys, ideal, tensor):
    # the schema admits 2.0 where it asks for an integer, and the parsers
    # trust it: the constructors' int() make the documents the integer form's
    def documents(transform):
        paths = []
        for name in (ideal, tensor):
            with open(corpus(name)) as fh:
                paths.append(tmp_path / f"{transform.__name__}-{name}")
                paths[-1].write_text(json.dumps(transform(json.load(fh))))
        out = []
        for argv in (["bounds", str(paths[1])], ["verify", *map(str, paths), "--r", "5"]):
            code, text, _ = run_cli(capsys, *argv)
            assert code == EXIT_OK
            document = parse_and_check(text)
            out.append({k: v for k, v in document.items() if "input" not in k})
        return out

    floated = documents(_floated)
    for name in (ideal, tensor):
        shape = json.loads((tmp_path / f"_floated-{name}").read_text())["shape"]
        assert type(shape[0]) is float
    assert floated == documents(copy.deepcopy)


@pytest.mark.parametrize("command", ["bounds", "search", "verify"])
def test_more_factors_than_the_text_format_names_is_precondition(tmp_path, command):
    # the schema admits any number of factors, but documents name them a..z;
    # a 27th is refused before the work, which on verify runs over a minute
    tensor, ideal = tmp_path / "tensor.json", tmp_path / "ideal.json"
    tensor.write_text(json.dumps({
        "shape": [1] * 27,
        "degree": [1] * 27,
        "convention": "divided",
        "terms": [{"exp": [[1, 0]] * 27, "num": "1", "den": "1"}],
    }))
    ideal.write_text(json.dumps({"shape": [1] * 27, "monomial_generators": [[[0, 1]] * 27]}))
    argv = {
        "bounds": ["bounds", str(tensor)],
        "search": ["search", str(tensor), "--r", "2", "--horizon", "1"],
        "verify": ["verify", str(ideal), str(tensor), "--r", "2", "--horizon", "1"],
    }[command]
    done = cli_process(*argv, timeout=30)
    assert (done.returncode, done.stdout) == (EXIT_PRECONDITION, "")
    assert json.loads(done.stderr)["error"] == {
        "type": "PreconditionError",
        "message": "the text format names at most 26 factors, got 27",
    }


def test_verify_on_many_factors_saturates_factor_by_factor(tmp_path):
    # (x_{1,1}, ..., x_{20,1}) against x_{1,0} ... x_{20,0} on twenty P^1
    # factors: saturation takes one colon per variable, not one per monomial
    # of degree (1, ..., 1), and containment reads the tensor's one term, not
    # the 2^20 monomials of its degree.  It runs in about 0.2 s (2 vCPUs);
    # the bound is 10 s
    w = 20
    tensor, ideal = tmp_path / "tensor.json", tmp_path / "ideal.json"
    tensor.write_text(json.dumps({
        "shape": [1] * w,
        "degree": [1] * w,
        "convention": "divided",
        "terms": [{"exp": [[1, 0]] * w, "num": "1", "den": "1"}],
    }))
    gens = [[[0, 1] if j == i else [0, 0] for j in range(w)] for i in range(w)]
    ideal.write_text(json.dumps({"shape": [1] * w, "monomial_generators": gens}))
    done = cli_process("verify", str(ideal), str(tensor), "--r", "1", "--horizon", "1",
                       timeout=10)
    assert (done.returncode, done.stderr) == (EXIT_OK, "")
    report = parse_and_check(done.stdout)["report"]
    assert report["containment"] is report["passed"] is True
    assert report["saturation"] == {"kind": "exact", "saturated": True}


def _dense_tensor(shape, degree, coefficients):
    """Every monomial of the multidegree, with cycling coefficients, in the
    form of the benchmark's dense tensors."""
    blocks = []
    for a, d in zip(shape, degree):
        block = []
        for combo in itertools.combinations_with_replacement(range(a + 1), d):
            block.append([combo.count(i) for i in range(a + 1)])
        blocks.append(block)
    terms = [
        {"exp": list(exp), "num": str(c), "den": "1"}
        for exp, c in zip(itertools.product(*blocks), itertools.cycle(coefficients))
    ]
    return {"shape": shape, "degree": degree, "convention": "divided", "terms": terms}


def _valid_documents():
    documents = []
    for case in corpus_catalog():
        for key in ("tensor", "ideal"):
            if key in case:
                with open(corpus(case[key])) as fh:
                    documents.append((f"{key}.schema.json", json.load(fh)))
    for shape, degree in [([2], [3]), ([1, 1], [2, 1]), ([1, 1, 1], [1, 1, 1])]:
        documents.append(("tensor.schema.json", _dense_tensor(shape, degree, [-7, 3, 1, 9])))
    return documents


_VALID_DOCUMENTS = _valid_documents()
_KEYS = ["shape", "degree", "convention", "terms", "exp", "num", "den", "extra",
         "generators", "monomial_generators"]
_STRINGS = ["", "x", "7", "-3", "1.5", "0", "01", "-", "1\n", " 1", "divided", "plain",
            "cubic"]
_VALUES = [True, False, None, 0, 1, -1, 2.0, -2.0, 1.5, *_STRINGS, [], [0], [[1]],
           [True], {}, {"exp": [[1]], "num": "1", "den": "1"}]


def _nodes(value, path=()):
    yield path, value
    if isinstance(value, dict):
        children = value.items()
    else:
        children = enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


_EDITS = {
    "replace": lambda node: True,
    "replace-string": lambda node: isinstance(node, str),
    "drop": lambda node: isinstance(node, (dict, list)) and bool(node),
    "empty": lambda node: isinstance(node, (dict, list)) and bool(node),
    "add-key": lambda node: isinstance(node, dict),
    "append": lambda node: isinstance(node, list),
}


def _mutate(document, data):
    """One random edit of a random node the edit applies to."""
    edit = data.draw(st.sampled_from(list(_EDITS)))
    eligible = [(path, node) for path, node in _nodes(document) if _EDITS[edit](node)]
    if not eligible:
        return document
    path, node = data.draw(st.sampled_from(eligible))
    value = data.draw(st.sampled_from(_STRINGS if edit == "replace-string" else _VALUES))
    value = copy.deepcopy(value)
    if edit.startswith("replace"):
        if not path:
            return value
        parent = document
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    elif edit == "drop":
        keys = list(node) if isinstance(node, dict) else range(len(node))
        del node[data.draw(st.sampled_from(keys))]
    elif edit == "empty":
        node.clear()
    elif edit == "add-key":
        node[data.draw(st.sampled_from(_KEYS))] = value
    else:
        node.append(value)
    return document


def _jsonschema_failure(document, schema_name):
    """The message the CLI gave for a document when it used jsonschema."""
    validator = jsonschema.Draft202012Validator(_load_schema(schema_name))
    errors = sorted(validator.iter_errors(document), key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    where = "/".join(str(p) for p in errors[0].absolute_path) or "(root)"
    return f"doc fails {schema_name} at {where}: {errors[0].message}"


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_validator_agrees_with_jsonschema(data):
    schema_name = data.draw(st.sampled_from(["tensor.schema.json", "ideal.schema.json"]))
    candidates = [doc for name, doc in _VALID_DOCUMENTS if name == schema_name]
    document = data.draw(st.sampled_from(candidates))
    document = copy.deepcopy(document)
    for _ in range(data.draw(st.integers(0, 3))):
        document = _mutate(document, data)
    try:
        _validate(document, schema_name, "doc")
        failure = None
    except ParseError as exc:
        failure = str(exc)
    assert failure == _jsonschema_failure(document, schema_name)


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "macaulay", "--r", "15", "--d", "3", "--output", str(target)
    )
    assert code == EXIT_OK
    assert out == ""
    document = parse_and_check(target.read_text())
    assert document["decomposition"]["exponent"] == 22


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unusable_output_is_parse_error_before_the_work(tmp_path, capsys, monkeypatch, where):
    # refused before the command works, so no result is computed only to be lost
    def work(*args):
        raise AssertionError("the command worked before it checked --output")

    monkeypatch.setattr("borderrank.bounds.bounds_report", work)
    if where == "directory":
        target, why = tmp_path, "it is a directory"
    else:
        target = tmp_path / "missing" / "report.json"
        why = f"no writable directory {tmp_path / 'missing'}"
    code, out, err = run_cli(capsys, "bounds", corpus("mono-21.json"), "--output", str(target))
    assert (code, out) == (EXIT_PARSE, "")
    assert json.loads(err)["error"] == {
        "type": "ParseError",
        "message": f"cannot write --output {target}: {why}",
    }


# ---------------------------------------------------------------------------
# Worker-count environment variable
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("pool_at_once")
def test_jobs_env_var_used(monkeypatch, capsys):
    monkeypatch.setenv(JOBS_ENV_VAR, "2")
    code, out, _ = run_cli(capsys, "search", corpus("mono-21.json"), "--r", "2")
    assert code == EXIT_OK
    assert parse_and_check(out)["config"]["parallel_width"] == 2


def test_jobs_flag_overrides_env(monkeypatch, capsys):
    monkeypatch.setenv(JOBS_ENV_VAR, "4")
    code, out, _ = run_cli(
        capsys, "search", corpus("mono-21.json"), "--r", "2", "--jobs", "1"
    )
    assert code == EXIT_OK
    assert parse_and_check(out)["config"]["parallel_width"] == 1


def test_jobs_env_var_validated(monkeypatch, capsys):
    monkeypatch.setenv(JOBS_ENV_VAR, "zero")
    code, _, err = run_cli(capsys, "search", corpus("mono-21.json"), "--r", "2")
    assert code == EXIT_PRECONDITION
    assert JOBS_ENV_VAR in json.loads(err)["error"]["message"]
    monkeypatch.setenv(JOBS_ENV_VAR, "0")
    code, _, _ = run_cli(capsys, "search", corpus("mono-21.json"), "--r", "2")
    assert code == EXIT_PRECONDITION


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "mono-21.json", "--r", "2"],
        ["corpus", "run", "search-21-r1"],
    ],
)
@pytest.mark.parametrize("env", ["2", "0"])
def test_jobs_flag_zero_is_precondition(monkeypatch, capsys, argv, env):
    # an explicit --jobs 0 is refused on both commands, whatever the
    # environment says, and the error names the flag
    monkeypatch.setenv(JOBS_ENV_VAR, env)
    argv = [corpus(a) if a.endswith(".json") else a for a in argv]
    code, out, err = run_cli(capsys, *argv, "--jobs", "0")
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert json.loads(err)["error"]["message"] == "--jobs must be >= 1, got 0"


# ---------------------------------------------------------------------------
# Slow corpus through the CLI
# ---------------------------------------------------------------------------

@pytest.mark.slow
@pytest.mark.usefixtures("pool_at_once")
def test_corpus_run_all_with_slow(capsys):
    code, out, _ = run_cli(capsys, "corpus", "run", "all", "--slow", "--jobs", "4")
    assert code == EXIT_OK
    document = parse_and_check(out)
    assert document["summary"]["failed"] == 0
    assert document["summary"]["skipped"] == 0


@pytest.mark.parametrize("error", [BorderRankError("inverted sandwich"), KeyError("x")])
def test_internal_errors_exit_one(capsys, monkeypatch, error):
    # a package error no narrower clause takes, and any other exception,
    # end as an internal error: exit 1 with the error's type on stderr
    from borderrank import cli

    def fail(args):
        raise error

    monkeypatch.setitem(cli._DISPATCH, "bounds", fail)
    code, out, err = run_cli(capsys, "bounds", corpus("mono-222.json"))
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": {"type": type(error).__name__, "message": str(error)},
        "exit_code": 1,
    }

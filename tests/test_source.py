"""Rules on the package source itself."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "borderrank"


def test_no_assert_statements_in_package():
    # `python -O` strips asserts, so no runtime check may rest on one
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_linalg_has_no_float_or_true_division():
    # certificates rest on exact ranks: an int `/` would silently make the
    # elimination a float computation, so linalg.py uses no `/` at all; and
    # rows are ints, so linalg.py needs no Fraction either
    path = PACKAGE / "linalg.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"true division at line {node.lineno}")
        elif isinstance(node, ast.Name) and node.id in ("float", "Fraction"):
            found.append(f"{node.id} at line {node.lineno}")
        elif isinstance(node, ast.Attribute) and node.attr == "Fraction":
            found.append(f"Fraction at line {node.lineno}")
        elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
            found.append(f"fractions import at line {node.lineno}")
        elif isinstance(node, ast.Import) and "fractions" in (a.name for a in node.names):
            found.append(f"fractions import at line {node.lineno}")
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"float literal at line {node.lineno}")
    assert found == []


# names the README's Library example calls, or an error message tells users
# to call, without any caller inside the package; and `movefit.__getattr__`,
# which the import system calls when the benchmark's tracer looks up
# movefit.verify_candidate, until the tracer reads ideals.verify_candidate
# (ROADMAP item 1)
_PUBLIC_WITHOUT_CALLERS = {"Tensor.zero", "__getattr__"}


def _definitions(tree):
    """(qualified name, node) for every top-level function and class and
    every method of a top-level class, dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def _references(node, enclosing=()):
    """(name, enclosing definitions) for every Name, Attribute and imported
    name below node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing = enclosing + (node,)
    if isinstance(node, ast.Name):
        yield node.id, enclosing
    elif isinstance(node, ast.Attribute):
        yield node.attr, enclosing
    elif isinstance(node, (ast.Import, ast.ImportFrom)):
        for alias in node.names:
            yield alias.name.rsplit(".", 1)[-1], enclosing
    for child in ast.iter_child_nodes(node):
        yield from _references(child, enclosing)


def test_package_names_have_package_callers():
    # src/ carries what the commands run: a name used only by the tests
    # belongs in tests/, one used by nothing belongs nowhere.  A reference
    # from inside the definition itself (recursion) does not count.
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in sorted(PACKAGE.glob("*.py"))]
    references = [ref for tree in trees for ref in _references(tree)]
    unreached = sorted(
        qualname
        for tree in trees
        for qualname, node in _definitions(tree)
        if qualname not in _PUBLIC_WITHOUT_CALLERS
        and not any(
            name == node.name and node not in enclosing for name, enclosing in references
        )
    )
    assert not unreached, "no caller in src/: " + ", ".join(unreached)


def test_only_the_cli_decides_what_is_a_parse_error():
    # the schema is the one structural check on an input document: the
    # parsers build what it accepted, with no check of their own, and the
    # CLI alone turns a constructor's refusal into a parse error
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert [name for name, text in sources.items() if "ParseError" in text] == [
        "cli.py",
        "errors.py",
    ]
    gone = ("shape_from_json", "monomial_from_json", "monomial_to_json")
    assert [name for name in gone if any(name in text for text in sources.values())] == []
    parsers = [
        node
        for name in ("apolarity.py", "ideals.py")
        for node in ast.walk(ast.parse(sources[name]))
        if isinstance(node, ast.FunctionDef) and node.name.endswith("_from_json")
    ]
    assert sorted(node.name for node in parsers) == [
        "ideal_from_json",
        "poly_from_json",
        "tensor_from_json",
    ]
    assert not any(isinstance(node, ast.Try) for p in parsers for node in ast.walk(p))


def test_package_imports_only_the_standard_library():
    # the CLI installs with no runtime dependency: `jsonschema` belongs to
    # the test extra, and the package validates its inputs itself
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {module}"
                for module in modules
                if module.split(".")[0] not in sys.stdlib_module_names
            ]
    assert found == []


def _fresh(*argv) -> str:
    """The stdout of a fresh interpreter run with argv, the package on its path."""
    paths = [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]
    pythonpath = os.pathsep.join(filter(None, paths))
    result = subprocess.run(
        [sys.executable, *argv],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return result.stdout.strip()


def _loaded_by_import(module, names):
    """The names among `names` in sys.modules after a fresh interpreter
    imports `module` alone."""
    code = f"import sys, {module}; print([m for m in {names!r} if m in sys.modules])"
    return _fresh("-c", code)


def test_cli_import_loads_neither_jsonschema_nor_the_process_pool():
    # a short command is mostly start-up, so importing the CLI loads only
    # what every command runs; the pool module loads when a pool starts.
    # `dataclasses` pulls in `inspect`, `ast`, `dis` and `tokenize` and
    # builds each decorated class's methods with `exec`, so the package's
    # value classes are plain classes
    heavy = ["jsonschema", "concurrent.futures.process", "dataclasses"]
    assert _loaded_by_import("borderrank.cli", heavy) == "[]"


def test_movefit_import_loads_neither_bounds_nor_macaulay():
    # the search decides by its walk alone: the growth rule is a bound that
    # only `bounds` runs
    heavy = ["borderrank.bounds", "borderrank.macaulay"]
    assert _loaded_by_import("borderrank.movefit", heavy) == "[]"


def test_ideals_import_loads_no_search():
    # checking an ideal reads its Hilbert function, its containment in F^perp
    # and its saturation, none of which is the search or a bound
    heavy = ["borderrank.movefit", "borderrank.bounds", "borderrank.macaulay"]
    assert _loaded_by_import("borderrank.ideals", heavy) == "[]"


def test_bounds_import_loads_neither_ideals_nor_movefit():
    # the products with a factor's variables are `ring.multiply`, and the
    # tensor's row is built in `apolarity`, so a bounds command compiles
    # neither module
    heavy = ["borderrank.ideals", "borderrank.movefit"]
    assert _loaded_by_import("borderrank.bounds", heavy) == "[]"


# the package modules a command ran: the CLI enters the others in sys.modules
# too, but a lazily loaded module runs only once an attribute of it is read
_RAN_BY_COMMAND = """
import json, sys, types
from borderrank import cli
assert cli.main(sys.argv[1:]) == 0
print(json.dumps(sorted(
    name.removeprefix("borderrank.") for name, module in sys.modules.items()
    if name.startswith("borderrank.") and type(module) is types.ModuleType
)))
"""
MODULES = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}


@pytest.mark.parametrize(
    "argv, not_run",
    [
        (["macaulay", "--r", "15", "--d", "3"], MODULES - {"cli", "errors", "macaulay"}),
        (["bounds", "mono-222.json"], {"ideals", "movefit"}),
        # `macaulay` is read only by the one-factor disjoint-module rule
        (["bounds", "minrank-3x3x3.json"], {"ideals", "movefit", "macaulay"}),
        (["bounds", "mono-211x31.json"], {"ideals", "movefit", "macaulay", "linalg"}),
        (["search", "mono-222.json", "--r", "7"], {"bounds", "macaulay"}),
        # an Exhausted search reads no ideal and reduces no row
        (["search", "mono-2211.json", "--r", "11", "--horizon", "5"],
         {"bounds", "macaulay", "ideals", "linalg"}),
        # a Found one builds its candidate, a monomial ideal, but reduces no row
        (["search", "mono-222.json", "--r", "9"], {"bounds", "macaulay", "linalg"}),
        # verification is a question about ideals: it runs no search code
        (["verify", "ideal-tangent-p3.json", "mono-31-p3.json", "--r", "2"],
         {"bounds", "macaulay", "movefit"}),
        (["verify", "ideal-minrank-3x3x3.json", "minrank-3x3x3.json", "--r", "3"],
         {"bounds", "macaulay", "movefit"}),
        # a corpus case runs its command's argv, so it runs what that command runs
        (["corpus", "run", "search-2211-r11"], {"bounds", "macaulay", "ideals", "linalg"}),
    ],
    ids=["macaulay", "bounds", "bounds-tensor", "bounds-product", "search", "search-exhausted",
         "search-found", "verify", "verify-graded", "corpus-run-search-2211-r11"],
)
def test_each_command_runs_only_the_modules_it_reads(tmp_path, argv, not_run):
    argv = [str(PACKAGE / "corpus" / a) if a.endswith(".json") else a for a in argv]
    output = ["--output", str(tmp_path / "document.json")]
    ran = set(json.loads(_fresh("-c", _RAN_BY_COMMAND, *argv, *output)))
    assert {"cli", "errors"} <= ran <= MODULES
    assert ran & not_run == set()


def test_cli_keeps_the_modules_imported_before_it():
    # a second `borderrank.movefit` beside the first would break pickling by
    # reference, and the classes the modules share would differ
    code = """
import sys
import borderrank, borderrank.ring, borderrank.movefit
before = {n: m for n, m in sys.modules.items() if n.startswith("borderrank.")}
from borderrank import cli
names = ["ring", "linalg", "macaulay", "apolarity", "ideals", "bounds", "movefit"]
print([n for n in names if not (
    before.get("borderrank." + n, getattr(cli, n)) is getattr(cli, n)
    is sys.modules["borderrank." + n] is getattr(borderrank, n)
)])
print(cli.movefit.ideals is cli.ideals)
print(cli.bounds.Monomial is cli.ring.Monomial)
"""
    assert _fresh("-c", code).splitlines() == ["[]", "True", "True"]

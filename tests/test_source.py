"""Rules on the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

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
# to call, without any caller inside the package
_PUBLIC_WITHOUT_CALLERS = {"Tensor.zero"}


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


def _loaded_by_import(module, names):
    """The names among `names` in sys.modules after a fresh interpreter
    imports `module` alone."""
    code = f"import sys, {module}; print([m for m in {names!r} if m in sys.modules])"
    paths = [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]
    pythonpath = os.pathsep.join(filter(None, paths))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.strip()


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

"""The benchmark's traced run wraps named layer functions; each must exist,
and its module must be entered in `sys.modules` by the time `borderrank.cli`
is imported."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import borderrank

TRACED_CLI = Path(__file__).resolve().parent.parent / "perfbench" / "traced_cli.py"
CORPUS = Path(borderrank.__file__).resolve().parent / "corpus"


def test_traced_layer_names_resolve():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    traced_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_cli)
    assert traced_cli.TRACED
    for short, names in traced_cli.TRACED.items():
        module = importlib.import_module(f"borderrank.{short}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{short}.{name}"


@pytest.mark.parametrize(
    "argv",
    [["macaulay", "--r", "15", "--d", "3"], ["bounds", str(CORPUS / "mono-222.json")]],
)
def test_traced_cli_runs_a_command(argv, tmp_path):
    # traced_cli.py imports borderrank.cli alone and then wraps every traced
    # module it finds in sys.modules, so a module that cli.py imported only
    # inside a command would fail every traced case; a fresh process shows it
    spans = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": str(Path(borderrank.__file__).parent.parent)}
    done = subprocess.run(
        [sys.executable, str(TRACED_CLI), str(spans), "case", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "cli.main" in {span["name"] for span in json.loads(spans.read_text())}

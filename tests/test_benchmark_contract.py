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


def test_movefit_hook_resolves_only_verification():
    # the tracer still names movefit.verify_candidate, which lives in `ideals`:
    # movefit's module __getattr__ hands it over, and nothing else
    from borderrank import ideals, movefit

    assert movefit.verify_candidate is ideals.verify_candidate
    assert "verify_candidate" not in vars(movefit)
    assert not hasattr(movefit, "no_such_name")


@pytest.mark.parametrize(
    "argv",
    [
        ["macaulay", "--r", "15", "--d", "3"],
        ["bounds", str(CORPUS / "mono-222.json")],
        ["verify", str(CORPUS / "ideal-cubic-p4.json"), str(CORPUS / "cubic-p4.json"),
         "--r", "5", "--horizon", "5"],
    ],
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
    spans = json.loads(spans.read_text())
    assert "cli.main" in {span["name"] for span in spans}
    if argv[0] == "verify":
        # one verification span, timed under movefit's name through its hook,
        # with the Hilbert functions it reads inside it
        verify = [i for i, span in enumerate(spans) if span["name"] == "movefit.verify_candidate"]
        assert len(verify) == 1
        hilbert = [span for span in spans if span["name"] == "ideals.hilbert_function"]
        assert hilbert and all(span["parent"] == verify[0] for span in hilbert)

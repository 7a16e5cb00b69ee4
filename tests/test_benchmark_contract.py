"""The benchmark's traced run wraps named layer functions; each must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACED_CLI = Path(__file__).resolve().parent.parent / "perfbench" / "traced_cli.py"


def test_traced_layer_names_resolve():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    traced_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_cli)
    assert traced_cli.TRACED
    for short, names in traced_cli.TRACED.items():
        module = importlib.import_module(f"borderrank.{short}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{short}.{name}"

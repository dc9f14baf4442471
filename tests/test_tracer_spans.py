"""The public functions the benchmark tracer wraps must keep their names."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _spanned() -> dict:
    """SPANNED from perfbench/tracer.py, read as a literal without importing it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPANNED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no SPANNED")


@pytest.mark.parametrize(
    "module, name",
    [(module, name) for module, names in _spanned().items() for name in names],
)
def test_spanned_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"ncgl2.{module}"), name, None))

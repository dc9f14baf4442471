"""The package surface: its exports resolve and its demos run."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ncgl2

SRC = Path(ncgl2.__file__).parent.parent
ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_export_resolves():
    modules = [ncgl2] + [
        importlib.import_module(f"ncgl2.{info.name}") for info in pkgutil.iter_modules(ncgl2.__path__)
    ]
    stale = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in module.__all__
        if not hasattr(module, name)
    ]
    assert stale == []


@pytest.mark.parametrize("demo", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_exits_zero(demo):
    done = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_perfbench_own_tests_pass():
    # the benchmark's rules are tested by a unittest script of its own
    done = subprocess.run(
        [sys.executable, "perfbench/test_perfbench.py"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_sources_have_no_assert():
    # invariant checks must still run under python -O, which strips asserts
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "ncgl2").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []

"""Names that the benchmark's traced pass looks up in the package must
exist, so renaming a function breaks a test here instead of the tracer.
The tracer's file is read with ast, not imported."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def traced_functions(path):
    tree = ast.parse(path.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED in %s" % path)


TRACED = traced_functions(ROOT / "benchmark" / "layers.py")


def test_names_were_found():
    assert ("homset", "colorings") in TRACED


@pytest.mark.parametrize("module, name", TRACED)
def test_traced_functions_resolve(module, name):
    assert callable(getattr(importlib.import_module("knotquiver." + module), name))

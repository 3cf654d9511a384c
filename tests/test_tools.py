"""Names that the catalog tool and the benchmark's traced pass look up in
the package must exist, so renaming a function breaks a test here
instead of the tool or the tracer.  Both files are read with ast, not
imported."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def knotquiver_imports(path):
    tree = ast.parse(path.read_text())
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module
        and node.module.split(".")[0] == "knotquiver"
        for alias in node.names
    ]


def traced_functions(path):
    tree = ast.parse(path.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED in %s" % path)


BUILD_CATALOG_IMPORTS = knotquiver_imports(ROOT / "tools" / "build_catalog.py")
TRACED = traced_functions(ROOT / "benchmark" / "layers.py")


def test_names_were_found():
    assert ("knotquiver.cohomology", "weight_multiset") in BUILD_CATALOG_IMPORTS
    assert ("homset", "colorings") in TRACED


@pytest.mark.parametrize("module, name", BUILD_CATALOG_IMPORTS)
def test_build_catalog_imports_resolve(module, name):
    assert hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize("module, name", TRACED)
def test_traced_functions_resolve(module, name):
    assert callable(getattr(importlib.import_module("knotquiver." + module), name))

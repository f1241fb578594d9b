"""The runtime is numpy-only: the package imports numpy and the standard library, nothing else."""

import ast
import pathlib
import sys

import tsflow

PACKAGE = pathlib.Path(tsflow.__file__).resolve().parent


def test_absolute_imports_are_numpy_or_stdlib():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    found = {}  # top-level module -> a file that imports it
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            for name in names:
                found.setdefault(name.partition(".")[0], path.name)
    assert "numpy" in found
    assert {top: where for top, where in found.items() if top not in allowed} == {}

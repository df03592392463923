"""The verifier stays independent of the builders, checked on the import
statements of the modules that certify and parse documents."""

from __future__ import annotations

import ast
from pathlib import Path

import sunurd


def relative_imports(module: str) -> set[str]:
    """The package modules that ``module``.py imports with ``from .``."""
    source = (Path(sunurd.__file__).parent / f"{module}.py").read_text(encoding="utf-8")
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found.update([node.module] if node.module else [a.name for a in node.names])
    return found


def test_core_has_no_relative_import():
    assert relative_imports("core") == set()


def test_serialization_imports_no_builder():
    assert relative_imports("serialization") & {"factorizations", "builder", "cli"} == set()

"""The package computes exactly: no float or complex value appears in its source.

Every module of the package is parsed, and the test fails on any float
or complex literal and on any use of the name ``float``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import gavindex


def test_package_source_has_no_floats():
    modules = sorted(Path(gavindex.__file__).parent.rglob("*.py"))
    assert len(modules) >= 9
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{path.name}:{node.lineno}: literal {node.value!r}")
            elif isinstance(node, ast.Name) and node.id == "float":
                found.append(f"{path.name}:{node.lineno}: name float")
    assert found == []

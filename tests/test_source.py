"""Static checks on the package source."""

import ast
from pathlib import Path

import semisimple

SOURCES = sorted(Path(semisimple.__file__).resolve().parent.glob("*.py"))


def test_no_assert_statements():
    # invariants are explicit exceptions: `python -O` strips every assert
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert SOURCES and found == []

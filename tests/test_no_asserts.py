"""Correctness checks must survive ``python -O``, which strips asserts."""

import ast
from pathlib import Path

import cmgenus2

PACKAGE = Path(cmgenus2.__file__).parent


def test_no_assert_statements_in_package():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []

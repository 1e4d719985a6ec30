"""Checks on the library source itself."""

import ast
import pathlib

import radonlab


def test_library_has_no_bare_assert():
    # a bare assert vanishes under python -O; library checks must raise
    found = []
    for path in sorted(pathlib.Path(radonlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []

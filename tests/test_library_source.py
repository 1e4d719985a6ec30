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


def _is_knob(name):
    """A parameter name that reads as a budget, tolerance or retry limit."""
    return (name in ("cap", "tol", "run")
            or name.endswith(("_cap", "_tol", "_budget", "_samples"))
            or name.startswith(("max_", "audit_")))


def test_library_has_no_defaulted_budget_parameters():
    # budgets, tolerances and retry limits are module constants, which tests
    # monkeypatch; lattice_points alone takes its cap from each caller
    found = []
    for path in sorted(pathlib.Path(radonlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            found += [f"{path.name} {node.name}({a.arg})"
                      for a in defaulted if _is_knob(a.arg)]
    assert found == ["lattice.py lattice_points(cap)"]

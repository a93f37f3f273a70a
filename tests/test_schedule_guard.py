"""Tooling: every audit checks its periods and index sets in one place,
`numerics._schedule`, and no audit keeps a copy of those checks."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dtaudit"
MODULES = sorted(PACKAGE.glob("*.py"))

# the period check outside `_schedule` guards single-period entry points, not audits
PERIOD_CHECKERS = ["ParameterizedMap.__call__", "_schedule", "simulate_cascade",
                   "simulate_driven"]
K_SET_ERROR = "k_set must be a nonempty set of nonnegative indices"


def _scoped(tree):
    """(qualified name of the innermost enclosing def or class, node) for
    every node of `tree`; module-level nodes have the scope ""."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            yield scope, child
            yield from walk(child, inner)
    return walk(tree, "")


def callers(source: str, callee: str) -> list[str]:
    """The scopes of `source` that call `callee`, by name or as an attribute."""
    return sorted({scope for scope, node in _scoped(ast.parse(source))
                   if isinstance(node, ast.Call)
                   and callee in (getattr(node.func, "id", None),
                                  getattr(node.func, "attr", None))})


def raisers(source: str, message: str) -> list[str]:
    """The scopes of `source`, one per raise statement, that raise a string holding `message`."""
    return sorted(scope for scope, node in _scoped(ast.parse(source))
                  if isinstance(node, ast.Raise)
                  and any(isinstance(c, ast.Constant) and isinstance(c.value, str)
                          and message in c.value for c in ast.walk(node)))


def test_only_the_schedule_and_single_period_entry_points_check_a_period():
    found = sorted(scope for path in MODULES
                   for scope in callers(path.read_text(), "_check_period"))
    assert found == PERIOD_CHECKERS


def test_the_index_set_error_is_raised_in_one_place():
    found = [(path.name, scope) for path in MODULES
             for scope in raisers(path.read_text(), K_SET_ERROR)]
    assert found == [("numerics.py", "_schedule")]


def test_the_guards_see_a_copied_check():
    src = ("def audit(T, ks):\n"
           "    _check_period(T, 1.0)\n"
           "    if not ks:\n"
           f"        raise ValueError('{K_SET_ERROR}')\n"
           "class Map:\n"
           "    def __call__(self, T):\n"
           "        numerics._check_period(T, self.T_max)\n"
           f"        raise ValueError(f'T={{T}}: {K_SET_ERROR}')\n")
    assert callers(src, "_check_period") == ["Map.__call__", "audit"]
    assert raisers(src, K_SET_ERROR) == ["Map.__call__", "audit"]

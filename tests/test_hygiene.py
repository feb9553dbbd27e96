"""Every module of the package uses each name it imports, every private
module-level function is used somewhere, and no function recurses, by
itself or through other functions of its module, unless it is listed.

``__init__.py`` is exempt from the first check: its imports are the
package's public names.
"""

import ast
import re
from pathlib import Path

import pytest

import xpviews

PACKAGE = Path(xpviews.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).parent


def _imported(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _referenced(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = _referenced(tree)
    unused = sorted(
        f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used
    )
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def _names(node: ast.AST) -> set[str]:
    """Names read, attributes taken and names imported anywhere in ``node``."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            found.update(alias.name for alias in n.names)
    return found


def test_private_functions_are_used():
    # A helper left behind by a deletion is defined but never called; a
    # function's calls to itself do not count as uses.
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_"):
                defined[stmt.name] = path.name
                used |= _names(stmt) - {stmt.name}
            else:
                used |= _names(stmt)
    for path in sorted(TESTS.glob("*.py")):
        used |= _names(ast.parse(path.read_text()))
    unused = sorted(f"{name} ({where})" for name, where in defined.items() if name not in used)
    assert not unused, f"private functions nothing uses: {', '.join(unused)}"


# Public names that nothing in the package uses: each is documented API in
# README.  Any other exported name must have a user in ``src/`` outside
# ``__init__.py``, so test-only API does not grow back into the exports.
DOCUMENTED = ["are_akin", "compensate_pattern", "is_satisfiable", "pattern_from_json", "rewrite"]


def test_public_names_have_a_user():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {alias.asname or alias.name for n in init.body if isinstance(n, ast.ImportFrom) for alias in n.names}
    used: set[str] = set()
    for path in MODULES:
        for stmt in ast.parse(path.read_text()).body:
            own = {stmt.name} if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else set()
            used |= _names(stmt) - own
    assert sorted(exported - used) == DOCUMENTED
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    assert [name for name in DOCUMENTED if not re.search(rf"`{name}[`(]", readme)] == []


# Functions on a cycle of calls within their module, as module.function: a
# function that calls itself, or calls one that leads back to it.  Calls are
# resolved by name (``f(...)`` or ``self.f(...)``), so a nested function or
# a method counts under its own name.  Recursion along pattern or document
# depth fails on deep inputs, so a new one must be justified here.
RECURSIVE = [
    "documents._at",
    "documents._compile",
    "documents._fits_in",
    "documents._up",
    "documents.fits",
    "interleaving._place",
    "interleaving.rec",
    "pattern._graft_pred",
    "pattern._pred_of",
    "pattern.dag_from_expr",
    "syntax._branch_text",
    "syntax._normalize_comp",
    "syntax._pred_text",
    "syntax._steps_text",
    "syntax.parse_expr",
    "syntax.parse_pred",
    "syntax.parse_rpath",
    "syntax.parse_step",
    "syntax.parse_term",
    "syntax.print_expr",
]


def _callee(func: ast.expr):
    """The name called: ``f(...)`` or a method call ``self.f(...)``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id == "self":
        return func.attr
    return None


def _on_call_cycles(tree: ast.Module) -> set[str]:
    calls: dict[str, set] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            found = {_callee(c.func) for c in ast.walk(node) if isinstance(c, ast.Call)}
            calls.setdefault(node.name, set()).update(found)
    cyclic = set()
    for name, callees in calls.items():
        seen: set[str] = set()
        stack = [c for c in callees if c in calls]
        while stack:
            f = stack.pop()
            if f not in seen:
                seen.add(f)
                stack.extend(c for c in calls[f] if c in calls)
        if name in seen:
            cyclic.add(name)
    return cyclic


def test_recursive_functions_are_listed():
    found = [
        f"{path.stem}.{name}" for path in MODULES for name in _on_call_cycles(ast.parse(path.read_text()))
    ]
    assert sorted(found) == RECURSIVE

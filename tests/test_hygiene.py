"""Every module of the package uses each name it imports, every private
module-level function is used somewhere, and no function recurses unless
it is listed.

``__init__.py`` is exempt from the first check: its imports are the
package's public names.
"""

import ast
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


# Functions that call themselves by name, as module.function; a nested
# function or a method (calling ``self.name``) counts under its own name.
# Recursion along pattern or document depth fails on deep inputs, so a new
# one must be justified here.
RECURSIVE = [
    "containment.search",
    "documents._at",
    "documents._compile",
    "documents.fits",
    "documents.search",
    "pattern._graft_pred",
    "pattern._pred_of",
    "pattern.dag_from_expr",
    "syntax._normalize_comp",
    "syntax._pred_text",
    "syntax.print_expr",
]


def _callee(func: ast.expr):
    """The name called: ``f(...)`` or a method call ``self.f(...)``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id == "self":
        return func.attr
    return None


def test_recursive_functions_are_listed():
    found = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                calls = {_callee(c.func) for c in ast.walk(node) if isinstance(c, ast.Call)}
                if node.name in calls:
                    found.append(f"{path.stem}.{node.name}")
    assert sorted(found) == RECURSIVE

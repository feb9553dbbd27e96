"""Every module of the package uses each name it imports, and every
private module-level function is used somewhere.

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

"""Package layout: no module reaches into a sibling module's private names."""

import ast
from pathlib import Path

import shotgenre

PACKAGE = Path(shotgenre.__file__).parent


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _sibling_private_uses(path):
    """``module.name`` for each private name that ``path`` imports from a
    sibling module or reads as an attribute of a sibling module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    siblings, uses = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module is None:  # from . import a, b
                siblings.update(alias.asname or alias.name for alias in node.names)
            else:
                uses += [f"{node.module}.{alias.name}" for alias in node.names
                         if _private(alias.name)]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and _private(node.attr)):
            uses.append(f"{node.value.id}.{node.attr}")
    return uses


def test_no_module_uses_a_sibling_private_name():
    found = {path.name: _sibling_private_uses(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: uses for name, uses in found.items() if uses} == {}

"""Source hygiene: a deletion leaves no unused import and no orphaned
private module-level name behind in the package."""

import ast
from pathlib import Path

import piezodamp as pd

PACKAGE = Path(pd.__file__).resolve().parent
MODULES = {path.name: ast.parse(path.read_text())
           for path in sorted(PACKAGE.glob("*.py"))}


def _references(tree) -> set:
    """Every name the module reads, as a bare name, an attribute or an
    imported name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _imported(tree) -> set:
    """Names bound by the module's imports, ``from __future__`` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _loaded(tree) -> set:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _private_definitions(tree) -> set:
    """Module-level functions, classes and assignments named ``_x``."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_every_import_is_used():
    unused = {name: sorted(_imported(tree) - _loaded(tree))
              for name, tree in MODULES.items() if name != "__init__.py"}
    assert {k: v for k, v in unused.items() if v} == {}


def test_every_private_module_name_is_referenced():
    referenced = set().union(*map(_references, MODULES.values()))
    orphans = {name: sorted(_private_definitions(tree) - referenced)
               for name, tree in MODULES.items()}
    assert {k: v for k, v in orphans.items() if v} == {}

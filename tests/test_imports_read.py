"""Every name a swcalc module imports is read somewhere in that module,
and every private module-level definition is read somewhere in swcalc.

No linter ships with the package, and deleting a helper can leave its
import behind, or a helper behind once its last caller is gone; these
checks parse each module with ``ast`` instead.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "swcalc"
MODULES = sorted(SRC.glob("*.py"))


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return names


def read_names(tree: ast.Module) -> set[str]:
    """Names of every Name node, and of those in string annotations."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    trees = [tree]
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    return {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}


def test_modules_found():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert sorted(imported_names(tree) - read_names(tree)) == []


def private_definitions(tree: ast.Module) -> set[str]:
    """Module-level functions, classes and constants whose names start
    with one underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def loaded_names(tree: ast.Module) -> set[str]:
    """Names read as values, as attributes, or imported from a sibling."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.level:
            names.update(alias.name for alias in node.names)
    return names


def test_every_private_definition_is_read():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in SRC.glob("*.py")}
    read = set().union(*map(loaded_names, trees.values()))
    unread = {
        f"{name}.{definition}"
        for name, tree in trees.items()
        for definition in private_definitions(tree) - read
    }
    assert sorted(unread) == []

"""Every module-level import of a library module is used in that module."""

import ast
from pathlib import Path

import pytest

import billiardlab

MODULES = sorted(p for p in Path(billiardlab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_imports_are_referenced(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    referenced = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(imported - referenced) == [], path.name

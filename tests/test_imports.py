"""Every module-level import of a library module is used in that module,
and every module-level UPPER_CASE constant is read somewhere in the library."""

import ast
import re
from pathlib import Path

import pytest

import billiardlab

SOURCES = sorted(Path(billiardlab.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


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


def test_module_constants_are_referenced():
    # a deleted code path must not leave its tolerance or option behind
    assigned, read = {}, set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.Assign):
                assigned.update((t.id, path.name) for t in node.targets
                                if isinstance(t, ast.Name)
                                and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", t.id))
        read.update(n.id for n in ast.walk(tree)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
    assert sorted(f"{assigned[name]}:{name}" for name in set(assigned) - read) == []

"""Every module-level import of a library module is used in that module,
every module-level UPPER_CASE constant and every private function, method
and class is read somewhere in the library, and every generic body method
is inherited by some library body."""

import ast
import inspect
import re
import textwrap
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


def test_private_helpers_are_referenced():
    # a deleted solver must not leave its helpers behind
    defined, read = {}, set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and re.fullmatch(r"_[^_].*", node.name)):
                defined[node.name] = path.name
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert sorted(f"{defined[name]}:{name}" for name in set(defined) - read) == []


LIBRARY_BODIES = (billiardlab.Ellipsoid, billiardlab.Superellipse, billiardlab.RadialBody2D,
                  billiardlab.SupportBody2D, billiardlab.LinearImageBody, billiardlab.PolarBody)


def _is_abstract(func):
    # a body of `raise NotImplementedError`, after any docstring
    body = ast.parse(textwrap.dedent(inspect.getsource(func))).body[0].body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    return (len(body) == 1 and isinstance(body[0], ast.Raise)
            and ast.unparse(body[0].exc) == "NotImplementedError")


def test_generic_body_methods_are_inherited():
    # a generic fallback that every library body overrides is code nothing calls
    unused = [name for name, func in vars(billiardlab.ConvexBody).items()
              if inspect.isfunction(func) and not _is_abstract(func)
              and not any(getattr(cls, name) is func for cls in LIBRARY_BODIES)]
    assert unused == []

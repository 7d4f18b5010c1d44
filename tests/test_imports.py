"""Every name a kclose module imports at module level is used in it, and
every name in its ``__all__`` is defined or imported in it."""

import ast
from pathlib import Path

import pytest

import kclose

MODULES = sorted(Path(kclose.__file__).parent.glob("*.py"))


def _exported(tree) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= set(_exported(tree))  # re-exports listed in __all__ count as uses
    return [name for name in bound if name not in used]


def _undefined_exports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return [name for name in _exported(tree) if name not in bound]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    src = "import numpy as np\nfrom .kfunctional import kt_bruteforce, kt_closed_form\nkt_bruteforce(np)\n"
    assert _unused_imports(src) == ["kt_closed_form"]
    assert _unused_imports("from __future__ import annotations\n") == []
    assert _unused_imports('from .a import b\n__all__ = ["b"]\n') == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_defines_every_export(path):
    assert _undefined_exports(path.read_text()) == []


def test_undefined_export_is_reported():
    src = 'from .a import b\nC = 1\ndef f(): pass\n__all__ = ["b", "C", "f", "Gone"]\n'
    assert _undefined_exports(src) == ["Gone"]

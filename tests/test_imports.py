"""Every name a kclose module imports at module level is used in it."""

import ast
from pathlib import Path

import pytest

import kclose

MODULES = sorted(Path(kclose.__file__).parent.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:  # re-exports listed in __all__ count as uses
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    src = "import numpy as np\nfrom .kfunctional import kt_bruteforce, kt_closed_form\nkt_bruteforce(np)\n"
    assert _unused_imports(src) == ["kt_closed_form"]
    assert _unused_imports("from __future__ import annotations\n") == []
    assert _unused_imports('from .a import b\n__all__ = ["b"]\n') == []

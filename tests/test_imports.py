"""Every imported name is used: each source and test module is checked with ``ast``."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    [p for p in (ROOT / "src" / "spinpoint").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")),
)


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by imports that no ``Name`` node reads and ``__all__`` does not list.

    The base of an attribute (``np`` in ``np.array``) is itself a ``Name``.
    """
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # ``import a.b`` binds ``a``
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_uses_every_import(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_an_unused_import_is_found():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import numpy as np\nimport os.path\nfrom math import pi, tau as t\n"
        "__all__ = ['pi']\nnp.zeros(1)\n"
    )
    assert unused_imports(tree) == ["os", "t"]

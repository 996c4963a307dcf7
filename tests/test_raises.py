"""Every error the package raises is a SpinpointError: checked on the source with ``ast``."""

import ast
import builtins
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "spinpoint").glob("*.py"))


def builtin_raises(tree: ast.Module) -> list[str]:
    """Names of the builtin exception classes raised in ``tree``, ``SystemExit`` aside.

    ``raise E`` and ``raise E(...)`` both count; a bare ``raise`` or a raised
    variable does not.
    """
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if not isinstance(exc, ast.Name) or exc.id == "SystemExit":
            continue
        cls = getattr(builtins, exc.id, None)
        if isinstance(cls, type) and issubclass(cls, BaseException):
            found.append(exc.id)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_raises_no_builtin_exception(path):
    assert builtin_raises(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_a_builtin_raise_is_found():
    tree = ast.parse(
        "def f(x):\n"
        "    if x:\n        raise ValueError('x')\n"
        "    try:\n        g()\n    except KeyError as exc:\n        raise exc\n"
        "    raise TypeError\n"
        "raise SpinpointError('y')\nraise SystemExit(main())\n"
    )
    assert sorted(builtin_raises(tree)) == ["TypeError", "ValueError"]

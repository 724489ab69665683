"""Every private helper in the package is read somewhere in the package.

A private helper is a module-level function or class, or a method, whose
name starts with one underscore.  A refactor that drops its last caller
leaves it orphaned; this scan finds it.
"""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "plateau_lab"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unread_helpers(sources: dict) -> list[str]:
    """``file: name`` of each private helper that no ``Name`` or ``Attribute`` reads."""
    helpers, read = [], set()
    for path, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, _DEFS) and _private(node.name):
                helpers.append((path, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                helpers += [(path, f"{node.name}.{m.name}", m.name) for m in node.body
                            if isinstance(m, _DEFS) and _private(m.name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [f"{path}: {label}" for path, label, name in helpers if name not in read]


def test_the_scan_finds_an_unread_helper():
    sources = {
        "a.py": ("def _used():\n    pass\ndef _dead():\n    pass\ndef __dunder__():\n    pass\n"
                 "class _Kept:\n    def _m(self):\n        pass\n"
                 "    def _orphan(self):\n        pass\n"),
        "b.py": "from a import _used\n_used()\nx = _Kept()\nx._m()\n",
    }
    assert unread_helpers(sources) == ["a.py: _dead", "a.py: _Kept._orphan"]


def test_every_private_helper_is_read():
    sources = {str(p.relative_to(PACKAGE)): p.read_text() for p in sorted(PACKAGE.rglob("*.py"))}
    assert unread_helpers(sources) == []

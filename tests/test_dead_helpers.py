"""Every private helper in the package is read somewhere in the package.

A private helper is a module-level function or class, or a method, whose
name starts with one underscore.  A refactor that drops its last caller
leaves it orphaned; this scan finds it.  Two more scans hold every method of
a package class, and every field of a package dataclass, to the same rule:
some attribute read in the package, the tests or the bench names it.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "plateau_lab"

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = _FUNCS + (ast.ClassDef,)


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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _attribute_reads(sources: dict) -> set:
    return {node.attr for source in sources.values() for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _classes(sources: dict):
    """``(file, ClassDef)`` for each module-level class."""
    for path, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.ClassDef):
                yield path, node


def unread_methods(sources: dict, readers: dict) -> list[str]:
    """Non-dunder methods of ``sources``' classes that no attribute read in ``readers`` names."""
    read = _attribute_reads(readers)
    return [f"{path}: {cls.name}.{m.name}" for path, cls in _classes(sources) for m in cls.body
            if isinstance(m, _FUNCS) and not m.name.startswith("__") and m.name not in read]


def unread_fields(sources: dict, readers: dict) -> list[str]:
    """Fields of ``sources``' dataclasses that no attribute read in ``readers`` names."""
    read = _attribute_reads(readers)
    return [f"{path}: {cls.name}.{f.target.id}" for path, cls in _classes(sources)
            if _is_dataclass(cls) for f in cls.body
            if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
            and f.target.id not in read]


_MEMBER_SOURCES = {
    "a.py": ("from dataclasses import dataclass\n"
             "import dataclasses\n"
             "@dataclass(frozen=True)\nclass Rec:\n    kept: int\n    dead: int\n"
             "    def used(self):\n        return self.kept\n"
             "    def unused(self):\n        pass\n"
             "    def __repr__(self):\n        return ''\n"
             "@dataclasses.dataclass\nclass Other:\n    lost: float\n"
             "class Plain:\n    note: str\n    def _private(self):\n        pass\n"),
}
_MEMBER_READERS = {"t.py": "r = Rec(1, 2)\nr.used()\nRec.dead = 3\np._private()\n"}


def test_the_scan_finds_an_unread_method():
    assert unread_methods(_MEMBER_SOURCES, _MEMBER_READERS | _MEMBER_SOURCES) == [
        "a.py: Rec.unused"]


def test_the_scan_finds_an_unread_field():
    # a store is not a read, and a class that is not a dataclass has no fields
    assert unread_fields(_MEMBER_SOURCES, _MEMBER_READERS | _MEMBER_SOURCES) == [
        "a.py: Rec.dead", "a.py: Other.lost"]


def _package_and_readers() -> tuple[dict, dict]:
    sources = {str(p.relative_to(PACKAGE)): p.read_text() for p in sorted(PACKAGE.rglob("*.py"))}
    readers = {str(p.relative_to(ROOT)): p.read_text()
               for d in ("src", "tests", "bench") for p in sorted((ROOT / d).rglob("*.py"))}
    return sources, readers


def test_every_method_is_read():
    assert unread_methods(*_package_and_readers()) == []


def test_every_dataclass_field_is_read():
    assert unread_fields(*_package_and_readers()) == []

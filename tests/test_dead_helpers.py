"""Every private helper in the package is read somewhere in the package.

A private helper is a module-level function or class, or a method, whose
name starts with one underscore.  A refactor that drops its last caller
leaves it orphaned; this scan finds it.  Two more scans hold every method of
a package class to the rule that some attribute read in the package names
it, and every field of a package dataclass to the rule that some attribute
read in the package, the tests or the bench names it.  A last scan holds
every public module-level name to the first rule: the package reads it
outside its ``__init__.py`` files, so no API lives on for its tests alone.
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


def _loads(tree: ast.AST) -> set:
    """The names that the tree's ``Name`` and ``Attribute`` loads read."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


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
        read |= _loads(tree)
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


def _files(*dirs: str) -> dict:
    return {str(p.relative_to(ROOT)): p.read_text()
            for d in dirs for p in sorted((ROOT / d).rglob("*.py"))}


def _package() -> dict:
    return {str(p.relative_to(PACKAGE)): p.read_text() for p in sorted(PACKAGE.rglob("*.py"))}


def test_every_method_is_read():
    assert unread_methods(_package(), _files("src")) == []


def test_every_dataclass_field_is_read():
    assert unread_fields(_package(), _files("src", "tests", "bench")) == []


def _public_names(tree: ast.Module):
    """Public module-level functions, classes and constants of one module.

    A decorated function counts as read: its decorator registered it (the
    click subcommands).
    """
    for node in tree.body:
        if isinstance(node, _DEFS) and not (isinstance(node, _FUNCS) and node.decorator_list):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            names = []
        yield from (n for n in names if not n.startswith("_"))


def unread_public_names(sources: dict, readers: dict) -> list[str]:
    """``file: name`` of each public name of ``sources`` that no file of ``src/``
    outside an ``__init__.py`` reads by a ``Name``, an ``Attribute`` or an
    imported alias."""
    read = set()
    for path, source in readers.items():
        if not path.startswith("src/") or Path(path).name == "__init__.py":
            continue
        tree = ast.parse(source)
        read |= _loads(tree)
        read.update(alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for alias in node.names)
    return [f"{path}: {name}" for path, source in sources.items()
            for name in _public_names(ast.parse(source)) if name not in read]


_NAME_SOURCES = {
    "src/pkg/__init__.py": "from .a import reexported\n",
    "src/pkg/a.py": ("import click\nLIMIT: int = 3\nSTALE = 4\n_HIDDEN = 5\n"
                     "def used():\n    return LIMIT\n"
                     "def renamed():\n    pass\n"
                     "def reexported():\n    pass\n"
                     "def tested():\n    pass\n"
                     "class Kept:\n    pass\n"
                     "@click.command()\ndef sub():\n    pass\n"),
    "src/pkg/b.py": "from .a import renamed as alias, used\nalias(used(), a.Kept)\n",
    "tests/test_a.py": "from pkg.a import STALE, tested\ntested(STALE)\n",
}


def test_the_scan_finds_an_unread_public_name():
    # a test file or an __init__ re-export is no read; an alias or a
    # registering decorator is
    assert unread_public_names(_NAME_SOURCES, _NAME_SOURCES) == [
        "src/pkg/a.py: STALE", "src/pkg/a.py: reexported", "src/pkg/a.py: tested"]


#: public names no package code reads, each kept for a reader outside it
UNREAD_ALLOWED = {
    "skeleton_deviation": "criterion 05 reads it",
    "interior_face_measure": "criterion 05 reads it",
    "big_projection_check": "criterion 07 reads it",
    "point_mesh_distance": ("bench/spans.py hooks it, and tests/test_bench_hooks.py "
                            "guards that hook until ROADMAP item 2 replaces it"),
}


def test_every_public_name_is_read():
    unread = unread_public_names(_files("src"), _files("src"))
    assert sorted(entry.split(": ")[1] for entry in unread) == sorted(UNREAD_ALLOWED)

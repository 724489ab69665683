"""Every name a module of the package or of the test suite imports is read
somewhere in that module.

Package ``__init__.py`` files are exempt: their imports are re-exports.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "plateau_lab"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in read]


def test_the_scan_finds_an_unused_import():
    src = ("from __future__ import annotations\nimport os, sys\n"
           "from typing import Optional as Opt, Sequence\nimport numpy.linalg\n"
           "def f(x: Opt[int]) -> None:\n    return sys.exit(numpy.linalg.norm(x))\n")
    assert unused_imports(src) == ["line 2: os", "line 3: Sequence"]


@pytest.mark.parametrize("path", MODULES + TEST_MODULES,
                         ids=[str(p.relative_to(PACKAGE)) for p in MODULES]
                         + [f"tests/{p.name}" for p in TEST_MODULES])
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text()) == []

"""Every private helper in the package is read somewhere in the package.

A private helper is a module-level function or class, or a method, whose
name starts with one underscore.  A refactor that drops its last caller
leaves it orphaned; this scan finds it.  Two more scans hold every method of
a package class to the rule that some attribute read in the package names
it, and every field of a package dataclass to the rule that some attribute
read in the package, the tests or the bench names it.  A further scan holds
every public module-level name to the first rule: the package reads it
outside its ``__init__.py`` files, so no API lives on for its tests alone.
A last scan holds every defaulted parameter of a package function to the
rule that some package call sets it, so no option lives on for its tests
alone: an option with one value in use is a constant.  The glue scan holds
the boundary rule of identified axes to ``grids.py``: no other module reads
a grid's ``identified`` flags or wraps a lattice index ``% N``.  The vertex
table scan holds shared vertex numbering to ``geometry/meshio.py``: a mesh is
its corner array, and only the file writers and readers number vertices.
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


def _imported_file(path: str, node: ast.ImportFrom, files) -> str | None:
    """The file of ``files`` that a ``from`` import in ``path`` names, if any."""
    base = Path(path).parents[node.level - 1] if node.level else Path("src")
    target = base.joinpath(*node.module.split(".")) if node.module else base
    for candidate in (target.with_suffix(".py"), target / "__init__.py"):
        if str(candidate) in files:
            return str(candidate)
    return None


def _module_reads(path: str, tree: ast.Module, files) -> set:
    """``(file, name)`` for each read in ``path`` of a name that ``file``
    defines: a ``Name`` load in ``path`` itself, a ``from file import name``,
    or a ``module.name`` load where ``module`` is bound to ``file`` by a
    ``from`` import."""
    reads = {(path, name) for name in _loads(tree)}
    modules = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = _imported_file(path, node, files)
        for alias in node.names if source is not None else ():
            module = str(Path(source).parent / f"{alias.name}.py")
            if source.endswith("__init__.py") and module in files:
                modules[alias.asname or alias.name] = module
            else:
                reads.add((source, alias.name))
    reads |= {(modules[node.value.id], node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and isinstance(node.value, ast.Name) and node.value.id in modules}
    return reads


def unread_public_names(sources: dict, readers: dict) -> list[str]:
    """``file: name`` of each public name of ``sources`` that no file of ``src/``
    outside an ``__init__.py`` reads (``_module_reads``): an attribute load
    of the same name on another object is no read."""
    read = set()
    for path, source in readers.items():
        if path.startswith("src/") and Path(path).name != "__init__.py":
            read |= _module_reads(path, ast.parse(source), readers)
    return [f"{path}: {name}" for path, source in sources.items()
            for name in _public_names(ast.parse(source)) if (path, name) not in read]


_NAME_SOURCES = {
    "src/pkg/__init__.py": "from .a import reexported\n",
    "src/pkg/a.py": ("import click\nLIMIT: int = 3\nSTALE = 4\n_HIDDEN = 5\n"
                     "def used():\n    return LIMIT\n"
                     "def renamed():\n    pass\n"
                     "def reexported():\n    pass\n"
                     "def tested():\n    pass\n"
                     "def mass():\n    pass\n"
                     "def total():\n    pass\n"
                     "class Kept:\n    pass\n"
                     "@click.command()\ndef sub():\n    pass\n"),
    "src/pkg/b.py": ("from . import a\nfrom .a import renamed as alias, used\n"
                     "alias(used(), a.Kept, a.total())\n"
                     "class Net:\n    def mass(self):\n        return 0\n"
                     "    def cost(self):\n        return self.mass()\n"
                     "Net().cost()\n"),
    "tests/test_a.py": "from pkg.a import STALE, mass, tested\ntested(STALE, mass)\n",
}


def test_the_scan_finds_an_unread_public_name():
    # a test file or an __init__ re-export is no read, nor is a method of the
    # same name (``self.mass()`` is not ``a.mass``); an alias, a read through
    # the module and a registering decorator are
    assert unread_public_names(_NAME_SOURCES, _NAME_SOURCES) == [
        "src/pkg/a.py: STALE", "src/pkg/a.py: reexported", "src/pkg/a.py: tested",
        "src/pkg/a.py: mass"]


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


def _value(node: ast.expr):
    """A default or argument as a literal when it is one, else as its source tree."""
    try:
        return ast.literal_eval(node)
    except ValueError:
        return ast.dump(node)


def _options(tree: ast.Module):
    """``(function, position, parameter, default)`` for each defaulted
    parameter of each function or method; the position counts the arguments
    of a call (not ``self`` or ``cls``) and is None for keyword-only ones."""
    methods = {id(m) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for m in cls.body
               if isinstance(m, _FUNCS)
               and not any(getattr(d, "id", None) == "staticmethod" for d in m.decorator_list)}
    for fn in ast.walk(tree):
        if isinstance(fn, _FUNCS):
            args = fn.args
            positional = (args.posonlyargs + args.args)[id(fn) in methods:]
            first = len(positional) - len(args.defaults)
            for i, (arg, default) in enumerate(zip(positional[first:], args.defaults), first):
                yield fn.name, i, arg.arg, default
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield fn.name, None, arg.arg, default


def _calls(tree: ast.Module):
    """``(name, Call)`` for each call by a bare or dotted name, with the
    ``import ... as`` aliases of the module resolved to the imported name."""
    aliases = {a.asname: a.name for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names if a.asname}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            yield aliases.get(node.func.id, node.func.id), node
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            yield node.func.attr, node


def _sets(call: ast.Call, position, param: str, default: ast.expr) -> bool:
    """Does the call pass the parameter a value other than its default?  A
    ``*args`` or ``**kwargs`` that could reach it counts as setting it."""
    if any(k.arg is None for k in call.keywords):
        return True
    values = [k.value for k in call.keywords if k.arg == param]
    for i, arg in enumerate(call.args if position is not None else []):
        if isinstance(arg, ast.Starred):
            return i <= position
        if i == position:
            values.append(arg)
    return any(_value(v) != _value(default) for v in values)


def unset_options(sources: dict) -> list[str]:
    """``file: function.parameter`` of each defaulted parameter of a function
    in ``sources`` that no call in ``sources`` sets to another value.  Calls
    match functions by name, so a method call matches every method and
    function of that name."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    calls: dict = {}
    for tree in trees.values():
        for name, call in _calls(tree):
            calls.setdefault(name, []).append(call)
    return [f"{path}: {fn}.{param}" for path, tree in trees.items()
            for fn, position, param, default in _options(tree)
            if not any(_sets(call, position, param, default) for call in calls.get(fn, []))]


_OPTION_SOURCES = {
    "a.py": ("TOL = 1e-4\n"
             "def clip(mesh, tol=TOL, inside=True, *, sides=8):\n    pass\n"
             "def blowup(mesh, clip=True):\n    pass\n"
             "def scaled(mesh, scale=1.0, shift=0.0):\n    pass\n"
             "def spread(*args, step=1, **kw):\n    pass\n"
             "class Net:\n    def cost(self, beta=1.0):\n        pass\n"
             "    @staticmethod\n    def mean(values, start=0.0):\n        pass\n"),
    "b.py": ("from a import blowup as blow\n"
             "def f(mesh, t, n, args):\n"
             "    clip(mesh, TOL, inside=True)\n"
             "    blow(mesh, clip=False)\n"
             "    scaled(mesh, 2.0, shift=-1.0)\n"
             "    spread(*args)\n"
             "    Net().cost(2.0)\n"
             "    Net.mean([1.0], 0.0)\n"),
}


def test_the_scan_finds_an_option_no_call_sets():
    # a value equal to the default is no setting, positional or by keyword;
    # an aliased import resolves to the function it names; a method's
    # positions skip ``self`` but a static method's do not
    assert unset_options(_OPTION_SOURCES) == [
        "a.py: clip.tol", "a.py: clip.inside", "a.py: clip.sides", "a.py: spread.step",
        "a.py: mean.start"]


#: options no package call sets, each kept for the tests that set it
UNSET_ALLOWED = {
    "admissible_moves.only_improving": "the move-vocabulary tests enumerate the full menu",
    "big_projection_check.tau": "criterion 07 varies it",
}


def test_every_keyword_option_is_set():
    unset = unset_options(_package())
    assert sorted(entry.split(": ")[1] for entry in unset) == sorted(UNSET_ALLOWED)


def glue_decisions(sources: dict) -> list[str]:
    """Sorted ``file: where`` of each read of an ``identified`` attribute and
    each ``% N`` or ``% x.subdivisions`` outside ``grids.py``.  ``where`` is the
    string key of the dict entry that holds the read, else its line."""
    found = []
    for path, source in sources.items():
        if Path(path).name == "grids.py":
            continue
        tree = ast.parse(source)
        entry = {id(node): key.value for d in ast.walk(tree) if isinstance(d, ast.Dict)
                 for key, value in zip(d.keys, d.values) if isinstance(key, ast.Constant)
                 for node in ast.walk(value)}
        for node in ast.walk(tree):
            mod = None
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
                mod = node.right
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mod):
                mod = node.value
            wraps = getattr(mod, "id", getattr(mod, "attr", None)) in ("N", "subdivisions")
            reads = (isinstance(node, ast.Attribute) and node.attr == "identified"
                     and isinstance(node.ctx, ast.Load))
            if wraps or reads:
                found.append(f"{path}: {entry.get(id(node), f'line {node.lineno}')}")
    return sorted(found)


_GLUE_SOURCES = {
    "grids.py": "ok = grid.identified\nlat = lat % N\n",
    "a.py": ("plan = {'glued': any(grid.identified)}\n"
             "lat = lat % grid.subdivisions\n"
             "lat %= N\n"
             "odd = k % 2\n"
             "grid.identified = None\n"
             "text = 'identified'\n"),
}


def test_the_scan_finds_a_glue_decision():
    # grids.py may decide; a store, a string or another modulus is no decision
    assert glue_decisions(_GLUE_SOURCES) == ["a.py: glued", "a.py: line 2", "a.py: line 3"]


#: reads of ``identified`` outside grids.py, each kept for its reason
GLUE_ALLOWED = {
    "projection.py: freeze_boundary": "the projection plan records the grid's boundary rule",
    "projection.py: periodic": "the projection plan records the grid's boundary rule",
}


def test_only_grids_decides_glued_axes():
    assert glue_decisions(_package()) == sorted(GLUE_ALLOWED)


def vertex_table_uses(sources: dict) -> list[str]:
    """Sorted ``file: line N`` of each read of a ``vertices`` or ``simplices``
    attribute and each call of ``_vertex_table`` outside ``geometry/meshio.py``."""
    found = []
    for path, source in sources.items():
        if Path(path).as_posix() == "geometry/meshio.py":
            continue
        for node in ast.walk(ast.parse(source)):
            reads = (isinstance(node, ast.Attribute) and node.attr in ("vertices", "simplices")
                     and isinstance(node.ctx, ast.Load))
            callee = getattr(node, "func", None)
            calls = getattr(callee, "id", getattr(callee, "attr", None)) == "_vertex_table"
            if reads or calls:
                found.append(f"{path}: line {node.lineno}")
    return sorted(found)


_TABLE_SOURCES = {
    "geometry/meshio.py": "verts, simps = _vertex_table(mesh.corners)\nn = mesh.vertices\n",
    "meshio.py": "n = mesh.simplices\n",
    "a.py": ("verts = mesh.vertices\n"
             "table = meshio._vertex_table(c)\n"
             "mesh.simplices = None\n"
             "text = 'vertices'\n"
             "corners = mesh.corners\n"),
}


def test_the_scan_finds_a_vertex_table_use():
    # only geometry/meshio.py may number vertices; a store or a string is no use
    assert vertex_table_uses(_TABLE_SOURCES) == ["a.py: line 1", "a.py: line 2", "meshio.py: line 1"]


def test_only_meshio_numbers_vertices():
    assert vertex_table_uses(_package()) == []

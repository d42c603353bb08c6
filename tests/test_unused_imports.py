"""No module imports a name it never uses, and no private helper is dead.

A standard-library ``ast`` scan of ``src/rsmcanon`` (the package
``__init__.py`` re-exports on purpose and is left out), ``tests/`` and
``demos/``. A name counts as used when it appears as a name anywhere in
the module, as the root of an attribute chain, or in ``__all__``.

A module-level private name in ``src/rsmcanon`` (a function, class or
assignment whose name starts with one underscore) must be loaded by
some code in ``src/rsmcanon``, as a name or as an attribute; a helper
that only tests still call is dead code. No module there imports a
private name from another package module: what one module needs of
another is public.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "rsmcanon").glob("*.py"))
SOURCES = sorted(
    [p for p in (ROOT / "src" / "rsmcanon").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "demos").glob("*.py"))
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom a.b import c as d\nsys.exit(0)\n") == [
        "line 1: os", "line 3: d"]
    assert unused_imports("from __future__ import annotations\nimport a.b\na.b.c()\n") == []


def test_no_unused_imports():
    assert len(SOURCES) > 20
    found = {str(p.relative_to(ROOT)): unused_imports(p.read_text()) for p in SOURCES}
    assert {path: names for path, names in found.items() if names} == {}


def private_definitions(source: str) -> dict[str, int]:
    """Module-level ``_name`` definitions (dunders excluded) -> line."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        found.update((name, node.lineno) for name in names
                     if name.startswith("_") and not name.startswith("__"))
    return found


def loaded_names(source: str) -> set[str]:
    """Names the code reads, bare or as an attribute."""
    tree = ast.parse(source)
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def dead_private_helpers(sources: dict[str, str]) -> list[str]:
    loaded = set().union(*map(loaded_names, sources.values()))
    return [f"{path}:{line}: {name}" for path, source in sources.items()
            for name, line in private_definitions(source).items() if name not in loaded]


def test_scan_finds_a_dead_private_helper():
    sources = {"a.py": "def _used():\n    pass\n\n\ndef _dead():\n    _used()\n",
               "b.py": "_LIMIT = 3\n__all__ = []\nclass _Spare:\n    pass\n",
               "c.py": "import a\na._dead\n"}
    assert dead_private_helpers(sources) == ["b.py:1: _LIMIT", "b.py:3: _Spare"]


def test_no_dead_private_helpers():
    assert len(PACKAGE) > 10
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE}
    assert dead_private_helpers(sources) == []


def private_imports(source: str) -> list[str]:
    """``_name`` imports from a package module, relative or by ``rsmcanon``."""
    return [f"line {node.lineno}: {alias.name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "rsmcanon")
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.startswith("__")]


def test_scan_finds_a_private_import():
    source = ("from __future__ import annotations\nfrom os import _exit\n"
              "from .regions import _sample, boundary_points\nfrom . import __version__\n"
              "from rsmcanon.linalg import _wavefront\n")
    assert private_imports(source) == ["line 3: _sample", "line 5: _wavefront"]


def test_no_private_imports_across_modules():
    found = {str(p.relative_to(ROOT)): private_imports(p.read_text()) for p in PACKAGE}
    assert {path: names for path, names in found.items() if names} == {}

"""No module imports a name it never uses.

A standard-library ``ast`` scan of ``src/rsmcanon`` (the package
``__init__.py`` re-exports on purpose and is left out), ``tests/`` and
``demos/``. A name counts as used when it appears as a name anywhere in
the module, as the root of an attribute chain, or in ``__all__``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
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

"""The package imports the standard library, numpy and itself, nothing else.

pyproject.toml declares numpy as the one dependency, and scipy, though
often importable where the tests run, must not creep into ``src/``. A
standard-library ``ast`` scan of ``src/rsmcanon/*.py`` checks every
``import`` and ``from ... import`` against ``sys.stdlib_module_names``.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "rsmcanon").glob("*.py"))
ALLOWED = sys.stdlib_module_names | {"numpy", "rsmcanon"}


def foreign_imports(source: str) -> list[str]:
    """Absolute imports whose top-level module is outside ALLOWED."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:  # not an import, or relative: the package itself
            continue
        found += [f"line {node.lineno}: {m}" for m in modules if m.split(".")[0] not in ALLOWED]
    return found


def test_scan_finds_a_foreign_import():
    source = ("from __future__ import annotations\nimport os.path, scipy\n"
              "from scipy.linalg import eigh\nimport numpy.linalg as la\n"
              "from . import linalg\nfrom .model import build_model\n"
              "from rsmcanon.errors import RsmError\nimport rsmcanonical\n")
    assert foreign_imports(source) == ["line 2: scipy", "line 3: scipy.linalg",
                                       "line 8: rsmcanonical"]


def test_package_imports_only_the_standard_library_and_numpy():
    assert len(PACKAGE) > 10
    found = {str(p.relative_to(ROOT)): foreign_imports(p.read_text()) for p in PACKAGE}
    assert {path: names for path, names in found.items() if names} == {}

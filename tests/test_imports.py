"""No module of the package imports a name it never uses.

A deletion tends to leave its imports behind; this reads each module's
syntax tree and names every imported binding that nothing in the module
reads. ``__init__.py`` is left out: its imports are the package's exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "casegraph"
MODULES = sorted(path for path in SOURCE.glob("*.py") if path.name != "__init__.py")
# Bound only so that the benchmark's tracer (perfbench/tracer.py) can wrap them.
ALLOWED = {"engine.py": {"build_network", "enrich_network", "fuse_network"}}


def unused_imports(tree: ast.Module) -> set[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_imported_name_is_used(path):
    unused = unused_imports(ast.parse(path.read_text(encoding="utf-8"))) - ALLOWED.get(path.name, set())
    assert not unused, f"{path.name} imports {sorted(unused)} and never uses them"


def test_finds_an_unused_import():
    assert unused_imports(ast.parse("import os\nfrom math import pi, tau\nprint(pi)\n")) == {"os", "tau"}

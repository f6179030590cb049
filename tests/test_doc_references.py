"""Every dotted package name that the docs quote resolves.

A name quoted in backticks in a docstring of ``src/casegraph/*.py`` or in
``README.md`` whose first part is a module of the package (``kb.pack``,
``casegraph.engine.analyze``) must name something that module holds, so
deleting or renaming a function cannot leave a doc pointing at it.
``ROADMAP.md`` and ``CHANGES.md`` are history and name what is gone.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "casegraph").glob("*.py"))
MODULES = sorted(path.stem for path in SOURCES if path.stem != "__init__")
# A module name not inside a longer dotted name or path, then one or more attributes.
DOTTED = re.compile(rf"(?<![\w./\\-])(?:casegraph\.)?({'|'.join(MODULES)})((?:\.\w+)+)")


def quoted() -> list[tuple[str, str]]:
    """Each (place, backticked text) of the docstrings and the README."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [(path.name, text) for text in re.findall(r"``([^`]+)``", ast.get_docstring(node, clean=False) or "")]
    found += [("README.md", text) for text in re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text(encoding="utf-8"))]
    return found


def references() -> list[tuple[str, str, str]]:
    return sorted({(place, match[1], match[2][1:]) for place, text in quoted() for match in DOTTED.finditer(text)})


def resolves(module: str, attributes: str) -> bool:
    obj = importlib.import_module(f"casegraph.{module}")
    for name in attributes.split("."):
        if not hasattr(obj, name):
            return name in getattr(obj, "__dataclass_fields__", {})  # a field without a class default
        obj = getattr(obj, name)
    return True


def test_every_dotted_name_resolves():
    found = references()
    # Guards the guard: a pattern that matched nothing would pass vacuously.
    assert {("engine.py", "similarity", "wl_corpus_labels"), ("README.md", "engine", "analyze")} <= set(found)
    dangling = [f"{place}: {module}.{attributes}" for place, module, attributes in found if not resolves(module, attributes)]
    assert not dangling, dangling

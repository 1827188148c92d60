"""Every library module uses the names it imports.

A small stand-in for a linter's unused-import check, built on ``ast``.  A
name counts as used when it appears as a name anywhere else in the module,
including inside a string annotation.  ``__init__.py`` is skipped: its
imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bxmech"

# bxbench/tracer.py wraps these at every module that imports them
ALLOWED_UNUSED = {("mechanisms.py", "build_graph"), ("mechanisms.py", "enumerate_cycles")}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                annotation = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(annotation) if isinstance(n, ast.Name))
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_module_uses_its_imports(path):
    unused = [
        name
        for name in unused_imports(path.read_text(encoding="utf-8"))
        if (path.name, name) not in ALLOWED_UNUSED
    ]
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


def test_checker_sees_an_unused_import():
    source = "from typing import Callable, Sequence\n\ndef f(x: 'Sequence[int]'): pass\n"
    assert unused_imports(source) == ["Callable"]
    assert unused_imports("import os.path\nos.sep\n") == []

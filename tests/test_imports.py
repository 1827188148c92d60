"""Every library module uses the names it imports, and every top-level
definition and every public method or property of a library class is used
somewhere.

Small stand-ins for a linter's unused-import and dead-code checks, built on
``ast``.  A name counts as used when it appears as a name anywhere else in
the module, including inside a string annotation.  ``__init__.py`` is
skipped: its imports are the package's exports, and a re-export there is no
use.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bxmech"

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


def names_in(tree: ast.AST) -> set[str]:
    """Every name the tree reads: names, attributes, imported names, and the
    names inside strings that parse as expressions (string annotations, and
    attribute names given to getattr or monkeypatch)."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                out |= names_in(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                continue
    return out


def defined_names(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a function, a class, or the
    plain names an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def dead_definitions(modules: dict[str, str], others: list[str]) -> list[str]:
    """``module:name`` for each top-level definition in ``modules`` that no
    statement other than its own definition names, in ``modules`` or in
    ``others``."""
    defs = []
    users: dict[str, set] = {}  # name -> the statements that name it
    for module, source in modules.items():
        for i, stmt in enumerate(ast.parse(source).body):
            defs.extend((module, name, (module, i)) for name in defined_names(stmt))
            for name in names_in(stmt):
                users.setdefault(name, set()).add((module, i))
    for j, source in enumerate(others):
        for name in names_in(ast.parse(source)):
            users.setdefault(name, set()).add(("", j))
    return sorted(f"{m}:{name}" for m, name, own in defs if not users.get(name, set()) - {own})


def library_and_others() -> tuple[dict[str, str], list[str]]:
    """The library modules by file name, and the sources of tests/ and
    bxbench/."""
    modules = {
        p.name: p.read_text(encoding="utf-8")
        for p in sorted(SRC.glob("*.py"))
        if p.name != "__init__.py"
    }
    others = [
        p.read_text(encoding="utf-8")
        for folder in ("tests", "bxbench")
        for p in sorted((ROOT / folder).rglob("*.py"))
    ]
    return modules, others


def test_every_top_level_definition_is_used():
    assert dead_definitions(*library_and_others()) == []


def test_checker_sees_a_dead_definition():
    lib = (
        "LIMIT = 3\n"
        "def used(): return helper() + LIMIT\n"
        "def helper(): return helper\n"  # naming itself is no use
        "def unused(): return used()\n"
        "class Kept: pass\n"
    )
    assert dead_definitions({"lib.py": lib}, ["x: 'Kept'\n"]) == ["lib.py:unused"]
    assert dead_definitions({"lib.py": lib}, ["x: 'Kept'\n", "from lib import unused\n"]) == []


def member_names(stmt: ast.stmt) -> list[str]:
    """The public members a class-body statement defines: a method (a
    property too) or a name bound to ``property(...)``."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        names = [stmt.name]
    elif (
        isinstance(stmt, ast.Assign)
        and isinstance(stmt.value, ast.Call)
        and isinstance(stmt.value.func, ast.Name)
        and stmt.value.func.id == "property"
    ):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    else:
        return []
    return [name for name in names if not name.startswith("_")]


def dead_members(modules: dict[str, str], others: list[str]) -> list[str]:
    """``module:Class.name`` for each public method or property of a
    top-level class in ``modules`` that nothing names but its own
    definition, in ``modules`` or in ``others``."""
    members = []
    users: dict[str, set] = {}  # name -> the statements that name it
    for module, source in modules.items():
        for i, stmt in enumerate(ast.parse(source).body):
            if not isinstance(stmt, ast.ClassDef):
                parts = [stmt]
            else:  # each statement of the body is told apart from the rest
                parts = [*stmt.decorator_list, *stmt.bases, *stmt.keywords, *stmt.body]
            for j, part in enumerate(parts):
                own = (module, i, j)
                if isinstance(stmt, ast.ClassDef):
                    members.extend((module, stmt.name, name, own) for name in member_names(part))
                for name in names_in(part):
                    users.setdefault(name, set()).add(own)
    for j, source in enumerate(others):
        for name in names_in(ast.parse(source)):
            users.setdefault(name, set()).add(("", j, 0))
    return sorted(
        f"{m}:{cls}.{name}" for m, cls, name, own in members if not users.get(name, set()) - {own}
    )


def test_every_public_class_member_is_used():
    assert dead_members(*library_and_others()) == []


def test_checker_sees_a_dead_member():
    lib = (
        "class Graph:\n"
        "    def used(self): return self.helper()\n"
        "    def helper(self): return self.helper\n"  # naming itself is no use
        "    def unused(self): return self.used()\n"
        "    def _private(self): return 0\n"
        "    def __len__(self): return 0\n"
        "    size = property(lambda self: 0)\n"
        "    @property\n"
        "    def order(self): return 0\n"
    )
    assert dead_members({"lib.py": lib}, ["Graph().used()\n"]) == [
        "lib.py:Graph.order", "lib.py:Graph.size", "lib.py:Graph.unused",
    ]
    assert dead_members({"lib.py": lib}, ["g.unused(); g.size; getattr(g, 'order')\n"]) == []

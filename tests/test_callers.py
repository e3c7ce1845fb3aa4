"""Every public library name is reached from a caller outside the unit tests.

A public name is one that ``overlapbounds`` or ``overlapbounds.applications``
exports (its ``__all__``), or a module-level function or class in ``src/`` whose name has no
leading underscore.  The callers are ``perfbench/*.py``, where the dotted
strings of ``spans.TARGETS`` count because the benchmark wraps those
functions by name, ``tests/test_acceptance.py`` and the module-level code of
``src/`` (the CLI's tables, its ``__main__`` block).  A name is reached when an
AST ``Name`` or ``Attribute`` node of a caller names it, or the definition of
a reached name does.  A definition's use of its own name, and an import,
reach nothing.  Code that only unit tests reach is dead
weight: it belongs in the test module that needs it, or nowhere.
"""

from __future__ import annotations

import ast
from pathlib import Path

import overlapbounds
import overlapbounds.applications

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "overlapbounds"
CALLERS = [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
EXPORTS = [overlapbounds, overlapbounds.applications]
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def referenced(tree: ast.AST) -> set[str]:
    """The identifiers that ``Name`` and ``Attribute`` nodes under ``tree`` use."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def span_target_names(tree: ast.Module) -> set[str]:
    """Each dotted part of every string in a module-level ``TARGETS`` assignment."""
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.AnnAssign | ast.Assign):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            if any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in targets):
                names.update(part for node in ast.walk(stmt.value) if isinstance(node, ast.Constant)
                             and isinstance(node.value, str) for part in node.value.split("."))
    return names


def reached(library: list[ast.Module], callers: list[ast.Module]) -> set[str]:
    """The names the callers and the library's module-level code reach, directly or through definitions."""
    uses: dict[str, set[str]] = {}
    todo = set()
    for tree in library:
        for stmt in tree.body:
            if isinstance(stmt, DEFINITIONS):
                uses.setdefault(stmt.name, set()).update(referenced(stmt) - {stmt.name})
            else:
                todo |= referenced(stmt)
    for tree in callers:
        todo |= referenced(tree) | span_target_names(tree)
    seen: set[str] = set()
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo |= uses.get(name, set())
    return seen


def public_names() -> dict[str, str]:
    """Each public name and the file that defines or exports it."""
    names = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, DEFINITIONS) and not stmt.name.startswith("_"):
                names[stmt.name] = str(path.relative_to(ROOT))
    for package in EXPORTS:
        for name in package.__all__:
            names.setdefault(name, str(Path(package.__file__).relative_to(ROOT)))
    return names


def repository_reach() -> set[str]:
    return reached([ast.parse(p.read_text()) for p in PACKAGE.rglob("*.py")],
                   [ast.parse(p.read_text()) for p in CALLERS])


def test_scan_sees_each_kind_of_caller():
    names = repository_reach()
    assert "faulhaber_sum" in names  # tests/test_acceptance.py only
    assert "scan_window" in names  # a spans.TARGETS string only
    assert "ldp_mdf_bound" in names  # the cli.FORMULAS table
    assert "chunk_rng" in names  # run_chunked, a benchmark op's callee


def test_only_callers_and_reached_definitions_reach():
    library = ast.parse(
        "def helper():\n    return 1\n\n"
        "def dead(n):\n    return dead(n - 1) + helper() + Loop.make()\n\n"
        "class Loop:\n    def make(self):\n        return Loop()\n\n"
        "def used():\n    return 2\n\n"
        "TABLE = {'k': used}\n"
    )
    names = reached([library], [ast.parse("import lib\nlib.TABLE\n")])
    assert {"used", "TABLE"} <= names
    assert not {"dead", "helper", "Loop"} & names


def test_every_public_name_has_a_caller():
    names = repository_reach()
    uncalled = sorted(f"{name} ({where})" for name, where in public_names().items() if name not in names)
    assert not uncalled, "public names only unit tests reach: " + ", ".join(uncalled)

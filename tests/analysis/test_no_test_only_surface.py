"""Guard against a test-only surface growing back in ``src/repro``.

Every public module-level function and class must be referenced from a
program file: a module under ``src/``, ``benchmarks/``, ``perfbench/`` or
``examples/``, or a ``pyproject.toml`` script entry.  Code that only tests
call still costs reading, typing and upkeep, so it either earns a caller
or goes.

A reference is a name, an attribute or a string constant whose last dotted
component spells the symbol (``perfbench/`` patches methods by name, and
the parity rule names its protocol by dotted path).  The symbol's own
definition, ``__all__`` lists and imports do not count, so a package
re-export keeps nothing alive.  Classes registered by decorator (the lint
rules) are entry points.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.analysis import FileContext
from repro.analysis.project import ProjectGraph

REPO_ROOT = Path(__file__).resolve().parents[2]
PROGRAM_DIRS = ("src", "benchmarks", "perfbench", "examples")
REGISTERING_DECORATORS = {"register_rule"}

#: Public symbols kept without a program caller, each with the documented
#: use (or the test reference role) that keeps it.
ALLOWED = {
    "repro.analysis.framework.clear_caches": "docs/STATIC_ANALYSIS.md: resets the lint caches",
    "repro.analysis.framework.lint_project_sources": "docs/STATIC_ANALYSIS.md: in-memory project lint",
    "repro.analysis.framework.lint_source": "docs/STATIC_ANALYSIS.md: single-file lint",
    "repro.analysis.project.render_layer_contract": "renders the layer table pinned in docs/STATIC_ANALYSIS.md",
    "repro.apps.range_query.execute_range_query": "docs/ROBUSTNESS.md: partial range results under faults",
    "repro.apps.range_query.plan_range_queries": "docs/ALGORITHMS.md and docs/PERFORMANCE.md batch API",
    "repro.apps.range_query.plan_range_query": "scalar reference that plan_range_queries is tested against",
    "repro.apps.range_query.true_range_counts": "docs/ALGORITHMS.md and docs/PERFORMANCE.md batch API",
    "repro.apps.selectivity.estimate_selectivity": "scalar reference that estimate_selectivities is tested against",
    "repro.experiments.registry.run_all": "docs/PERFORMANCE.md: whole-registry runs",
    "repro.ring.serialization.load_network": "README.md and DESIGN.md: JSON checkpointing",
    "repro.ring.serialization.save_network": "README.md and DESIGN.md: JSON checkpointing",
}


def _source_graph() -> ProjectGraph:
    entries = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        relative = path.relative_to(REPO_ROOT).as_posix()
        entries.append((FileContext(relative, source, ast.parse(source)), {}))
    return ProjectGraph.build(entries)


def _script_targets() -> set[str]:
    """Names that ``pyproject.toml`` scripts load (``module:attr`` -> attr)."""
    text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = text.partition("[project.scripts]")[2].partition("\n[")[0]
    return set(re.findall(r'=\s*"[\w.]+:(\w+)"', section))


def _references(tree: ast.Module) -> set[str]:
    """Names a module uses outside ``__all__`` and outside each top-level
    definition's own body (a recursive call does not keep a symbol alive)."""
    skipped: set[int] = set()
    owner: dict[int, str] = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                skipped.update(id(node) for node in ast.walk(stmt))
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for node in ast.walk(stmt):
                owner[id(node)] = stmt.name
    names: set[str] = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value.rpartition(".")[2]
            if not name.isidentifier():
                continue
        else:
            continue
        if owner.get(id(node)) != name:
            names.add(name)
    return names


def _unreferenced(graph: ProjectGraph) -> dict[str, int]:
    """Dotted public symbols no program file references, with their line."""
    used = _script_targets()
    for name in PROGRAM_DIRS:
        for path in (REPO_ROOT / name).rglob("*.py"):
            used |= _references(ast.parse(path.read_text(encoding="utf-8")))
    found: dict[str, int] = {}
    for info in graph.modules.values():
        for name, func in info.functions.items():
            if not name.startswith("_") and name not in used:
                found[f"{info.name}.{name}"] = func.lineno
        for name, cls in info.classes.items():
            registered = any(
                isinstance(d, ast.Name) and d.id in REGISTERING_DECORATORS
                for d in cls.node.decorator_list
            )
            if not name.startswith("_") and not registered and name not in used:
                found[f"{info.name}.{name}"] = cls.node.lineno
    return found


def test_every_public_symbol_has_a_program_caller():
    found = _unreferenced(_source_graph())
    orphans = sorted(f"{dotted} (line {line})" for dotted, line in found.items()
                     if dotted not in ALLOWED)
    assert orphans == [], (
        "public symbols referenced only by tests (delete them with their "
        f"tests, or give ALLOWED a documented reason): {orphans}"
    )
    stale = sorted(set(ALLOWED) - set(found))
    assert stale == [], f"ALLOWED entries that are gone or now have a caller: {stale}"


def test_references_skip_definitions_all_and_imports():
    tree = ast.parse(
        "from pkg import helper\n"
        "__all__ = ['helper', 'walk']\n"
        "def walk(n):\n"
        "    return walk(n - 1)\n"
        "HOOK = 'pkg.mod.patched'\n"
    )
    assert _references(tree) == {"n", "HOOK", "patched"}

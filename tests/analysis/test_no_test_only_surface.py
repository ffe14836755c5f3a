"""Guard against a test-only surface growing back in ``src/repro``.

Every public module-level function and class, and every public method
and property of a module-level class, must be referenced from a program
file: a module under ``src/``, ``benchmarks/``, ``perfbench/`` or
``examples/``, or a ``pyproject.toml`` script entry.  Code that only tests
call still costs reading, typing and upkeep, so it either earns a caller
or goes.  Methods are matched by attribute name alone: any program
reference to ``.name`` keeps every method called ``name`` alive.

A reference is a name, an attribute or a string constant whose last dotted
component spells the symbol (``perfbench/`` patches methods by name, and
the parity rule names its protocol by dotted path).  The symbol's own
definition, ``__all__`` lists and imports do not count, so a package
re-export keeps nothing alive; neither does a method's reference to
itself.  Classes registered by decorator (the lint
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
    # Methods kept as test oracles: each states a fact the program computes
    # another way, and the tests check the program against it.
    "repro.ring.identifier.IdentifierSpace.finger_target": (
        "finger-table oracle: test_network and test_chord check every finger against it"
    ),
    "repro.ring.node.PeerNode.finger_target": (
        "finger-table oracle: test_network and test_chord check every finger against it"
    ),
    "repro.ring.snapshot.RingSnapshot.finger_scan_tables": (
        "test_compact checks the compact ring's scan matrices against the object ring's"
    ),
    "repro.data.workload.RangeQuery.true_selectivity": (
        "ground-truth selectivity the range-query estimates are tested against"
    ),
    "repro.ring.network.RingNetwork.owner_of": (
        "CONTRIBUTING.md: the ownership oracle routed lookups are tested against"
    ),
    "repro.ring.faults.FaultPlane.heal": "docs/ROBUSTNESS.md: ends a partition in fault tests",
    "repro.ring.faults.FaultPlane.crash_burst": "docs/ROBUSTNESS.md: correlated-crash fault tests",
    "repro.ring.events.EventEngine.trace_bytes": (
        "the event-engine determinism tests compare delivery traces byte for byte"
    ),
    "repro.ring.node.PeerNode.owns": (
        "ownership oracle: the routing and Chord tests check every lookup's owner against it"
    ),
    "repro.ring.snapshot.RingSnapshot.cum_counts": (
        "the plane layout the module docstring documents; test_snapshot_properties checks it"
    ),
    **{
        f"repro.data.distributions.{name}.pdf": (
            "the density test_distributions checks each distribution's CDF derivative against"
        )
        for name in (
            "Distribution",
            "UniformDistribution",
            "TruncatedNormal",
            "TruncatedExponential",
            "BoundedPareto",
            "MixtureDistribution",
            "DiscreteZipf",
        )
    },
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
    definition's own body (a recursive call does not keep a symbol alive);
    a method's body does not keep that method alive either."""
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
            if isinstance(stmt, ast.ClassDef):
                for method in stmt.body:
                    if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        for node in ast.walk(method):
                            owner[id(node)] = method.name
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
            for member in cls.members.values():
                if name.startswith("_") or member.kind == "attribute" or member.name.startswith("_"):
                    continue
                if member.name not in used:
                    found[f"{cls.dotted}.{member.name}"] = getattr(member.node, "lineno", 0)
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


def test_method_references_skip_the_method_itself():
    tree = ast.parse(
        "class Walker:\n"
        "    def step(self):\n"
        "        return self.step() + self.jump()\n"
        "    def jump(self):\n"
        "        return 0\n"
    )
    assert _references(tree) == {"self", "jump"}

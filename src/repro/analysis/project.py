"""Whole-program analysis plane: symbol table, import graph, call graph.

Single-file rules see one :class:`~repro.analysis.framework.FileContext`
at a time; every invariant the repo now cares most about spans module
boundaries — a backend drifting out of protocol parity, a layering
violation coupling ``core/`` to ``serve/``, a wall-clock read laundered
through a helper function.  This module builds the project-wide view
those rules need, in one pass over the ASTs the per-file pass already
parsed:

* a **module table** (:class:`ModuleInfo`): canonical dotted name, layer
  package, top-level functions, and classes with their member surface
  (methods, properties, attributes — including instance attributes
  assigned in method bodies);
* an **import graph** (:class:`ImportEdge`): one edge per import
  statement, annotated with whether the import is *deferred*
  (function-local, so it does not execute at module load) and whether it
  is *type-only* (under ``if TYPE_CHECKING:``, so it never executes);
* a **call-resolution service** (:meth:`ProjectGraph.resolve_call`)
  mapping call expressions to project-defined top-level functions, which
  is the substrate for interprocedural rules such as DET001.

The layer contract itself is *declared as data* here
(:data:`LAYER_CONTRACT`) and rendered into the docs by
:func:`render_layer_contract`; a doc-sync test keeps the two identical.
Rules that need the whole program subclass
:class:`~repro.analysis.framework.ProjectRule` and receive the built
:class:`ProjectGraph`.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass, field
from typing import Literal, Mapping, Optional, Sequence, Union

from repro.analysis.framework import FileContext, Finding, Rule, Suppression

__all__ = [
    "LAYER_CONTRACT",
    "LAYER_OVERRIDES",
    "FACADE_MODULES",
    "STDLIB_ONLY_PACKAGES",
    "PARITY_PROTOCOL",
    "PARITY_UNION",
    "PARITY_BACKENDS",
    "MEASURED_PACKAGES",
    "HARNESS_MODULES",
    "REPORT_FIELDS",
    "render_layer_contract",
    "module_name_for_path",
    "ImportEdge",
    "ClassMember",
    "ClassInfo",
    "ModuleInfo",
    "ProjectGraph",
]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

# --------------------------------------------------------------------------
# The architecture contract, declared as data.
#
# ``LAYER_CONTRACT[pkg]`` is the set of *other* first-party packages that
# ``repro.<pkg>`` may import at runtime (same-package imports are always
# allowed; ``if TYPE_CHECKING:`` imports are exempt because they never
# execute).  ARCH001 enforces it; ``render_layer_contract`` renders it
# into docs/STATIC_ANALYSIS.md, and a doc-sync test pins the rendering.
# --------------------------------------------------------------------------

LAYER_CONTRACT: dict[str, frozenset[str]] = {
    "analysis": frozenset(),  # stdlib-only: the linter must not import the linted
    "data": frozenset(),
    "ring": frozenset({"data"}),
    "core": frozenset({"ring", "data"}),
    "serve": frozenset({"core", "ring", "data"}),
    "apps": frozenset({"serve", "core", "ring", "data"}),
    "experiments": frozenset({"apps", "serve", "core", "ring", "data"}),
}

#: Packages that may import *nothing* outside the stdlib (not even numpy).
#: The analysis plane lints the rest of the tree, so it must never import it.
STDLIB_ONLY_PACKAGES = frozenset({"analysis"})

#: Modules whose layer is overridden.  ``repro.serve.bench`` is the serving
#: *harness* — it drives ``EstimationService`` under load and reports
#: wall-clock numbers, exactly like the experiment runners — and is imported
#: only by ``repro.experiments.bench_cli``, never by the serving layer.
LAYER_OVERRIDES: dict[str, str] = {
    "repro.serve.bench": "experiments",
}

#: Package facades re-exporting the public API; exempt from layer edges
#: (they intentionally import everything) and from cycle detection.
FACADE_MODULES = frozenset({"repro"})

# --------------------------------------------------------------------------
# PAR001 anchors: the dispatch protocol and the two backends that must stay
# member-for-member compatible.
# --------------------------------------------------------------------------

PARITY_PROTOCOL = "repro.core.backend.ProbeBackend"
PARITY_UNION = "repro.core.backend.RingBackend"
PARITY_BACKENDS: tuple[str, str] = (
    "repro.ring.network.RingNetwork",
    "repro.ring.compact.CompactRing",
)

# --------------------------------------------------------------------------
# DET001 scope: measured-path packages vs. the sanctioned reporting layer.
# --------------------------------------------------------------------------

#: Packages whose code feeds measured results; consuming a wall-clock- or
#: entropy-tainted return value here makes tables machine-dependent.
MEASURED_PACKAGES = frozenset({"apps", "core", "data", "ring", "serve"})

#: Measurement harnesses living inside measured packages (see
#: :data:`LAYER_OVERRIDES`); they *report* elapsed time by design.
HARNESS_MODULES = frozenset({"repro.serve.bench"})

#: Sanctioned elapsed-time report fields.  A tainted value passed as a
#: keyword argument with one of these names, or assigned to an attribute
#: with one of these names, is *reporting* instrumentation (the wall_s
#: column) and does not propagate taint.
REPORT_FIELDS = frozenset({"wall_s", "wall_s_std"})


def render_layer_contract() -> str:
    """The layer contract as the markdown block embedded in the docs.

    ``tests/analysis/test_live_tree.py`` asserts this rendering appears
    verbatim in docs/STATIC_ANALYSIS.md, so the docs cannot drift from
    the data ARCH001 actually enforces.
    """
    order = [
        "experiments",
        "apps",
        "serve",
        "core",
        "ring",
        "data",
        "analysis",
    ]
    lines = ["| layer | may import (runtime) |", "| --- | --- |"]
    for package in order:
        allowed = LAYER_CONTRACT[package]
        if package in STDLIB_ONLY_PACKAGES:
            rendered = "stdlib only"
        elif allowed:
            ranked = [pkg for pkg in order if pkg in allowed]
            rendered = ", ".join(f"`{pkg}/`" for pkg in ranked) + ", stdlib, numpy"
        else:
            rendered = "stdlib, numpy"
        lines.append(f"| `{package}/` | {rendered} |")
    return "\n".join(lines)


def module_name_for_path(path: str) -> Optional[str]:
    """Dotted module name for a canonical posix path, or ``None``.

    ``src/repro/ring/chord.py`` -> ``repro.ring.chord``;
    ``src/repro/ring/__init__.py`` -> ``repro.ring``;
    ``tests/analysis/test_cli.py`` -> ``tests.analysis.test_cli``.
    Paths that do not form valid dotted names (scratch files outside any
    package) return ``None`` and are excluded from the graph.
    """
    parts = path.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts or not parts[-1].endswith(".py"):
        return None
    parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    if not parts or not all(part.isidentifier() for part in parts):
        return None
    return ".".join(parts)


def package_of(module_name: str) -> str:
    """The layer package of a dotted module name.

    ``repro.ring.chord`` -> ``ring``; ``repro`` -> ``repro`` (the facade);
    ``tests.analysis.test_cli`` -> ``tests``.
    """
    parts = module_name.split(".")
    if parts[0] == "repro" and len(parts) > 1:
        return parts[1]
    return parts[0]


def is_stdlib_module(target: str) -> bool:
    """Is ``target`` (dotted) rooted in the standard library?"""
    top = target.split(".", 1)[0]
    return top in sys.stdlib_module_names


@dataclass(frozen=True)
class ImportEdge:
    """One import statement, as an edge in the project graph."""

    importer: str  #: dotted name of the importing module
    target: str  #: dotted name of the imported module (project or external)
    node: ast.stmt  #: the import statement (finding anchor)
    deferred: bool  #: function-local import: not executed at module load
    type_only: bool  #: under ``if TYPE_CHECKING:``: never executed


@dataclass(frozen=True)
class ClassMember:
    """One member of a class: a method, property, or attribute."""

    name: str
    kind: Literal["method", "property", "attribute"]
    node: ast.AST  #: the def/assign node that introduced the member


@dataclass
class ClassInfo:
    """A module-top-level class and its member surface."""

    name: str
    module_name: str
    node: ast.ClassDef
    members: dict[str, ClassMember] = field(default_factory=dict)

    @property
    def dotted(self) -> str:
        """Fully qualified ``module.Class`` name."""
        return f"{self.module_name}.{self.name}"

    def member(self, name: str) -> Optional[ClassMember]:
        """The class member called ``name``, or None."""
        return self.members.get(name)


@dataclass
class ModuleInfo:
    """Everything the project rules need about one module."""

    name: str  #: dotted module name
    package: str  #: layer package (after :data:`LAYER_OVERRIDES`)
    path: str  #: canonical posix path
    context: FileContext
    suppressions: Mapping[int, Suppression]
    edges: tuple[ImportEdge, ...] = ()
    functions: dict[str, FunctionNode] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)

    def finding(self, rule: Rule, node: ast.AST, message: str) -> Finding:
        """A finding in this module, anchored at ``node``."""
        return self.context.finding(rule, node, message)


@dataclass(frozen=True)
class _RawImport:
    base: str
    member: Optional[str]
    node: ast.stmt
    deferred: bool
    type_only: bool


def _is_type_checking(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


class _ImportCollector(ast.NodeVisitor):
    """Collects import statements with deferral/type-only flags."""

    def __init__(self, module_name: str, is_package: bool) -> None:
        self.raw: list[_RawImport] = []
        self._module_name = module_name
        self._is_package = is_package
        self._defer_depth = 0
        self._type_depth = 0

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _visit_function(self, node: FunctionNode) -> None:
        self._defer_depth += 1
        self.generic_visit(node)
        self._defer_depth -= 1

    def visit_If(self, node: ast.If) -> None:
        if _is_type_checking(node.test):
            self._type_depth += 1
            for stmt in node.body:
                self.visit(stmt)
            self._type_depth -= 1
            for stmt in node.orelse:
                self.visit(stmt)
        else:
            self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._add(node, alias.name, None)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = self._from_base(node)
        if base is None:
            return
        for alias in node.names:
            self._add(node, base, alias.name)

    def _from_base(self, node: ast.ImportFrom) -> Optional[str]:
        if node.level == 0:
            return node.module
        # Relative import: anchor at this module's package.
        parts = self._module_name.split(".")
        if not self._is_package:
            parts = parts[:-1]
        ascend = node.level - 1
        if ascend >= len(parts):
            return None
        if ascend:
            parts = parts[:-ascend]
        base = ".".join(parts)
        return f"{base}.{node.module}" if node.module else base

    def _add(self, node: ast.stmt, base: str, member: Optional[str]) -> None:
        self.raw.append(
            _RawImport(
                base=base,
                member=member,
                node=node,
                deferred=self._defer_depth > 0,
                type_only=self._type_depth > 0,
            )
        )


_PROPERTY_DECORATORS = frozenset({"property", "cached_property"})
_PROPERTY_SUFFIXES = frozenset({"setter", "getter", "deleter"})


def _is_property_decorator(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id in _PROPERTY_DECORATORS
    if isinstance(node, ast.Attribute):
        return node.attr in _PROPERTY_DECORATORS or node.attr in _PROPERTY_SUFFIXES
    return False


def _collect_class(node: ast.ClassDef, module_name: str) -> ClassInfo:
    info = ClassInfo(name=node.name, module_name=module_name, node=node)

    def add(name: str, kind: Literal["method", "property", "attribute"],
            member_node: ast.AST) -> None:
        if name not in info.members:
            info.members[name] = ClassMember(name=name, kind=kind, node=member_node)

    methods: list[FunctionNode] = []
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            kind: Literal["method", "property"] = "method"
            if any(_is_property_decorator(dec) for dec in stmt.decorator_list):
                kind = "property"
            info.members[stmt.name] = ClassMember(stmt.name, kind, stmt)
            methods.append(stmt)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            add(stmt.target.id, "attribute", stmt)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    add(target.id, "attribute", stmt)
    # Instance attributes: ``self.x = ...`` anywhere in a method body.
    for method in methods:
        for sub in ast.walk(method):
            targets: list[ast.expr] = []
            if isinstance(sub, ast.Assign):
                targets = list(sub.targets)
            elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
                targets = [sub.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    add(target.attr, "attribute", sub)
    return info


class ProjectGraph:
    """The whole-program view handed to :class:`ProjectRule` instances."""

    def __init__(self, modules: dict[str, ModuleInfo]) -> None:
        self.modules = modules

    @classmethod
    def build(
        cls,
        entries: Sequence[tuple[FileContext, Mapping[int, Suppression]]],
    ) -> "ProjectGraph":
        """Build the graph from already-parsed files (one pass, no re-parse)."""
        modules: dict[str, ModuleInfo] = {}
        raw_imports: dict[str, list[_RawImport]] = {}
        for context, suppressions in entries:
            name = module_name_for_path(context.path)
            if name is None or name in modules:
                continue
            is_package = context.path.endswith("__init__.py")
            collector = _ImportCollector(name, is_package)
            collector.visit(context.tree)
            raw_imports[name] = collector.raw
            info = ModuleInfo(
                name=name,
                package=LAYER_OVERRIDES.get(name, package_of(name)),
                path=context.path,
                context=context,
                suppressions=suppressions,
            )
            for stmt in context.tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info.functions[stmt.name] = stmt
                elif isinstance(stmt, ast.ClassDef):
                    info.classes[stmt.name] = _collect_class(stmt, name)
            modules[name] = info
        # Resolve ``from base import member`` to the submodule when the
        # member *is* a project module, else to the base module.
        for name, raws in raw_imports.items():
            edges: list[ImportEdge] = []
            seen: set[tuple[str, int]] = set()
            for raw in raws:
                target = raw.base
                if raw.member is not None:
                    candidate = f"{raw.base}.{raw.member}"
                    if candidate in modules:
                        target = candidate
                # ``from base import a, b`` collapses to one edge per target.
                dedupe_key = (target, id(raw.node))
                if dedupe_key in seen:
                    continue
                seen.add(dedupe_key)
                edges.append(
                    ImportEdge(
                        importer=name,
                        target=target,
                        node=raw.node,
                        deferred=raw.deferred,
                        type_only=raw.type_only,
                    )
                )
            modules[name].edges = tuple(edges)
        return cls(modules)

    # -- lookups ----------------------------------------------------------

    def function(self, dotted: str) -> Optional[tuple[ModuleInfo, FunctionNode]]:
        """The defining module and node of a top-level function, or None."""
        module_name, _, func_name = dotted.rpartition(".")
        info = self.modules.get(module_name)
        if info is None:
            return None
        node = info.functions.get(func_name)
        if node is None:
            return None
        return info, node

    def class_info(self, dotted: str) -> Optional[ClassInfo]:
        """The :class:`ClassInfo` for a dotted class name, or None."""
        module_name, _, class_name = dotted.rpartition(".")
        info = self.modules.get(module_name)
        if info is None:
            return None
        return info.classes.get(class_name)

    def resolve_call(self, module: ModuleInfo, func_expr: ast.expr) -> Optional[str]:
        """Dotted name of the project top-level function a call targets.

        Resolves through the module's imports (``from repro.x import f``,
        ``from repro import x; x.f``) and same-module references; returns
        ``None`` for anything that is not a project-defined top-level
        function (builtins, methods, external calls).
        """
        dotted = module.context.imports.resolve(func_expr)
        if dotted is None:
            if isinstance(func_expr, ast.Name) and func_expr.id in module.functions:
                return f"{module.name}.{func_expr.id}"
            return None
        if self.function(dotted) is not None:
            return dotted
        return None

    # -- graph queries -----------------------------------------------------

    def _load_time_neighbors(self, name: str) -> list[str]:
        """Project modules imported at module load (cycle-relevant edges)."""
        neighbors: list[str] = []
        for edge in self.modules[name].edges:
            if edge.deferred or edge.type_only:
                continue
            target = self.project_module(edge.target)
            if target is not None and target != name and target not in FACADE_MODULES:
                neighbors.append(target)
        return neighbors

    def project_module(self, target: str) -> Optional[str]:
        """Map an import target onto a module present in the graph."""
        current = target
        while current:
            if current in self.modules:
                return current
            current, _, _ = current.rpartition(".")
        return None

    def runtime_cycles(self) -> list[list[str]]:
        """Import cycles over load-time edges (Tarjan SCCs, size > 1).

        Deferred and type-only imports are excluded: breaking a load
        cycle by deferring an import is the sanctioned pattern, and a
        ``TYPE_CHECKING`` edge never executes at all.
        """
        index_counter = [0]
        index: dict[str, int] = {}
        lowlink: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        cycles: list[list[str]] = []
        names = [name for name in self.modules if name not in FACADE_MODULES]

        def strongconnect(name: str) -> None:
            index[name] = lowlink[name] = index_counter[0]
            index_counter[0] += 1
            stack.append(name)
            on_stack.add(name)
            for neighbor in self._load_time_neighbors(name):
                if neighbor not in index:
                    strongconnect(neighbor)
                    lowlink[name] = min(lowlink[name], lowlink[neighbor])
                elif neighbor in on_stack:
                    lowlink[name] = min(lowlink[name], index[neighbor])
            if lowlink[name] == index[name]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == name:
                        break
                if len(component) > 1:
                    cycles.append(sorted(component))

        for name in sorted(names):
            if name not in index:
                strongconnect(name)
        return sorted(cycles)

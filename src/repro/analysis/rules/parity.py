"""PAR001: backend parity across the ``RingBackend`` dispatch surface.

PR 9 made the estimator stack run bit-identically on either
``RingNetwork`` or ``CompactRing`` behind ``core/backend.py``; the
contract is only as strong as the member surface staying aligned.  This
rule computes the *dispatch surface* — every member the stack reaches
through a ``ProbeBackend``/``RingBackend``-typed value, plus everything
the protocol itself declares — and checks each member exists on **both**
backends with compatible shape:

* a member missing from one backend is an error, anchored at that
  backend's class definition;
* a member that is a method on one backend and a property on the other
  is an error (one call site cannot serve both);
* methods must agree on positional parameter names/order, defaults,
  keyword-only names, and star-args.

``isinstance`` narrowing is modelled: inside ``if isinstance(network,
CompactRing): ...`` (and, when that branch returns, in the remainder of
the function) the value has a single concrete type, so backend-specific
members used there are exactly the sanctioned divergence pattern and do
not enter the surface.  Boolean operators narrow too: in the operands
after ``isinstance(network, CompactRing) or`` / ``and`` (negated or not)
the test's outcome is known, and so is the backend; an ``if`` on such a
test narrows the branch where every operand's outcome is known — the
``else`` of an ``or``, the body of an ``and`` — and, when the other
branch returns, the remainder.  Attribute self-assignments (``self.network =
network`` from a backend-typed parameter) are tracked so classes such as
``EstimationService`` contribute their dispatch sites too.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import ClassVar, Iterable, Iterator, Optional

from repro.analysis.framework import Finding, ProjectRule, register_rule
from repro.analysis.project import (
    PARITY_BACKENDS,
    PARITY_PROTOCOL,
    PARITY_UNION,
    ClassInfo,
    FunctionNode,
    ModuleInfo,
    ProjectGraph,
)

__all__ = ["BackendParityRule"]

_BACKEND_SHORT_NAMES = frozenset(dotted.rpartition(".")[2] for dotted in PARITY_BACKENDS)
_UNION_NAMES = frozenset(
    {PARITY_UNION, PARITY_PROTOCOL}
    | {PARITY_UNION.rpartition(".")[2], PARITY_PROTOCOL.rpartition(".")[2]}
)

#: Object-protocol members every class has; never part of the surface.
_UNIVERSAL_MEMBERS = frozenset({"__init__", "__post_init__", "__repr__", "__eq__"})


@dataclass(frozen=True)
class _SurfaceSite:
    member: str
    where: str  # human description of the dispatch site


def _annotation_names(annotation: Optional[ast.expr], module: ModuleInfo) -> set[str]:
    """Dotted names reachable in an annotation (handles string annotations)."""
    if annotation is None:
        return set()
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return set()
    names: set[str] = set()
    for node in ast.walk(annotation):
        if isinstance(node, (ast.Name, ast.Attribute)):
            dotted = module.context.imports.resolve(node)
            if dotted is not None:
                names.add(dotted)
            elif isinstance(node, ast.Name):
                names.add(node.id)
                names.add(f"{module.name}.{node.id}")
    return names


def _is_union_annotation(annotation: Optional[ast.expr], module: ModuleInfo) -> bool:
    return bool(_annotation_names(annotation, module) & _UNION_NAMES)


def _backend_class(node: ast.expr, module: ModuleInfo) -> Optional[str]:
    """Which concrete backend an ``isinstance`` second argument names."""
    dotted = module.context.imports.resolve(node)
    if dotted in PARITY_BACKENDS:
        return dotted
    if isinstance(node, ast.Name) and (
        node.id in _BACKEND_SHORT_NAMES or f"{module.name}.{node.id}" in PARITY_BACKENDS
    ):
        return node.id
    return None


def _terminates(body: list[ast.stmt]) -> bool:
    return bool(body) and isinstance(
        body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


class _AccessCollector:
    """Attribute accesses on union-typed values, with isinstance narrowing."""

    def __init__(self, module: ModuleInfo, bases: frozenset[str]) -> None:
        self._module = module
        self._bases = bases  # parameter names / ``self.X`` attr names
        self.accesses: list[tuple[str, ast.Attribute]] = []

    def _base_of(self, node: ast.expr) -> Optional[str]:
        """The tracked union-typed base a member access hangs off, if any."""
        if isinstance(node, ast.Name) and node.id in self._bases:
            return node.id
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and f"self.{node.attr}" in self._bases
        ):
            return f"self.{node.attr}"
        return None

    def _isinstance_target(self, test: ast.expr) -> Optional[str]:
        """The tracked base an ``isinstance(base, Backend)`` test narrows."""
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            test = test.operand
        if not (
            isinstance(test, ast.Call)
            and isinstance(test.func, ast.Name)
            and test.func.id == "isinstance"
            and len(test.args) == 2
        ):
            return None
        base = self._base_of(test.args[0])
        if base is None:
            return None
        if _backend_class(test.args[1], self._module) is None:
            return None
        return base

    def _branch_narrowing(self, test: ast.expr) -> tuple[Optional[str], bool, bool]:
        """The base an ``if`` test narrows, and whether body / else see it narrowed.

        A plain ``isinstance`` test (or its negation) narrows both
        branches.  A boolean operator narrows only the branch where every
        operand's outcome is known: the ``else`` of an ``or`` (all were
        false), the body of an ``and`` (all were true).
        """
        target = self._isinstance_target(test)
        if target is not None:
            return target, True, True
        if isinstance(test, ast.BoolOp):
            for value in test.values:
                target = self._isinstance_target(value)
                if target is not None:
                    is_and = isinstance(test.op, ast.And)
                    return target, is_and, not is_and
        return None, False, False

    def _scan_expr(self, node: Optional[ast.AST], narrowed: frozenset[str]) -> None:
        """Collect accesses under ``node``, any AST node (keyword arguments,
        comprehension generators and lambda arguments included)."""
        if node is None:
            return
        if isinstance(node, ast.BoolOp):
            # Operands after an isinstance test run only once its outcome,
            # and so the backend, is known.
            for value in node.values:
                self._scan_expr(value, narrowed)
                target = self._isinstance_target(value)
                if target is not None:
                    narrowed = narrowed | {target}
            return
        if isinstance(node, ast.Attribute):
            base = self._base_of(node.value)
            if base is not None and base not in narrowed:
                self.accesses.append((node.attr, node))
        for child in ast.iter_child_nodes(node):
            self._scan_expr(child, narrowed)

    def scan(self, body: list[ast.stmt], narrowed: frozenset[str]) -> None:
        for stmt in body:
            if isinstance(stmt, ast.If):
                target, in_body, in_else = self._branch_narrowing(stmt.test)
                self._scan_expr(stmt.test, narrowed)
                inner = narrowed if target is None else narrowed | {target}
                self.scan(stmt.body, inner if in_body else narrowed)
                self.scan(stmt.orelse, inner if in_else else narrowed)
                # A terminating branch leaves the remainder the other one's view.
                if (_terminates(stmt.body) and in_else) or (_terminates(stmt.orelse) and in_body):
                    narrowed = inner
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._scan_expr(stmt.iter, narrowed)
                self.scan(stmt.body, narrowed)
                self.scan(stmt.orelse, narrowed)
            elif isinstance(stmt, ast.While):
                self._scan_expr(stmt.test, narrowed)
                self.scan(stmt.body, narrowed)
                self.scan(stmt.orelse, narrowed)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self._scan_expr(item.context_expr, narrowed)
                self.scan(stmt.body, narrowed)
            elif isinstance(stmt, ast.Try):
                self.scan(stmt.body, narrowed)
                for handler in stmt.handlers:
                    self.scan(handler.body, narrowed)
                self.scan(stmt.orelse, narrowed)
                self.scan(stmt.finalbody, narrowed)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.scan(stmt.body, narrowed)
            else:
                for child in ast.iter_child_nodes(stmt):
                    self._scan_expr(child, narrowed)


def _union_params(func: FunctionNode, module: ModuleInfo) -> frozenset[str]:
    args = func.args
    names = set()
    for arg in args.posonlyargs + args.args + args.kwonlyargs:
        if _is_union_annotation(arg.annotation, module):
            names.add(arg.arg)
    return frozenset(names)


def _union_self_attrs(cls: ast.ClassDef, module: ModuleInfo) -> frozenset[str]:
    """``self.X`` attributes assigned from union-typed parameters."""
    attrs: set[str] = set()
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            # Dataclass-style field with a union annotation.
            if _is_union_annotation(stmt.annotation, module):
                attrs.add(f"self.{stmt.target.id}")
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = _union_params(stmt, module)
        if not params:
            continue
        for sub in ast.walk(stmt):
            if (
                isinstance(sub, ast.Assign)
                and isinstance(sub.value, ast.Name)
                and sub.value.id in params
            ):
                for target in sub.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        attrs.add(f"self.{target.attr}")
    return frozenset(attrs)


def _iter_surface(project: ProjectGraph) -> Iterator[_SurfaceSite]:
    """Every member the stack dispatches through the backend union."""
    proto = project.class_info(PARITY_PROTOCOL)
    if proto is not None:
        for member in proto.members.values():
            if member.name not in _UNIVERSAL_MEMBERS:
                yield _SurfaceSite(
                    member.name, f"declared on `{PARITY_PROTOCOL.rpartition('.')[2]}`"
                )
    for info in project.modules.values():
        if not info.path.startswith("src/repro/"):
            continue
        # Module top-level functions with union-typed parameters.
        for func in info.functions.values():
            params = _union_params(func, info)
            if params:
                collector = _AccessCollector(info, params)
                collector.scan(func.body, frozenset())
                for member, _node in collector.accesses:
                    yield _SurfaceSite(
                        member, f"dispatched in `{info.name}.{func.name}`"
                    )
        # Methods, including accesses through backend-typed self attributes.
        for cls_info in info.classes.values():
            cls = cls_info.node
            self_attrs = _union_self_attrs(cls, info)
            for stmt in cls.body:
                if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                bases = _union_params(stmt, info) | self_attrs
                if not bases:
                    continue
                collector = _AccessCollector(info, frozenset(bases))
                collector.scan(stmt.body, frozenset())
                for member, _node in collector.accesses:
                    yield _SurfaceSite(
                        member,
                        f"dispatched in `{info.name}.{cls_info.name}.{stmt.name}`",
                    )


def _signature_shape(
    func: FunctionNode,
) -> tuple[tuple[str, ...], tuple[str, ...], tuple[tuple[str, Optional[str]], ...],
           Optional[str], Optional[str]]:
    """Comparable shape: positional names, defaults, kw-only, star-args."""
    args = func.args
    positional = tuple(
        arg.arg for arg in args.posonlyargs + args.args if arg.arg not in ("self", "cls")
    )
    defaults = tuple(ast.dump(default) for default in args.defaults)
    kwonly = tuple(
        (arg.arg, ast.dump(default) if default is not None else None)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
    )
    vararg = args.vararg.arg if args.vararg is not None else None
    kwarg = args.kwarg.arg if args.kwarg is not None else None
    return positional, defaults, kwonly, vararg, kwarg


def _describe_mismatch(left: FunctionNode, right: FunctionNode) -> Optional[str]:
    l_pos, l_def, l_kw, l_var, l_kwarg = _signature_shape(left)
    r_pos, r_def, r_kw, r_var, r_kwarg = _signature_shape(right)
    if l_pos != r_pos:
        return f"positional parameters differ: {list(l_pos)} vs {list(r_pos)}"
    if l_def != r_def:
        return "default values differ"
    if l_kw != r_kw:
        return (
            f"keyword-only parameters differ: {[name for name, _ in l_kw]} "
            f"vs {[name for name, _ in r_kw]}"
        )
    if (l_var is None) != (r_var is None) or (l_kwarg is None) != (r_kwarg is None):
        return "star-parameter (*args/**kwargs) presence differs"
    return None


@register_rule
class BackendParityRule(ProjectRule):
    """PAR001 — both ring backends serve the full dispatch surface."""

    id: ClassVar[str] = "PAR001"
    title: ClassVar[str] = "backend parity on the RingBackend surface"
    rationale: ClassVar[str] = (
        "the estimator stack dispatches through ProbeBackend/RingBackend; "
        "a member present on one backend only breaks half the matrix at "
        "runtime, not at lint time"
    )
    paths: ClassVar[tuple[str, ...]] = ("src/*",)

    def check_project(self, project: ProjectGraph) -> Iterable[Finding]:
        backends: dict[str, ClassInfo] = {}
        for dotted in PARITY_BACKENDS:
            cls_info = project.class_info(dotted)
            if cls_info is None:
                return  # partial tree (fixtures/unit tests): nothing to compare
            backends[dotted] = cls_info

        surface: dict[str, str] = {}
        for site in _iter_surface(project):
            if site.member.startswith("__"):
                continue
            surface.setdefault(site.member, site.where)

        for member, where in sorted(surface.items()):
            present: dict[str, ClassInfo] = {}
            for dotted, cls_info in backends.items():
                if cls_info.member(member) is None:
                    info = project.modules.get(cls_info.module_name)
                    if info is not None:
                        yield info.finding(
                            self,
                            cls_info.node,
                            f"`{cls_info.name}` lacks `{member}` ({where}); "
                            "every RingBackend member must exist on both backends",
                        )
                else:
                    present[dotted] = cls_info
            if len(present) < len(backends):
                continue
            yield from self._check_shapes(project, member, where, present)

    def _check_shapes(
        self,
        project: ProjectGraph,
        member: str,
        where: str,
        backends: dict[str, ClassInfo],
    ) -> Iterator[Finding]:
        kinds = {
            dotted: cls_info.member(member)
            for dotted, cls_info in backends.items()
        }
        callable_kinds = {
            dotted: m.kind for dotted, m in kinds.items() if m is not None
        }
        values = set(callable_kinds.values())
        if values == {"method", "property"} or values == {"method", "attribute"}:
            # One backend needs a call, the other must not be called.
            dotted, cls_info = sorted(backends.items())[-1]
            info = project.modules.get(cls_info.module_name)
            shapes = ", ".join(
                f"{cls.name}.{member} is a {callable_kinds[d]}"
                for d, cls in sorted(backends.items())
            )
            if info is not None:
                member_obj = cls_info.member(member)
                anchor = member_obj.node if member_obj is not None else cls_info.node
                yield info.finding(
                    self,
                    anchor,
                    f"`{member}` has incompatible kinds across backends "
                    f"({shapes}); one dispatch site cannot serve both ({where})",
                )
            return
        if values != {"method"}:
            return
        # PARITY_BACKENDS order is significant: the first entry is the
        # reference implementation, so a divergence anchors at the port.
        nodes: list[tuple[str, ClassInfo, FunctionNode]] = []
        for dotted in PARITY_BACKENDS:
            cls_info = backends.get(dotted)
            if cls_info is None:
                continue
            member_obj = cls_info.member(member)
            if member_obj is not None and isinstance(
                member_obj.node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                nodes.append((dotted, cls_info, member_obj.node))
        if len(nodes) < 2:
            return
        (_, _, reference), (dotted, cls_info, other) = nodes[0], nodes[1]
        mismatch = _describe_mismatch(reference, other)
        if mismatch is not None:
            info = project.modules.get(cls_info.module_name)
            if info is not None:
                yield info.finding(
                    self,
                    other,
                    f"`{member}` signatures diverge across backends: {mismatch} "
                    f"({where})",
                )

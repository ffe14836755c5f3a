"""The ``repro-lint`` rule framework.

This package encodes the repository's *reproducibility contracts* — the
invariants PRs 1–4 established but that previously lived only in review
discipline — as machine-checked AST rules:

* every random draw flows through an explicitly seeded
  ``numpy.random.Generator`` (RNG001) and never through wall-clock state
  (RNG002);
* every topology/data mutation advances the version tokens the caching
  planes key on (VER001);
* table-producing float accumulation stays strictly sequential (SUM001);
* the routing layer reports failures through the ``RouteOutcome`` taxonomy
  instead of ad-hoc exceptions (ERR001).

The framework is deliberately small and dependency-free: rules are
:class:`Rule` subclasses registered through :func:`register_rule`, a file
is linted by parsing it once and handing the shared :class:`FileContext`
to every applicable rule, and two escape hatches keep the checks honest
rather than advisory:

* **inline suppressions** — ``# repro-lint: disable=RULE (reason)`` on the
  flagged line.  The reason is mandatory; a bare disable is itself a
  finding (:data:`SUPPRESSION_RULE_ID`), so every exemption is documented
  at the site that needs it.
* **a ratchet baseline** — pre-existing findings recorded in a committed
  JSON file (:mod:`repro.analysis.baseline`).  Linting fails on any
  finding *not* in the baseline, so the debt can shrink but never grow.
"""

from __future__ import annotations

import abc
import ast
import fnmatch
import re
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    ClassVar,
    Iterable,
    Iterator,
    Literal,
    Optional,
    Sequence,
)

if TYPE_CHECKING:
    from repro.analysis.project import ProjectGraph

__all__ = [
    "Finding",
    "Suppression",
    "FileContext",
    "Rule",
    "ProjectRule",
    "ImportMap",
    "register_rule",
    "all_rules",
    "select_rules",
    "lint_source",
    "lint_paths",
    "lint_project_sources",
    "iter_python_files",
    "canonical_path",
    "parse_suppressions",
    "clear_caches",
    "SUPPRESSION_RULE_ID",
    "PARSE_RULE_ID",
]

Severity = Literal["error", "warning"]

#: Pseudo-rule id for malformed suppressions (a disable without a reason).
#: Not suppressible and never baselined: the whole point of the reason
#: requirement is that exemptions document themselves.
SUPPRESSION_RULE_ID = "SUP001"

#: Pseudo-rule id for files the linter cannot parse.
PARSE_RULE_ID = "PARSE"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    The :attr:`key` used for baseline matching deliberately excludes the
    line/column: surrounding edits shift lines constantly, while
    ``(rule, file, enclosing symbol, message)`` survives everything short
    of a rename — which *should* invalidate a baselined exemption.
    """

    rule: str
    path: str
    line: int
    column: int
    message: str
    symbol: str = ""
    severity: Severity = "error"

    @property
    def key(self) -> str:
        """Baseline identity: stable across line-number churn."""
        return f"{self.rule}::{self.path}::{self.symbol}::{self.message}"

    @property
    def location(self) -> str:
        """``path:line:column`` for human output (1-based column)."""
        return f"{self.path}:{self.line}:{self.column + 1}"

    def to_json(self) -> dict[str, object]:
        """Machine-readable form (the ``--format json`` payload)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "symbol": self.symbol,
            "severity": self.severity,
            "key": self.key,
        }


@dataclass(frozen=True)
class Suppression:
    """One parsed ``# repro-lint: disable=...`` comment."""

    line: int
    rules: frozenset[str]
    reason: str

    def covers(self, rule: str) -> bool:
        """Does this suppression silence ``rule``?"""
        return "all" in self.rules or rule in self.rules


# The reason runs to the *last* ``)`` on the line so it may itself contain
# parentheses, e.g. ``(caller stabilize() bumps)``.
_SUPPRESSION_RE = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<rules>[A-Za-z0-9_,\s]+?)"
    r"(?:\s*\((?P<reason>.*)\))?\s*$"
)


def parse_suppressions(
    source: str, path: str
) -> tuple[dict[int, Suppression], list[Finding]]:
    """Extract inline suppressions, flagging any that lack a reason.

    Returns ``(by_line, malformed)`` where ``by_line`` maps 1-based line
    numbers to suppressions and ``malformed`` holds one
    :data:`SUPPRESSION_RULE_ID` finding per reason-less disable.  A
    malformed suppression still *does not* silence anything.
    """
    by_line: dict[int, Suppression] = {}
    malformed: list[Finding] = []
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESSION_RE.search(text)
        if match is None:
            continue
        rules = frozenset(
            part.strip() for part in match.group("rules").split(",") if part.strip()
        )
        reason = (match.group("reason") or "").strip()
        if not rules or not reason:
            malformed.append(
                Finding(
                    rule=SUPPRESSION_RULE_ID,
                    path=path,
                    line=lineno,
                    column=match.start(),
                    message=(
                        "suppression without a reason: write "
                        "`# repro-lint: disable=RULE (why this site is exempt)`"
                    ),
                    symbol="",
                    severity="error",
                )
            )
            continue
        by_line[lineno] = Suppression(line=lineno, rules=rules, reason=reason)
    return by_line, malformed


class _ScopeIndex:
    """Maps line numbers to their innermost enclosing def/class qualname."""

    def __init__(self, tree: ast.Module) -> None:
        # (start, end, depth, qualname), innermost = greatest depth.
        self._spans: list[tuple[int, int, int, str]] = []

        def walk(node: ast.AST, prefix: str, depth: int) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    qualname = f"{prefix}.{child.name}" if prefix else child.name
                    end = getattr(child, "end_lineno", child.lineno) or child.lineno
                    self._spans.append((child.lineno, end, depth, qualname))
                    walk(child, qualname, depth + 1)
                else:
                    walk(child, prefix, depth)

        walk(tree, "", 0)

    def symbol_at(self, line: int) -> str:
        """Qualname of the innermost scope containing ``line`` ("" = module)."""
        best = ""
        best_depth = -1
        for start, end, depth, qualname in self._spans:
            if start <= line <= end and depth > best_depth:
                best = qualname
                best_depth = depth
        return best


class ImportMap:
    """Resolves names in one module to canonical dotted import paths.

    Built once per file from its import statements, so rules can ask
    "does this call reach ``numpy.random.default_rng``?" without caring
    whether the module spelled it ``np.random.default_rng``,
    ``numpy.random.default_rng``, or ``from numpy.random import
    default_rng``.  Names not bound by an import resolve to ``None`` —
    local variables shadowing module names are therefore never flagged.
    """

    def __init__(self, tree: ast.Module) -> None:
        self._names: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        self._names[alias.asname] = alias.name
                    else:
                        top = alias.name.split(".", 1)[0]
                        self._names[top] = top
            elif isinstance(node, ast.ImportFrom):
                if node.module is None or node.level:
                    continue  # relative imports never reach stdlib/numpy
                for alias in node.names:
                    bound = alias.asname if alias.asname is not None else alias.name
                    self._names[bound] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted path of a Name/Attribute chain, or None."""
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        base = self._names.get(current.id)
        if base is None:
            return None
        parts.append(base)
        return ".".join(reversed(parts))


class FileContext:
    """Everything the rules need about one parsed file."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.imports = ImportMap(tree)
        self._scopes = _ScopeIndex(tree)

    def symbol_at(self, line: int) -> str:
        """Innermost enclosing def/class qualname for a line."""
        return self._scopes.symbol_at(line)

    def finding(
        self, rule: "Rule", node: ast.AST, message: str
    ) -> Finding:
        """Construct a finding anchored at ``node`` with the scope filled in."""
        line = getattr(node, "lineno", 1)
        column = getattr(node, "col_offset", 0)
        return Finding(
            rule=rule.id,
            path=self.path,
            line=line,
            column=column,
            message=message,
            symbol=self.symbol_at(line),
            severity=rule.severity,
        )


class Rule(abc.ABC):
    """One lint rule: a named, scoped AST check.

    Subclasses set :attr:`id`/:attr:`title`/:attr:`rationale`, optionally
    narrow :attr:`paths` (fnmatch patterns over the canonical posix path),
    and implement :meth:`check`.
    """

    id: ClassVar[str]
    title: ClassVar[str]
    #: Why the invariant exists — surfaced by ``repro-lint --list-rules``.
    rationale: ClassVar[str] = ""
    severity: ClassVar[Severity] = "error"
    #: fnmatch patterns the file's canonical path must match (any of).
    paths: ClassVar[tuple[str, ...]] = ("*",)

    def applies_to(self, path: str) -> bool:
        """Is ``path`` (canonical posix) inside this rule's scope?"""
        return any(fnmatch.fnmatch(path, pattern) for pattern in self.paths)

    @abc.abstractmethod
    def check(self, context: FileContext) -> Iterable[Finding]:
        """Yield findings for one parsed file."""


class ProjectRule(Rule):
    """A rule over the whole-program graph instead of one file.

    Subclasses implement :meth:`check_project` against the
    :class:`~repro.analysis.project.ProjectGraph` built from *all* linted
    files in one pass (reusing the per-file ASTs).  The per-file
    :meth:`check` hook is a no-op; the linting entry points run project
    rules once per invocation, after the per-file pass.  Findings are
    still attributed to a concrete file/line, so inline suppressions and
    the :attr:`paths` scope apply exactly as they do for file rules —
    and because baseline keys exclude line numbers, project findings get
    stable ``{rule}::{path}::{symbol}::{message}`` keys for free.
    """

    def check(self, context: FileContext) -> Iterable[Finding]:
        return ()

    @abc.abstractmethod
    def check_project(self, project: "ProjectGraph") -> Iterable[Finding]:
        """Yield findings over the whole program."""


_REGISTRY: dict[str, type[Rule]] = {}


def register_rule(rule_class: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry.

    Re-registering an id replaces the previous rule (module reloads in
    tests); distinct rules must use distinct ids.
    """
    _REGISTRY[rule_class.id] = rule_class
    return rule_class


def all_rules() -> list[Rule]:
    """Instances of every registered rule, ordered by id."""
    from repro.analysis import rules as _builtin  # noqa: F401  (registration side effect)

    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def select_rules(
    select: Optional[Sequence[str]] = None, ignore: Optional[Sequence[str]] = None
) -> list[Rule]:
    """The active rule set after ``--select`` / ``--ignore`` filtering."""
    rules = all_rules()
    if select:
        wanted = {rule_id.upper() for rule_id in select}
        unknown = wanted - {rule.id for rule in rules}
        if unknown:
            raise ValueError(f"unknown rule ids: {sorted(unknown)}")
        rules = [rule for rule in rules if rule.id in wanted]
    if ignore:
        dropped = {rule_id.upper() for rule_id in ignore}
        rules = [rule for rule in rules if rule.id not in dropped]
    return rules


def canonical_path(path: Path | str) -> str:
    """Stable repository-relative posix path for findings and baselines.

    Anything up to and including a leading ``**/src/`` prefix is trimmed
    (falling back to a ``**/tests/`` prefix for the test tree), so linting
    ``src/repro`` from the repo root, an absolute path, or a copied tree
    all produce identical finding keys.
    """
    posix = Path(path).as_posix()
    parts = posix.split("/")
    for anchor in ("src", "tests"):
        for index in range(len(parts) - 1, -1, -1):
            if parts[index] == anchor:
                return "/".join(parts[index:])
    return posix.lstrip("./") or posix


@dataclass
class _ParsedFile:
    """One parsed file, shared between the per-file and project passes."""

    path: str  # canonical
    source: str
    context: Optional[FileContext]  # None when the file does not parse
    suppressions: dict[int, Suppression]
    pre_findings: tuple[Finding, ...]  # parse errors + malformed suppressions
    cache_token: Optional[tuple[str, int, int]] = None  # (resolved, mtime, size)


def _parse(source: str, path: str) -> _ParsedFile:
    """Parse one module once; all downstream passes reuse the result."""
    path = canonical_path(path)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        parse_finding = Finding(
            rule=PARSE_RULE_ID,
            path=path,
            line=exc.lineno or 1,
            column=(exc.offset or 1) - 1,
            message=f"file does not parse: {exc.msg}",
            symbol="",
            severity="error",
        )
        return _ParsedFile(path, source, None, {}, (parse_finding,))
    suppressions, malformed = parse_suppressions(source, path)
    context = FileContext(path, source, tree)
    return _ParsedFile(path, source, context, suppressions, tuple(malformed))


def _apply_suppression(
    parsed: _ParsedFile,
    finding: Finding,
    active: list[Finding],
    suppressed: list[Finding],
) -> None:
    suppression = parsed.suppressions.get(finding.line)
    if suppression is not None and suppression.covers(finding.rule):
        suppressed.append(finding)
    else:
        active.append(finding)


def _lint_parsed(
    parsed: _ParsedFile, rules: Sequence[Rule]
) -> tuple[list[Finding], list[Finding]]:
    """The per-file pass over one parsed module."""
    active: list[Finding] = list(parsed.pre_findings)
    suppressed: list[Finding] = []
    if parsed.context is not None:
        for rule in rules:
            if not rule.applies_to(parsed.path):
                continue
            for finding in rule.check(parsed.context):
                _apply_suppression(parsed, finding, active, suppressed)
    active.sort(key=lambda f: (f.path, f.line, f.column, f.rule))
    return active, suppressed


def _project_pass(
    parsed_files: Sequence[_ParsedFile], rules: Sequence[Rule]
) -> tuple[list[Finding], list[Finding]]:
    """Run the whole-program rules once over all parsed files."""
    project_rules = [rule for rule in rules if isinstance(rule, ProjectRule)]
    if not project_rules:
        return [], []
    graph = _project_graph(parsed_files)
    by_path = {parsed.path: parsed for parsed in parsed_files}
    active: list[Finding] = []
    suppressed: list[Finding] = []
    for rule in project_rules:
        for finding in rule.check_project(graph):
            if not rule.applies_to(finding.path):
                continue
            parsed = by_path.get(finding.path)
            if parsed is None:
                active.append(finding)
            else:
                _apply_suppression(parsed, finding, active, suppressed)
    active.sort(key=lambda f: (f.path, f.line, f.column, f.rule))
    return active, suppressed


# Per-process caches: the CLI and the test-suite both invoke the linter many
# times over the same unchanged tree; parse each file and build the project
# graph once per (content, rule-set-independent) state.
_FILE_CACHE: dict[str, _ParsedFile] = {}
_GRAPH_CACHE: dict[frozenset[tuple[str, int, int]], "ProjectGraph"] = {}


def clear_caches() -> None:
    """Drop the per-process parse/graph caches (test isolation hook)."""
    _FILE_CACHE.clear()
    _GRAPH_CACHE.clear()


def _load_file(path: Path) -> _ParsedFile:
    resolved = str(path.resolve())
    stat = path.stat()
    token = (resolved, stat.st_mtime_ns, stat.st_size)
    cached = _FILE_CACHE.get(resolved)
    if cached is not None and cached.cache_token == token:
        return cached
    parsed = _parse(path.read_text(encoding="utf-8"), str(path))
    parsed.cache_token = token
    _FILE_CACHE[resolved] = parsed
    return parsed


def _project_graph(parsed_files: Sequence[_ParsedFile]) -> "ProjectGraph":
    # Deferred import: framework -> project is function-local so the
    # analysis package stays acyclic at module load (ARCH001's own bar).
    from repro.analysis.project import ProjectGraph

    tokens = [parsed.cache_token for parsed in parsed_files]
    key: Optional[frozenset[tuple[str, int, int]]] = None
    if all(token is not None for token in tokens):
        key = frozenset(token for token in tokens if token is not None)
        cached = _GRAPH_CACHE.get(key)
        if cached is not None:
            return cached
    graph = ProjectGraph.build(
        [
            (parsed.context, parsed.suppressions)
            for parsed in parsed_files
            if parsed.context is not None
        ]
    )
    if key is not None:
        _GRAPH_CACHE[key] = graph
    return graph


def lint_source(
    source: str,
    path: str,
    rules: Sequence[Rule],
) -> tuple[list[Finding], list[Finding]]:
    """Lint one in-memory module; returns ``(active, suppressed)``.

    ``active`` contains every finding that counts against the run —
    including malformed-suppression and parse-error findings; ``suppressed``
    holds findings silenced by a well-formed inline suppression.  Only the
    per-file pass runs here; project rules need the whole program
    (:func:`lint_project_sources` / :func:`lint_paths`).
    """
    return _lint_parsed(_parse(source, path), rules)


def lint_project_sources(
    sources: Sequence[tuple[str, str]], rules: Sequence[Rule]
) -> tuple[list[Finding], list[Finding]]:
    """Lint ``(path, source)`` modules as one program; per-file + project pass.

    The in-memory analogue of :func:`lint_paths`, used by fixture and
    mutation tests to lint a synthetic tree without touching disk.
    """
    parsed_files = [_parse(source, path) for path, source in sources]
    active: list[Finding] = []
    suppressed: list[Finding] = []
    for parsed in parsed_files:
        file_active, file_suppressed = _lint_parsed(parsed, rules)
        active.extend(file_active)
        suppressed.extend(file_suppressed)
    project_active, project_suppressed = _project_pass(parsed_files, rules)
    active.extend(project_active)
    suppressed.extend(project_suppressed)
    return active, suppressed


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Every ``.py`` file under the given files/directories, sorted."""
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def lint_paths(
    paths: Sequence[Path],
    rules: Sequence[Rule],
    exclude: Sequence[str] = (),
) -> tuple[list[Finding], list[Finding]]:
    """Lint files and directories; returns ``(active, suppressed)``.

    Runs the per-file pass on every file, then the whole-program pass
    (for any :class:`ProjectRule` in ``rules``) over the same ASTs.
    ``exclude`` holds fnmatch patterns (e.g. ``tests/analysis/fixtures/*``)
    to skip deliberate-violation fixtures; patterns are tested against
    both the path as given and its canonical form, because fixture trees
    embed their own ``src/`` anchor and canonicalize into it.
    """
    active: list[Finding] = []
    suppressed: list[Finding] = []
    parsed_files: list[_ParsedFile] = []
    cwd = Path.cwd()
    for file_path in iter_python_files(paths):
        candidates = [Path(file_path).as_posix()]
        candidates.append(canonical_path(candidates[0]))
        try:
            candidates.append(
                Path(file_path).resolve().relative_to(cwd).as_posix()
            )
        except ValueError:
            pass
        if any(
            fnmatch.fnmatch(candidate, pattern)
            for candidate in candidates
            for pattern in exclude
        ):
            continue
        parsed = _load_file(file_path)
        parsed_files.append(parsed)
        file_active, file_suppressed = _lint_parsed(parsed, rules)
        active.extend(file_active)
        suppressed.extend(file_suppressed)
    project_active, project_suppressed = _project_pass(parsed_files, rules)
    active.extend(project_active)
    suppressed.extend(project_suppressed)
    return active, suppressed

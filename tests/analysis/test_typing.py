"""Typing gates for the strictly-typed surface.

The real ``mypy --strict`` check runs in CI (the container used for the
main suite does not ship mypy); these tests enforce the part of the
contract that is checkable with the stdlib — every function in the scoped
modules is fully annotated, array annotations carry dtypes, and the
package advertises its types — so annotation regressions fail fast and
everywhere, not only in the CI lint job.
"""

from __future__ import annotations

import ast
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
SCOPED = [
    *sorted((REPO_ROOT / "src" / "repro" / "analysis").rglob("*.py")),
    *sorted((REPO_ROOT / "src" / "repro" / "core").rglob("*.py")),
    REPO_ROOT / "src" / "repro" / "ring" / "snapshot.py",
    REPO_ROOT / "src" / "repro" / "ring" / "mutation.py",
    REPO_ROOT / "src" / "repro" / "ring" / "compact.py",
    REPO_ROOT / "src" / "repro" / "ring" / "lockstep.py",
    REPO_ROOT / "src" / "repro" / "ring" / "routing.py",
    REPO_ROOT / "src" / "repro" / "ring" / "faults.py",
    REPO_ROOT / "src" / "repro" / "serve" / "metrics.py",
    REPO_ROOT / "src" / "repro" / "experiments" / "estimation_bench.py",
]


def iter_functions(tree: ast.Module):
    class_members = {
        id(item)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, id(node) in class_members


def test_scoped_modules_exist():
    assert len(SCOPED) > 15


def test_every_function_fully_annotated():
    gaps: list[str] = []
    for path in SCOPED:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        rel = path.relative_to(REPO_ROOT)
        for node, is_method in iter_functions(tree):
            args = node.args
            positional = args.posonlyargs + args.args
            for index, arg in enumerate(positional):
                if (
                    is_method
                    and index == 0
                    and arg.arg in ("self", "cls")
                    and not any(
                        isinstance(dec, ast.Name) and dec.id == "staticmethod"
                        for dec in node.decorator_list
                    )
                ):
                    continue
                if arg.annotation is None:
                    gaps.append(f"{rel}:{node.lineno} {node.name}({arg.arg})")
            for arg in args.kwonlyargs:
                if arg.annotation is None:
                    gaps.append(f"{rel}:{node.lineno} {node.name}({arg.arg})")
            for star in (args.vararg, args.kwarg):
                if star is not None and star.annotation is None:
                    gaps.append(f"{rel}:{node.lineno} {node.name}(*{star.arg})")
            if node.returns is None:
                gaps.append(f"{rel}:{node.lineno} {node.name}() return")
    assert gaps == [], f"unannotated signatures in strict scope: {gaps}"


def test_no_bare_ndarray_annotations():
    """Array annotations must carry a dtype (NDArray[...], not np.ndarray).

    ``np.ndarray`` without parameters is ``Any``-typed under
    ``disallow_any_generics``; the sweep moved every annotation to
    ``numpy.typing.NDArray`` and this pins the convention.
    """
    offenders: list[str] = []
    for path in SCOPED:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        rel = path.relative_to(REPO_ROOT)
        annotations: list[ast.expr] = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                for arg in args.posonlyargs + args.args + args.kwonlyargs:
                    if arg.annotation is not None:
                        annotations.append(arg.annotation)
                if node.returns is not None:
                    annotations.append(node.returns)
            elif isinstance(node, ast.AnnAssign):
                annotations.append(node.annotation)
        for annotation in annotations:
            subscripted = {
                id(part.value)
                for part in ast.walk(annotation)
                if isinstance(part, ast.Subscript)
            }
            for part in ast.walk(annotation):
                if (
                    isinstance(part, ast.Attribute)
                    and part.attr == "ndarray"
                    and id(part) not in subscripted
                ):
                    offenders.append(f"{rel}:{part.lineno}")
    assert offenders == [], f"bare np.ndarray annotations: {offenders}"


def test_py_typed_marker_shipped():
    assert (REPO_ROOT / "src" / "repro" / "py.typed").exists()


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_strict_scope_passes():
    """Runs only where mypy is available (the CI lint job installs it)."""
    result = subprocess.run(
        [shutil.which("mypy"), "--config-file", "pyproject.toml"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_passes():
    """Runs only where ruff is available (the CI lint job installs it)."""
    result = subprocess.run(
        [shutil.which("ruff"), "check", "src", "tests"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_python_syntax_of_whole_tree():
    """Every file compiles under the running interpreter (cheap smoke)."""
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        compile(path.read_text(encoding="utf-8"), str(path), "exec")
    assert sys.version_info >= (3, 10)

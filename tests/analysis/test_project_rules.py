"""Whole-program rules: project graph construction and ARCH/PAR/DET001.

Fixture trees live under ``tests/analysis/fixtures/project/<name>/`` and
are linted in-memory through :func:`repro.analysis.lint_project_sources`,
so these tests exercise exactly the code path the CLI runs (per-file pass
+ project pass over shared ASTs).
"""

from __future__ import annotations

import ast

from repro.analysis import lint_project_sources, select_rules
from repro.analysis.framework import FileContext, ProjectRule
from repro.analysis.project import (
    LAYER_CONTRACT,
    ProjectGraph,
    module_name_for_path,
    render_layer_contract,
)

from tests.analysis.conftest import project_fixture_sources


def lint_project(name: str, rules=None):
    return lint_project_sources(
        project_fixture_sources(name), select_rules(rules)
    )


def graph_of(sources):
    entries = []
    for path, source in sources:
        context = FileContext(path, source, ast.parse(source))
        entries.append((context, {}))
    return ProjectGraph.build(entries)


class TestProjectGraph:
    def test_module_names(self):
        assert module_name_for_path("src/repro/ring/chord.py") == "repro.ring.chord"
        assert module_name_for_path("src/repro/ring/__init__.py") == "repro.ring"
        assert module_name_for_path("src/repro/__init__.py") == "repro"
        assert module_name_for_path("tests/analysis/test_cli.py") == (
            "tests.analysis.test_cli"
        )
        assert module_name_for_path("not-a-module.txt") is None

    def test_edge_flags(self):
        graph = graph_of(
            [
                (
                    "src/repro/ring/a.py",
                    "from typing import TYPE_CHECKING\n"
                    "import json\n"
                    "if TYPE_CHECKING:\n"
                    "    from repro.core.x import X\n"
                    "def f():\n"
                    "    from repro.core.y import Y\n"
                    "    return Y\n",
                ),
                ("src/repro/core/x.py", "X = 1\n"),
                ("src/repro/core/y.py", "Y = 2\n"),
            ]
        )
        edges = {e.target: e for e in graph.modules["repro.ring.a"].edges}
        assert edges["typing"].type_only is False
        assert edges["repro.core.x"].type_only is True
        assert edges["repro.core.y"].deferred is True
        assert edges["repro.core.y"].type_only is False

    def test_cycles_over_load_time_edges_only(self):
        cyclic = graph_of(
            [
                ("src/repro/ring/a.py", "from repro.ring.b import B\nA = 1\n"),
                ("src/repro/ring/b.py", "from repro.ring.a import A\nB = 2\n"),
            ]
        )
        assert cyclic.runtime_cycles() == [["repro.ring.a", "repro.ring.b"]]
        broken = graph_of(
            [
                ("src/repro/ring/a.py", "from repro.ring.b import B\nA = 1\n"),
                (
                    "src/repro/ring/b.py",
                    "def g():\n    from repro.ring.a import A\n    return A\nB = 2\n",
                ),
            ]
        )
        assert broken.runtime_cycles() == []

    def test_resolve_call_finds_project_functions(self):
        graph = graph_of(
            [
                ("src/repro/core/h.py", "def helper():\n    return 1\n"),
                (
                    "src/repro/core/u.py",
                    "from repro.core.h import helper\n"
                    "def use():\n    return helper()\n",
                ),
            ]
        )
        module = graph.modules["repro.core.u"]
        call = None
        for node in ast.walk(module.context.tree):
            if isinstance(node, ast.Call):
                call = node
        assert graph.resolve_call(module, call.func) == "repro.core.h.helper"

    def test_contract_rendering_covers_every_layer(self):
        rendered = render_layer_contract()
        for package in LAYER_CONTRACT:
            assert f"`{package}/`" in rendered


class TestArchRule:
    def test_positive_fixture(self):
        active, _ = lint_project("arch_positive")
        arch = [f for f in active if f.rule == "ARCH001"]
        messages = " | ".join(f.message for f in arch)
        assert "`core/` must not import `serve/`" in messages
        assert "imports only the stdlib" in messages
        assert "import cycle at module load" in messages
        assert {f.path for f in arch} == {
            "src/repro/core/estimator.py",
            "src/repro/analysis/helper.py",
            "src/repro/ring/alpha.py",
        }

    def test_negative_fixture(self):
        active, suppressed = lint_project("arch_negative")
        assert [f for f in active if f.rule == "ARCH001"] == []
        assert [f for f in suppressed if f.rule == "ARCH001"] == []

    def test_suppressed_fixture(self):
        active, suppressed = lint_project("arch_suppressed")
        assert [f for f in active if f.rule == "ARCH001"] == []
        (finding,) = [f for f in suppressed if f.rule == "ARCH001"]
        assert finding.path == "src/repro/ring/faults.py"
        assert "`ring/` must not import `core/`" in finding.message


class TestParityRule:
    def test_positive_fixture(self):
        active, _ = lint_project("par_positive")
        par = [f for f in active if f.rule == "PAR001"]
        messages = " | ".join(f.message for f in par)
        assert "lacks `version_token`" in messages  # from the protocol
        assert "lacks `random_peer`" in messages  # from the dispatch site
        assert "dispatched in `repro.core.probe.run`" in messages
        # Boolean narrowing reaches neither the body of an ``or`` test nor
        # the remainder after an ``and`` test's body returns.
        assert "lacks `object_walk` (dispatched in `repro.core.probe.either`)" in messages
        assert "lacks `object_span` (dispatched in `repro.core.probe.both`)" in messages
        # Keyword arguments and comprehension iterators are dispatch sites.
        assert "lacks `object_domain` (dispatched in `repro.core.probe.keyword`)" in messages
        assert "lacks `object_peers` (dispatched in `repro.core.probe.listed`)" in messages
        assert "default values differ" in messages  # record(n=1) vs record(n=2)
        assert all(f.path == "src/repro/ring/compact.py" for f in par)

    def test_negative_fixture(self):
        active, suppressed = lint_project("par_negative")
        assert [f for f in active if f.rule == "PAR001"] == []
        assert [f for f in suppressed if f.rule == "PAR001"] == []

    def test_suppressed_fixture(self):
        active, suppressed = lint_project("par_suppressed")
        assert [f for f in active if f.rule == "PAR001"] == []
        (finding,) = [f for f in suppressed if f.rule == "PAR001"]
        assert "lacks `version_token`" in finding.message

    def test_partial_tree_is_silent(self):
        # Without both backend classes there is nothing to compare —
        # single-file fixtures and unit tests must not trip PAR001.
        active, suppressed = lint_project_sources(
            [("src/repro/core/solo.py", "def f(x: int) -> int:\n    return x\n")],
            select_rules(["PAR001"]),
        )
        assert active == [] and suppressed == []


class TestTaintRule:
    def test_positive_fixture(self):
        active, _ = lint_project("det_positive")
        (finding,) = [f for f in active if f.rule == "DET001"]
        assert finding.path == "src/repro/core/probe.py"
        assert finding.symbol == "probe_budget_left"
        assert "repro.core.timing.elapsed_since" in finding.message
        assert "wall-clock read `time.perf_counter()`" in finding.message

    def test_negative_fixture(self):
        active, suppressed = lint_project("det_negative")
        assert [f for f in active if f.rule == "DET001"] == []
        assert [f for f in suppressed if f.rule == "DET001"] == []

    def test_suppressed_fixture(self):
        active, suppressed = lint_project("det_suppressed")
        assert [f for f in active if f.rule == "DET001"] == []
        (finding,) = [f for f in suppressed if f.rule == "DET001"]
        assert finding.path == "src/repro/core/probe.py"


class TestProjectPassWiring:
    def test_project_rules_are_project_rules(self, rules):
        by_id = {rule.id: rule for rule in rules}
        for rule_id in ("ARCH001", "PAR001", "DET001"):
            assert isinstance(by_id[rule_id], ProjectRule)

    def test_single_file_entry_point_skips_project_rules(self):
        # lint_source sees one file; project rules need the whole program
        # and must stay silent rather than half-fire.
        from repro.analysis import lint_source

        active, suppressed = lint_source(
            "from repro.serve.cache import EstimateCache\n",
            "src/repro/core/estimator.py",
            select_rules(["ARCH001"]),
        )
        assert active == [] and suppressed == []

    def test_project_findings_have_line_free_baseline_keys(self):
        active, _ = lint_project("arch_positive", ["ARCH001"])
        for finding in active:
            assert str(finding.line) not in finding.key.split("::")
            assert finding.key.startswith("ARCH001::src/repro/")

    def test_unknown_scratch_paths_stay_out_of_the_graph(self):
        graph = graph_of([("scratch-file.py", "import json\n")])
        assert graph.modules == {}

"""Static analysis of the repository's reproducibility invariants.

``repro-lint`` (see :mod:`repro.analysis.cli`) runs AST rules encoding
the contracts that make the evaluation tables byte-identical across
caching, batching, and fault-injection PRs:

========  ==========================================================
RNG001    no global-state randomness; seeded ``Generator`` threading
RNG002    no wall-clock reads on measured paths (``wall_s`` sites
          are whitelisted inline)
VER001    topology/data mutations bump the version tokens caches
          key on
SUM001    table paths accumulate floats strictly sequentially
ERR001    routing failures use the ``RouteOutcome`` taxonomy
ERR002    probe/exchange paths never swallow ``NetworkError`` —
          failures surface as RouteOutcome/ProbeFailure evidence
ARCH001   the layer contract over the whole-program import graph
          (declared as data in :mod:`repro.analysis.project`)
PAR001    both ring backends serve the full ``RingBackend``
          dispatch surface with compatible signatures
DET001    interprocedural taint: no measured-path consumption of
          returns derived from wall-clock/global-RNG reads
========  ==========================================================

The last three are *whole-program* rules (:class:`ProjectRule`): they run
once per invocation over the project graph built from the same ASTs the
per-file pass parsed.

See docs/STATIC_ANALYSIS.md for the rule catalogue, the suppression
syntax, and the ratchet-baseline workflow.
"""

from repro.analysis.baseline import Baseline, BaselinePartition
from repro.analysis.framework import (
    FileContext,
    Finding,
    ImportMap,
    ProjectRule,
    Rule,
    Suppression,
    all_rules,
    canonical_path,
    clear_caches,
    lint_paths,
    lint_project_sources,
    lint_source,
    parse_suppressions,
    register_rule,
    select_rules,
)

__all__ = [
    "Baseline",
    "BaselinePartition",
    "FileContext",
    "Finding",
    "ImportMap",
    "ProjectRule",
    "Rule",
    "Suppression",
    "all_rules",
    "canonical_path",
    "clear_caches",
    "lint_paths",
    "lint_project_sources",
    "lint_source",
    "parse_suppressions",
    "register_rule",
    "select_rules",
]

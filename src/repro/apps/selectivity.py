"""Range-query selectivity estimation — a motivating application.

Query processing over a ring P2P network wants, before executing a range
query, an estimate of how many items (and hence peers/messages) it will
touch.  With a global density estimate that is a single local computation:
``sel[a, b) = F̂(b) − F̂(a)``.  This module evaluates how good those
estimates are against the network's actual contents over a query workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.estimate import DensityEstimate
from repro.data.workload import RangeQuery, RangeQueryWorkload

__all__ = [
    "SelectivityReport",
    "estimate_selectivity",
    "estimate_selectivities",
    "evaluate_selectivity",
    "true_selectivities",
]


def estimate_selectivity(estimate: DensityEstimate, query: RangeQuery) -> float:
    """Estimated fraction of global items inside one range query."""
    return estimate.selectivity(query.low, query.high)


def estimate_selectivities(
    estimate: DensityEstimate, workload: RangeQueryWorkload | Sequence[RangeQuery]
) -> np.ndarray:
    """Estimated selectivity of every query in a workload, in one pass.

    The CDF is evaluated at all query bounds at once, so a workload of
    ``q`` queries costs two vectorised CDF evaluations instead of ``2q``
    scalar ones.  Element ``i`` equals
    ``estimate_selectivity(estimate, queries[i])`` exactly.
    """
    queries = list(workload)
    lows = np.asarray([q.low for q in queries], dtype=float)
    highs = np.asarray([q.high for q in queries], dtype=float)
    if lows.size == 0:
        return np.empty(0, dtype=float)
    return estimate.cdf(highs) - estimate.cdf(lows)


def true_selectivities(
    workload: RangeQueryWorkload | Sequence[RangeQuery],
    values: np.ndarray,
    presorted: bool = False,
) -> np.ndarray:
    """Actual selectivity of every query against a value multiset.

    One sort (skipped for ``presorted`` input such as
    ``RingNetwork.all_values``) plus one ``searchsorted`` over all query
    bounds replaces a boolean-mask scan per query.  Element ``i`` equals
    ``queries[i].true_selectivity(values)`` exactly: the bisection counts
    of a sorted array in ``[low, high)`` are the same integers the mask
    would count.
    """
    queries = list(workload)
    if not queries:
        return np.empty(0, dtype=float)
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return np.zeros(len(queries), dtype=float)
    if not presorted:
        arr = np.sort(arr)
    lows = np.asarray([q.low for q in queries], dtype=float)
    highs = np.asarray([q.high for q in queries], dtype=float)
    counts = np.searchsorted(arr, highs, side="left") - np.searchsorted(
        arr, lows, side="left"
    )
    return counts / arr.size


@dataclass(frozen=True)
class SelectivityReport:
    """Accuracy of selectivity estimation over a query workload.

    ``degraded`` marks a report computed from a degraded estimate (some or
    all probe evidence missing); the error numbers are still exact for the
    estimate they were computed from, but the workload owner should expect
    them to be worse than a full-coverage run's.  Result tables name the
    fields they report, so the flag does not change them.
    """

    queries: int
    mean_abs_error: float          # mean |sel̂ - sel|
    max_abs_error: float
    mean_relative_error: float     # mean |sel̂ - sel| / max(sel, floor)
    mean_true_selectivity: float
    degraded: bool = False


def evaluate_selectivity(
    estimate: DensityEstimate,
    workload: RangeQueryWorkload | Sequence[RangeQuery],
    true_values: np.ndarray,
    relative_floor: float = 0.01,
    presorted: bool = False,
) -> SelectivityReport:
    """Compare estimated vs. actual selectivity over a workload.

    ``relative_floor`` guards the relative-error denominator against
    near-empty queries (an absolute miss of 0.001 on a 0.0001-selectivity
    query should not read as 10x error).  ``presorted`` promises that
    ``true_values`` is already sorted (e.g. ``RingNetwork.all_values``),
    skipping the sort in the batched ground-truth pass.
    """
    queries = list(workload)
    if not queries:
        raise ValueError("workload must contain at least one query")
    true_sels = true_selectivities(queries, true_values, presorted=presorted)
    est_sels = estimate_selectivities(estimate, queries)
    abs_errors = np.abs(est_sels - true_sels)
    rel_errors = abs_errors / np.maximum(true_sels, relative_floor)
    return SelectivityReport(
        queries=len(queries),
        mean_abs_error=float(np.mean(abs_errors)),
        max_abs_error=float(np.max(abs_errors)),
        mean_relative_error=float(np.mean(rel_errors)),
        mean_true_selectivity=float(np.mean(true_sels)),
        degraded=estimate.degraded,
    )

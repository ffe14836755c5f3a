"""Approximate aggregate queries over the global data.

The query-processing application generalised: with a density estimate in
hand, a peer can answer COUNT / SUM / AVG / percentile queries over any
range predicate locally — no network traffic per query.  COUNT uses the
estimated mass times the estimated volume; SUM/AVG integrate the value
against the estimated density; percentiles invert the estimated CDF
restricted to the range.

All answers carry the estimate's error, which :func:`evaluate_aggregates`
measures against the network's actual contents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.estimate import DensityEstimate
from repro.data.workload import RangeQuery

__all__ = ["AggregateAnswer", "AggregateEngine", "evaluate_aggregates"]


@dataclass(frozen=True)
class AggregateAnswer:
    """One approximate aggregate result."""

    count: float
    total: float        # SUM of values in range
    mean: float         # AVG of values in range (NaN when count ≈ 0)
    median: float       # within-range median (NaN when count ≈ 0)


class AggregateEngine:
    """Answers aggregate queries from a density estimate, locally."""

    def __init__(self, estimate: DensityEstimate, integration_cells: int = 512) -> None:
        if integration_cells < 8:
            raise ValueError(f"integration_cells must be >= 8, got {integration_cells}")
        self.estimate = estimate
        self.integration_cells = integration_cells

    def query(self, query: Optional[RangeQuery] = None) -> AggregateAnswer:
        """Aggregate over ``query`` (or the whole domain when ``None``)."""
        low, high = self.estimate.domain
        if query is not None:
            low = max(low, query.low)
            high = min(high, query.high)
            if not low < high:
                return AggregateAnswer(0.0, 0.0, float("nan"), float("nan"))

        mass = self.estimate.cdf.mass_between(low, high)
        count = mass * self.estimate.n_items
        if mass <= 1e-12:
            return AggregateAnswer(count, 0.0, float("nan"), float("nan"))

        # SUM = n · ∫ x dF(x) over the range, integrated on a grid.
        grid = np.linspace(low, high, self.integration_cells + 1)
        cell_mass = np.clip(np.diff(np.asarray(self.estimate.cdf(grid))), 0.0, None)
        midpoints = 0.5 * (grid[:-1] + grid[1:])
        mean_in_range = float(np.sum(cell_mass * midpoints) / max(cell_mass.sum(), 1e-300))
        total = mean_in_range * count

        # Median of the range: invert F at the midpoint of the range's mass.
        f_low = float(self.estimate.cdf(low))
        median = float(self.estimate.cdf.inverse(f_low + 0.5 * mass))
        return AggregateAnswer(count=count, total=total, mean=mean_in_range, median=median)


@dataclass(frozen=True)
class AggregateErrorReport:
    """Relative errors of estimated aggregates against ground truth."""

    count_error: float
    sum_error: float
    mean_error: float
    median_error: float


def evaluate_aggregates(
    engine: AggregateEngine,
    query: RangeQuery,
    true_values: np.ndarray,
) -> AggregateErrorReport:
    """Relative error of each aggregate on one query.

    Errors are relative to the true value (count/sum) or to the domain
    width (mean/median, which may legitimately be near zero).
    """
    answer = engine.query(query)
    inside = true_values[(true_values >= query.low) & (true_values < query.high)]
    low, high = engine.estimate.domain
    width = high - low

    true_count = float(inside.size)
    count_error = abs(answer.count - true_count) / max(true_count, 1.0)
    true_sum = float(inside.sum()) if inside.size else 0.0
    sum_error = abs(answer.total - true_sum) / max(abs(true_sum), 1e-9)
    if inside.size:
        mean_error = abs(answer.mean - float(inside.mean())) / width
        median_error = abs(answer.median - float(np.median(inside))) / width
    else:
        mean_error = float("nan")
        median_error = float("nan")
    return AggregateErrorReport(
        count_error=count_error,
        sum_error=sum_error,
        mean_error=mean_error,
        median_error=median_error,
    )

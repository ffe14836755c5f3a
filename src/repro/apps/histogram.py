"""Global equi-depth histogram construction.

Query optimizers want equi-depth histograms (every bucket holds the same
number of items) because they bound selectivity-estimation error
uniformly.  Building one over P2P data classically requires a distributed
sort or repeated quantile queries; with a global density estimate it is a
single local inversion per boundary.  :func:`evaluate_equi_depth` measures
how equi the depths actually are against the stored data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.estimate import DensityEstimate
from repro.core.quantile import equi_depth_boundaries

__all__ = ["EquiDepthHistogram", "build_equi_depth_histogram", "evaluate_equi_depth"]


@dataclass(frozen=True)
class EquiDepthHistogram:
    """An equi-depth histogram: boundaries plus the intended per-bucket mass."""

    boundaries: np.ndarray          # buckets + 1 values, non-decreasing
    intended_depth: float           # target fraction per bucket (1/buckets)
    estimated_items: float          # estimated global volume at build time

    def __post_init__(self) -> None:
        if self.boundaries.size < 2:
            raise ValueError("histogram needs at least one bucket")
        if np.any(np.diff(self.boundaries) < -1e-12):
            raise ValueError("boundaries must be non-decreasing")

    @property
    def buckets(self) -> int:
        """Number of buckets."""
        return int(self.boundaries.size - 1)

    def selectivity(self, low: float, high: float) -> float:
        """Selectivity estimate from the histogram alone.

        Full buckets contribute their depth; partial buckets contribute
        proportionally to overlap (the classic uniform-within-bucket rule).
        """
        if not low <= high:
            raise ValueError(f"inverted range [{low}, {high})")
        total = 0.0
        for bucket in range(self.buckets):
            b_low, b_high = self.boundaries[bucket], self.boundaries[bucket + 1]
            width = b_high - b_low
            overlap = max(0.0, min(high, b_high) - max(low, b_low))
            if width > 0:
                total += self.intended_depth * overlap / width
            elif b_low >= low and b_high < high:
                total += self.intended_depth
        return min(total, 1.0)


def build_equi_depth_histogram(estimate: DensityEstimate, buckets: int) -> EquiDepthHistogram:
    """Equi-depth histogram from a density estimate (purely local)."""
    if buckets < 1:
        raise ValueError(f"buckets must be >= 1, got {buckets}")
    boundaries = equi_depth_boundaries(estimate.cdf, buckets)
    return EquiDepthHistogram(
        boundaries=np.asarray(boundaries, dtype=float),
        intended_depth=1.0 / buckets,
        estimated_items=estimate.n_items,
    )


@dataclass(frozen=True)
class EquiDepthReport:
    """How equi the depths turned out against the actual data."""

    buckets: int
    max_depth: float          # largest actual per-bucket fraction
    min_depth: float
    depth_rmse: float         # RMS deviation from the intended depth


def evaluate_equi_depth(
    histogram: EquiDepthHistogram, true_values: np.ndarray
) -> EquiDepthReport:
    """Measure actual bucket depths against the equi-depth target."""
    if true_values.size == 0:
        raise ValueError("need data to evaluate against")
    edges = np.array(histogram.boundaries, copy=True)
    # Guard float ties: make edges strictly increasing for np.histogram.
    for i in range(1, edges.size):
        if edges[i] <= edges[i - 1]:
            edges[i] = np.nextafter(edges[i - 1], np.inf)
    counts, _ = np.histogram(true_values, bins=edges)
    # Items outside the boundary span (estimation error at the edges).
    outside = true_values.size - counts.sum()
    counts = counts.astype(float)
    counts[0] += max(outside, 0) / 2
    counts[-1] += max(outside, 0) / 2
    depths = counts / true_values.size
    return EquiDepthReport(
        buckets=histogram.buckets,
        max_depth=float(depths.max()),
        min_depth=float(depths.min()),
        depth_rmse=float(np.sqrt(np.mean((depths - histogram.intended_depth) ** 2))),
    )

"""Quantile queries over estimated distributions.

Thin, well-tested helpers on top of :class:`PiecewiseCDF` inversion: single
quantiles, batch quantiles, and the equi-depth boundaries used for
histogram construction and range partitioning — one of the P2P
applications (load-balanced re-partitioning) the paper's introduction
motivates.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from repro.core.cdf import PiecewiseCDF

__all__ = ["quantile", "quantiles", "median", "equi_depth_boundaries"]


def quantile(cdf: PiecewiseCDF, q: float) -> float:
    """The ``q``-quantile, ``q ∈ [0, 1]``."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile level must be in [0, 1], got {q}")
    return float(cdf.inverse(q))


def quantiles(cdf: PiecewiseCDF, levels: Sequence[float]) -> NDArray[np.float64]:
    """Batch quantiles for a sequence of levels."""
    arr = np.asarray(levels, dtype=float)
    if np.any((arr < 0) | (arr > 1)):
        raise ValueError("quantile levels must lie in [0, 1]")
    return np.asarray(cdf.inverse(arr), dtype=float)


def median(cdf: PiecewiseCDF) -> float:
    """The 0.5-quantile."""
    return quantile(cdf, 0.5)


def equi_depth_boundaries(cdf: PiecewiseCDF, parts: int) -> NDArray[np.float64]:
    """``parts + 1`` boundaries splitting the distribution into equal-mass
    parts — the partitioning an ideal load balancer would install."""
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    levels = np.linspace(0.0, 1.0, parts + 1)
    return np.asarray(cdf.inverse(levels), dtype=float)

"""Load-balance analysis — the paper's first motivating application.

Under order-preserving placement, skewed data piles onto the peers owning
the dense part of the domain.  A peer that knows the global density can
*predict* the load of any ring segment (``load ≈ n̂ · (F̂(b) − F̂(a))``),
quantify global imbalance, and compute the equi-depth boundaries an ideal
rebalancing would install — all without touching more of the network than
the estimate itself cost.  This module implements those computations and
their evaluation against the network's actual per-peer loads.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.core.estimate import DensityEstimate
from repro.core.quantile import equi_depth_boundaries
from repro.ring.network import RingNetwork

__all__ = [
    "gini_coefficient",
    "coefficient_of_variation",
    "LoadBalanceReport",
    "predict_peer_loads",
    "analyze_load_balance",
    "rebalanced_boundaries",
]


def gini_coefficient(loads: np.ndarray) -> float:
    """Gini coefficient of a load vector (0 = perfectly even)."""
    arr = np.sort(np.asarray(loads, dtype=float))
    if arr.size == 0:
        raise ValueError("need at least one load value")
    if np.any(arr < 0):
        raise ValueError("loads must be non-negative")
    total = arr.sum()
    if total == 0:
        return 0.0
    n = arr.size
    ranks = np.arange(1, n + 1)
    return float((2.0 * np.sum(ranks * arr)) / (n * total) - (n + 1) / n)


def coefficient_of_variation(loads: np.ndarray) -> float:
    """Std/mean of a load vector (0 = perfectly even)."""
    arr = np.asarray(loads, dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one load value")
    mean = arr.mean()
    if mean == 0:
        return 0.0
    return float(arr.std() / mean)


def _ownership_segments(
    network: RingNetwork,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """Translate every peer's ownership arc to value segments.

    Returns ``(base, seg_low, seg_high, seg_owner)``: a per-peer base load
    (1.0 for degenerate single-ident arcs, else 0.0) plus the value
    segments whose estimated mass accumulates onto ``seg_owner``.  A
    wrapped arc contributes two segments (one at each domain end).  Cheap
    integer and hash arithmetic only — no CDF evaluation.
    """
    low, high = network.domain
    to_value = network.data_hash.to_value
    space_add = network.space.add
    nodes = list(network.peers())
    base = np.zeros(len(nodes), dtype=float)
    seg_low: list[float] = []
    seg_high: list[float] = []
    seg_owner: list[int] = []
    for index, node in enumerate(nodes):
        interval = node.interval
        if interval.start == interval.end:
            base[index] = 1.0
        elif interval.start < interval.end:
            a = to_value(space_add(interval.start, 1))
            after = space_add(interval.end, 1)
            b = high if after == 0 else to_value(after)
            seg_low.append(min(a, b))
            seg_high.append(max(a, b))
            seg_owner.append(index)
        else:
            # Wrapped arc: mass at both domain ends.
            first_start = space_add(interval.start, 1)
            if first_start != 0:
                a = to_value(first_start)
                seg_low.append(min(a, high))
                seg_high.append(high)
                seg_owner.append(index)
            b = to_value(interval.end + 1)
            seg_low.append(low)
            seg_high.append(max(b, low))
            seg_owner.append(index)
    return (
        base,
        np.asarray(seg_low, dtype=float),
        np.asarray(seg_high, dtype=float),
        seg_owner,
    )


def predict_peer_loads(network: RingNetwork, estimate: DensityEstimate) -> np.ndarray:
    """Predicted item count per peer (ring order) from a density estimate.

    Each peer's ownership arc is translated to its value range(s) and the
    estimated mass inside is scaled by the estimated total volume.  Only
    the estimate and the (public) peer boundaries are used — no per-peer
    counts, which is the whole point of predicting.  The CDF is evaluated
    over all segment bounds in two vectorised passes instead of two scalar
    calls per peer.
    """
    base, seg_low, seg_high, seg_owner = _ownership_segments(network)
    if seg_owner:
        cdf = estimate.cdf
        masses = cdf(seg_high) - cdf(seg_low)
        np.maximum(masses, 0.0, out=masses)
        np.add.at(base, seg_owner, masses)
    return base * estimate.n_items


@dataclass(frozen=True)
class LoadBalanceReport:
    """Predicted vs. actual load-imbalance summary.

    ``degraded`` marks a prediction made from a degraded estimate; the
    numbers are still well-defined (a zero-evidence estimate predicts a
    perfectly flat ring), but a rebalancer should not act on them.  Result
    tables name the fields they report, so the flag does not change them.
    """

    actual_gini: float
    predicted_gini: float
    actual_cv: float
    predicted_cv: float
    per_peer_mean_abs_error: float   # mean |predicted - actual| per peer
    hotspot_hit: bool                # did we predict the most-loaded peer's
    #                                  neighbourhood (top decile) correctly?
    degraded: bool = False


def analyze_load_balance(network: RingNetwork, estimate: DensityEstimate) -> LoadBalanceReport:
    """Compare predicted load imbalance against the network's actual loads."""
    actual = network.peer_loads().astype(float)
    predicted = predict_peer_loads(network, estimate)
    top_decile = max(int(np.ceil(actual.size * 0.1)), 1)
    actual_top = set(np.argsort(actual)[-top_decile:].tolist())
    predicted_hottest = int(np.argmax(predicted))
    return LoadBalanceReport(
        actual_gini=gini_coefficient(actual),
        predicted_gini=gini_coefficient(predicted),
        actual_cv=coefficient_of_variation(actual),
        predicted_cv=coefficient_of_variation(predicted),
        per_peer_mean_abs_error=float(np.mean(np.abs(predicted - actual))),
        hotspot_hit=predicted_hottest in actual_top,
        degraded=estimate.degraded,
    )


def rebalanced_boundaries(estimate: DensityEstimate, parts: int) -> np.ndarray:
    """Value boundaries an ideal load balancer would install.

    ``parts + 1`` equi-depth boundaries of the estimated distribution;
    placing one peer per part equalises expected load.
    """
    return equi_depth_boundaries(estimate.cdf, parts)

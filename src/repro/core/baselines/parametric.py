"""Parametric moment fitting — the distribution-*bound* comparator.

Uses the same cheap probes as the distribution-free estimator (so cost is
identical) but assumes a parametric family: it estimates the global mean
and variance by Horvitz–Thompson-weighted moments of the probed synopses
and returns the fitted family member's CDF.  On data that actually follows
the family it is excellent — fewer effective parameters means less
variance.  On anything else (heavy tails, multimodality) it is wrong no
matter how many probes it gets, which is precisely the contrast that
motivates "distribution-free".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional, Sequence

import numpy as np

from repro.core.cdf import PiecewiseCDF
from repro.core.cdf_sampling import (
    collect_probes,
    estimate_peer_count,
    estimate_total_items,
    ht_weights,
)
from repro.core.estimate import DensityEstimate, degraded_from_exception
from repro.core.replies import ProbeReplies
from repro.data.distributions import TruncatedExponential, TruncatedNormal
from repro.data.domain import Domain
from repro.ring.network import NetworkError, RingNetwork

__all__ = ["ParametricEstimator", "weighted_moments"]


def weighted_moments(
    replies: ProbeReplies, weights: Sequence[float]
) -> tuple[float, float]:
    """HT-weighted estimates of the global data mean and variance.

    Each peer's synopsis is read as mass at bucket midpoints; the weights
    are the same Horvitz–Thompson weights the distribution-free estimator
    uses, so the moments themselves are (asymptotically) unbiased — the
    bias of this baseline lives entirely in the family assumption.  The
    sums run reply by reply, segment by segment, each over the segment's
    own buckets.
    """
    weight_arr = np.asarray(weights, dtype=float)
    edges = replies.bucket_edges()
    midpoints = 0.5 * (edges[:, :-1] + edges[:, 1:])
    width = replies.seg_counts.shape[1]
    buckets = [width] * len(replies.seg_low) if replies.seg_buckets is None else replies.seg_buckets
    mean_acc = 0.0
    second_acc = 0.0
    for k, (probe, b) in enumerate(zip(replies.seg_probe.tolist(), buckets)):
        w, count = weight_arr[probe], replies.local_count[probe]
        if w <= 0 or count == 0 or not replies.seg_counts[k].any():
            continue
        probs = replies.seg_counts[k, :b] / count
        mean_acc += w * float(np.sum(probs * midpoints[k, :b]))
        second_acc += w * float(np.sum(probs * midpoints[k, :b] ** 2))
    variance = max(second_acc - mean_acc**2, 1e-12)
    return mean_acc, variance


@dataclass(frozen=True)
class ParametricEstimator:
    """Fit a parametric family to HT-weighted probe moments."""

    probes: int = 64
    synopsis_buckets: int = 8
    family: Literal["normal", "exponential"] = "normal"
    grid_points: int = 257
    name: str = "parametric"

    def __post_init__(self) -> None:
        if self.probes < 1:
            raise ValueError(f"probes must be >= 1, got {self.probes}")
        if self.family not in ("normal", "exponential"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.grid_points < 3:
            raise ValueError(f"grid_points must be >= 3, got {self.grid_points}")

    def estimate(
        self, network: RingNetwork, rng: Optional[np.random.Generator] = None
    ) -> DensityEstimate:
        """Probe, fit moments, return the fitted family CDF.

        Failure conditions (empty ring, all-empty replies) come back as a
        zero-evidence degraded estimate rather than an exception.
        """
        before = network.stats.snapshot()
        try:
            replies = collect_probes(network, self.probes, self.synopsis_buckets, rng=rng)
            weights = ht_weights(replies)
        except (NetworkError, ValueError) as exc:
            return degraded_from_exception(
                exc, network.domain, before.delta(network.stats.snapshot()), self.name, self.probes
            )
        mean, variance = weighted_moments(replies, weights)

        low, high = network.domain
        domain = Domain(low, high)
        if self.family == "normal":
            fitted = TruncatedNormal(mean=mean, std=float(np.sqrt(variance)), _domain=domain)
        else:
            # Exponential: match the mean of the *untruncated* family,
            # measured from the domain's left edge.
            offset = max(mean - low, 1e-9)
            rate = domain.width / offset
            fitted = TruncatedExponential(rate=rate, _domain=domain)

        grid = domain.grid(self.grid_points)
        cdf = PiecewiseCDF(grid, np.asarray(fitted.cdf(grid), dtype=float), kind="linear")
        cost = before.delta(network.stats.snapshot())
        latency = int(replies.hops.max()) + 2
        return DensityEstimate(
            cdf=cdf,
            domain=network.domain,
            n_items=estimate_total_items(replies, network.space.size),
            n_peers=estimate_peer_count(replies, network.space.size),
            probes=len(replies),
            cost=cost,
            method=f"{self.name}-{self.family}",
            latency_rounds=float(latency),
        )

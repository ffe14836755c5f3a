"""Naive peer sampling — the biased comparator.

Identical probing machinery to the distribution-free estimator (uniform
ring positions, routed lookups, synopsis replies) but the replies are
pooled with *equal* weights.  Since a uniform ring position lands on a peer
with probability proportional to its segment length, peers owning long
segments are over-represented; whenever segment length correlates with
local data shape — which is exactly what skewed data over random peer
placement produces — the pooled estimate is biased, and no number of probes
fixes it.  This estimator is simultaneously the paper's natural strawman
and the ablation of the Horvitz–Thompson correction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from repro.core.cdf_sampling import assemble_cdf, collect_probes, estimate_peer_count
from repro.core.estimate import DensityEstimate, degraded_from_exception
from repro.ring.network import NetworkError, RingNetwork

__all__ = ["NaivePeerSamplingEstimator"]


@dataclass(frozen=True)
class NaivePeerSamplingEstimator:
    """Pool probed local CDFs with uniform weights (no bias correction)."""

    probes: int = 64
    synopsis_buckets: int = 8
    placement: Literal["uniform", "stratified"] = "uniform"
    name: str = "naive-peer-sampling"

    def __post_init__(self) -> None:
        if self.probes < 1:
            raise ValueError(f"probes must be >= 1, got {self.probes}")
        if self.synopsis_buckets < 1:
            raise ValueError(f"synopsis_buckets must be >= 1, got {self.synopsis_buckets}")

    def estimate(
        self, network: RingNetwork, rng: Optional[np.random.Generator] = None
    ) -> DensityEstimate:
        """Probe and pool unweighted.

        Failure conditions (empty ring, disconnected overlay, all-empty
        replies) come back as a zero-evidence degraded estimate rather
        than an exception.
        """
        before = network.stats.snapshot()
        try:
            replies = collect_probes(
                network, self.probes, self.synopsis_buckets, rng=rng, placement=self.placement
            )
            occupied = replies.local_count > 0
            non_empty = int(occupied.sum())
            if non_empty == 0:
                raise ValueError("all probed peers were empty; cannot estimate a distribution")
            weights = np.where(occupied, 1.0 / non_empty, 0.0)
            cdf = assemble_cdf(replies, weights, network.domain, "linear")
        except (NetworkError, ValueError) as exc:
            return degraded_from_exception(
                exc, network.domain, before.delta(network.stats.snapshot()), self.name, self.probes
            )
        cost = before.delta(network.stats.snapshot())
        latency = int(replies.hops.max()) + 2
        # Naive volume extrapolation: average probed count times peer count.
        n_peers = estimate_peer_count(replies, network.space.size)
        mean_count = float(np.mean(replies.local_count))
        return DensityEstimate(
            cdf=cdf,
            domain=network.domain,
            n_items=mean_count * n_peers,
            n_peers=n_peers,
            probes=len(replies),
            cost=cost,
            method=self.name,
            latency_rounds=float(latency),
        )

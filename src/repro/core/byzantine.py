"""Byzantine peers and estimation robustness.

Probe-based estimation trusts each reply.  A *pollution attack* exploits
that: a lying peer reports an inflated item count with its claimed mass
parked at an attacker-chosen value, dragging the Horvitz–Thompson weights
(one reply with density 100× the honest level dominates the whole
estimate).  This module implements the attacker — peers marked with a
:class:`ByzantineBehavior` fabricate their probe replies (the reply itself
is built by :func:`repro.core.synopsis.fabricate_summary`) — and the
standard statistical defense: *density trimming*, which discards replies
whose implied density is an extreme outlier against the probe batch's
median.  The F17 experiment measures both sides: how badly the attack
hurts the trusting estimator, and what the defense costs on honest skewed
data (where heavy peers are legitimately outliers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.replies import ProbeReplies
from repro.ring.network import RingNetwork

__all__ = ["ByzantineBehavior", "corrupt_network", "trim_outlier_replies"]


@dataclass(frozen=True)
class ByzantineBehavior:
    """How a lying peer fabricates its probe reply.

    Attributes
    ----------
    count_multiplier:
        Claimed item count = multiplier × true count (minimum 1, so even
        an empty attacker claims data).
    fake_mass_at:
        Domain value where the fabricated mass is claimed to sit.  When
        it falls outside the peer's segment the claim lands in the nearest
        edge bucket — exactly what a real attacker constrained to its own
        key range would do.  ``None`` keeps the true shape, only scaled.
    """

    count_multiplier: float = 100.0
    fake_mass_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.count_multiplier <= 0:
            raise ValueError(
                f"count_multiplier must be positive, got {self.count_multiplier}"
            )


def corrupt_network(
    network: RingNetwork,
    fraction: float,
    behavior: ByzantineBehavior,
    rng: Optional[np.random.Generator] = None,
) -> list[int]:
    """Mark a random ``fraction`` of peers as Byzantine; returns their ids."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    generator = rng if rng is not None else network.rng
    ids = list(network.peer_ids())
    n_liars = int(round(fraction * len(ids)))
    # Choose by index: 64-bit identifiers do not survive the float64 cast
    # numpy's choice() would apply to them directly.
    picked = generator.choice(len(ids), size=n_liars, replace=False)
    liars = [ids[int(i)] for i in picked]
    liar_set = set(liars)
    for ident in ids:
        network.node(ident).byzantine = behavior if ident in liar_set else None
    return liars


def trim_outlier_replies(
    replies: ProbeReplies,
    max_density_ratio: float = 20.0,
    neighborhood: int = 4,
) -> ProbeReplies:
    """Drop replies whose density is wildly inconsistent with their ring
    neighbourhood.

    A *global* density threshold would throw away honest heavy hitters on
    skewed data (the head of a zipf ring legitimately has densities far
    above the median).  Honest density, however, varies smoothly along the
    ring, while randomly placed liars are isolated spikes: each peer's
    latest reply is therefore compared against the **median density of the
    ``2·k`` ring-nearest other peers** (ordered by each reply's lowest
    segment value) and every reply of the peer is discarded when it
    exceeds ``max_density_ratio`` times that local reference.  Batches of
    at most two peers pass through unchanged.
    """
    if max_density_ratio <= 1.0:
        raise ValueError(f"max_density_ratio must be > 1, got {max_density_ratio}")
    if neighborhood < 1:
        raise ValueError(f"neighborhood must be >= 1, got {neighborhood}")
    unique = replies.latest()
    count = len(unique)
    if count <= 2:
        return replies
    lowest = np.full(count, np.inf)
    np.minimum.at(lowest, unique.seg_probe, unique.seg_low)
    order = np.argsort(lowest, kind="stable")
    density = unique.density[order]
    offsets = np.arange(1, neighborhood + 1)
    around = np.arange(count)[:, None] + np.stack((-offsets, offsets), axis=1).ravel()
    reference = np.median(density[around % count], axis=1)
    # An all-empty neighbourhood gives no reference; fall back to the
    # global median so a lone spike there is still caught.
    occupied = density[unique.local_count[order] > 0]
    fallback = float(np.median(occupied)) if occupied.size else 0.0
    reference = np.where(reference <= 0, fallback, reference)
    dropped = (reference > 0) & (density > max_density_ratio * reference)
    keep = ~np.isin(replies.owner, unique.owner[order][dropped])
    return replies.take(np.flatnonzero(keep))

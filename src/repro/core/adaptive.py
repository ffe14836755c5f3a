"""Adaptive two-phase probing — refinement for concentrated distributions.

Uniform-position probing struggles when most of the data mass sits in a
tiny fraction of the ring (heavy Zipf skew): the dense region is rarely
probed and its mass must be interpolated across wide gaps.  The adaptive
estimator spends its probe budget in two phases:

1. **Scout** — a fraction of the budget probes stratified positions,
   producing a coarse reconstruction whose per-gap mass estimates say
   where the unexplored mass is.
2. **Refine** — the remaining probes are allocated to gaps proportionally
   to their estimated mass (largest-remainder rounding) and placed evenly
   inside each gap.

The final estimate is rebuilt from the union of all probe evidence.  The
design is no longer one-shot unbiased (the second phase's placement depends
on the first phase's data) but it is consistent, still distribution-free,
and dramatically more accurate per probe on skewed data — the F3/F4
benchmarks quantify the gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from repro.core.backend import RingBackend
from repro.core.byzantine import trim_outlier_replies
from repro.core.cdf_sampling import (
    assemble_cdf_interpolated,
    collect_probes,
    collect_probes_at,
    estimate_peer_count,
)
from repro.core.estimate import DensityEstimate, zero_evidence_estimate
from repro.core.replies import ProbeReplies

__all__ = ["AdaptiveDensityEstimator", "allocate_refinement_probes"]


def allocate_refinement_probes(
    gap_masses: tuple[tuple[float, float, float], ...],
    budget: int,
) -> list[tuple[float, float, int]]:
    """Allocate ``budget`` probes over gaps ∝ estimated mass.

    Returns ``(gap_low, gap_high, probes)`` triples with the probe counts
    summing to exactly ``budget`` (largest-remainder apportionment); gaps
    with zero estimated mass receive nothing unless everything is zero, in
    which case the budget is spread evenly.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if not gap_masses or budget == 0:
        return []
    masses = np.asarray([m for _, _, m in gap_masses], dtype=float)
    total = masses.sum()
    if total <= 0:
        shares = np.full(len(gap_masses), budget / len(gap_masses))
    else:
        shares = budget * masses / total
    counts = np.floor(shares).astype(int)
    remainder = budget - int(counts.sum())
    if remainder > 0:
        order = np.argsort(-(shares - counts))
        counts[order[:remainder]] += 1
    return [
        (gap[0], gap[1], int(count))
        for gap, count in zip(gap_masses, counts)
        if count > 0
    ]


@dataclass(frozen=True)
class AdaptiveDensityEstimator:
    """Two-phase (scout + refine) distribution-free estimator."""

    probes: int = 64
    scout_fraction: float = 0.5
    synopsis_buckets: int = 8
    synopsis_kind: str = "equi-width"
    gap_interpolation: Literal["linear", "log"] = "linear"
    trim_density_ratio: Optional[float] = None
    name: str = "adaptive"

    def __post_init__(self) -> None:
        if self.probes < 2:
            raise ValueError(f"adaptive estimation needs >= 2 probes, got {self.probes}")
        if not 0.0 < self.scout_fraction < 1.0:
            raise ValueError(
                f"scout_fraction must be in (0, 1), got {self.scout_fraction}"
            )
        if self.synopsis_buckets < 1:
            raise ValueError(f"synopsis_buckets must be >= 1, got {self.synopsis_buckets}")

    def estimate(
        self, network: RingBackend, rng: Optional[np.random.Generator] = None
    ) -> DensityEstimate:
        """Scout with stratified probes, refine into high-mass gaps."""
        faults = network.faults
        if (faults is not None and faults.active) or network.n_peers == 0:
            # Degraded mode: adaptive refinement steers by the scout phase's
            # gap-mass map, which failed probes would silently bias (a gap
            # that *couldn't* be probed looks identical to one that is
            # empty).  Under an active fault plane the estimator therefore
            # collapses to one resilient stratified pass with the full
            # budget — same evidence volume, honest coverage reporting.
            from repro.core.estimator import DistributionFreeEstimator

            fallback = DistributionFreeEstimator(
                probes=self.probes,
                synopsis_buckets=self.synopsis_buckets,
                synopsis_kind=self.synopsis_kind,  # type: ignore[arg-type]
                placement="stratified",
                gap_interpolation=self.gap_interpolation,
                trim_density_ratio=self.trim_density_ratio,
                name=self.name,
            )
            return fallback.estimate(network, rng)
        generator = rng if rng is not None else network.rng
        before = network.stats.snapshot()

        scout_count = max(int(self.probes * self.scout_fraction), 1)
        refine_budget = self.probes - scout_count
        scout = collect_probes(
            network,
            scout_count,
            self.synopsis_buckets,
            rng=generator,
            placement="stratified",
            synopsis_kind=self.synopsis_kind,
        )
        batches = [scout]

        data_hash = network.data_hash
        targets: list[int] = []
        try:
            coarse = assemble_cdf_interpolated(
                scout, network.domain, self.gap_interpolation
            )
        except ValueError:
            # Every scouted peer was empty (tiny or extremely skewed
            # datasets).  There is no mass map to refine against, so fall
            # back to spending the rest of the budget on more stratified
            # coverage — the final reconstruction below then decides
            # whether any evidence was found at all.
            coarse = None
            if refine_budget > 0:
                batches.append(
                    collect_probes(
                        network,
                        refine_budget,
                        self.synopsis_buckets,
                        rng=generator,
                        placement="stratified",
                        synopsis_kind=self.synopsis_kind,
                    )
                )
        if coarse is not None:
            for gap_low, gap_high, count in allocate_refinement_probes(
                coarse.gap_masses, refine_budget
            ):
                # Even placement inside the gap, jittered to stay distinct.
                offsets = (np.arange(count) + generator.uniform(0, 1, size=count)) / count
                for offset in offsets:
                    value = gap_low + offset * (gap_high - gap_low)
                    targets.append(data_hash(float(value)))
        refine_latency = 0
        if targets:
            refined = collect_probes_at(
                network, targets, self.synopsis_buckets, self.synopsis_kind
            )
            batches.append(refined)
            refine_latency = int(refined.hops.max()) + 2
        evidence = ProbeReplies.concat(batches)

        if self.trim_density_ratio is not None:
            # Trim only at the end: scouting untrimmed lets a liar's
            # claimed mass *attract* refinement probes, whose honest
            # replies then expose it as an isolated density spike —
            # refinement doubles as verification.
            evidence = trim_outlier_replies(evidence, self.trim_density_ratio)

        try:
            final = assemble_cdf_interpolated(
                evidence, network.domain, self.gap_interpolation
            )
        except ValueError:
            # No probed peer carried data: degrade to the explicit
            # zero-evidence prior instead of raising.
            return zero_evidence_estimate(
                network.domain,
                before.delta(network.stats.snapshot()),
                self.name,
                self.probes,
                ("no_evidence",),
            )
        cost = before.delta(network.stats.snapshot())
        # Two sequential phases, each internally parallel.
        latency = (int(scout.hops.max()) + 2) + refine_latency
        return DensityEstimate(
            cdf=final.cdf,
            domain=network.domain,
            n_items=final.total_items,
            # Size estimation needs the *uniform* design, so only the
            # scout phase's probes feed it; refinement probes are biased
            # towards dense regions by construction.
            n_peers=estimate_peer_count(scout, network.space.size),
            probes=len(evidence),
            cost=cost,
            method=self.name,
            latency_rounds=float(latency),
        )

"""Estimator facade: the protocol and the paper's estimator.

Every estimation method in the repository — the paper's distribution-free
estimator and all four baselines — implements :class:`DensityEstimator`:
given a live network, return a :class:`~repro.core.estimate.DensityEstimate`.
Experiments treat methods uniformly through this protocol, so accuracy and
cost comparisons are apples-to-apples by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal, Optional, Protocol, runtime_checkable

import numpy as np

from repro.core.backend import RingBackend
from repro.core.byzantine import trim_outlier_replies
from repro.core.cdf_sampling import (
    assemble_cdf,
    assemble_cdf_interpolated,
    collect_probes,
    collect_probes_resilient,
    estimate_peer_count,
    estimate_total_items,
    ht_weights,
    probe_positions,
)
from repro.core.estimate import DegradedEstimate, DensityEstimate, zero_evidence_estimate
from repro.core.replies import ProbeReplies
from repro.core.robust import (
    RobustMethod,
    robust_assemble,
    validate_mom_groups,
    validate_robust_method,
    validate_trim_fraction,
    winsorize_replies,
)
from repro.ring.faults import RetryPolicy

if TYPE_CHECKING:  # runtime imports stay local to avoid module cycles
    from repro.core.cdf import PiecewiseCDF
    from repro.core.confidence import ConfidenceBand

__all__ = ["DensityEstimator", "DistributionFreeEstimator"]


@runtime_checkable
class DensityEstimator(Protocol):
    """Anything that can estimate the global data distribution.

    ``network`` is either ring backend (:data:`~repro.core.backend.RingBackend`).
    The paper's estimators accept both; the epidemic/census baselines need
    the object backend's node graph and document that narrower requirement
    themselves.
    """

    name: str

    def estimate(
        self, network: RingBackend, rng: Optional[np.random.Generator] = None
    ) -> DensityEstimate:
        """Produce an estimate against the network's current state."""
        ...


@dataclass(frozen=True)
class DistributionFreeEstimator:
    """The paper's estimator: sample the global CDF with HT-corrected probes.

    Parameters
    ----------
    probes:
        Number of ring positions to probe (``s``).  Accuracy scales as
        ``O(1/√s)``; cost scales linearly in ``s`` (each probe is one
        O(log N)-hop lookup plus a constant-size reply).
    synopsis_buckets:
        Histogram resolution ``B`` of each probe reply.  Bounds per-reply
        bandwidth; larger ``B`` sharpens the estimate *within* probed
        segments.
    placement:
        ``"uniform"`` for iid probe positions (the analysed design) or
        ``"stratified"`` for variance-reduced stratified placement.
    synopsis_kind:
        ``"equi-width"`` buckets (the classic histogram reply) or
        ``"equi-depth"`` buckets (edges at the peer's local quantiles —
        same payload, resolution that follows the data; sharper on skewed
        or atom-heavy local distributions).
    combine:
        How probe replies become the global CDF.  ``"interpolate"``
        (default) reconstructs the density — exact over probed segments,
        edge-density interpolation over gaps; lowest error per probe.
        ``"mixture"`` is the pure Horvitz–Thompson weighted mixture of
        local CDFs — design-unbiased, higher variance; kept as the
        analysable reference and as an ablation.
    interpolation:
        ``"linear"`` (uniform-within-bucket, the default) or ``"step"``
        (mass at bucket edges) assembly of local CDFs in mixture mode.
    gap_interpolation:
        Gap-mass rule in interpolate mode: ``"linear"`` (trapezoid) or
        ``"log"`` (logarithmic mean, exact for exponential density decay).
    trim_density_ratio:
        When set, replies whose implied density exceeds this multiple of
        the batch median are discarded before assembly — the pollution
        defense of :mod:`repro.core.byzantine`.  ``None`` trusts every
        reply (the default).  Must exceed 1 when set — a ratio at or below
        1 would discard every reply denser than the neighbourhood median.
    robust:
        Robust combiner over the probe replies (see :mod:`repro.core.robust`).
        ``None`` (default) is the trusting estimator.  ``"winsorized"``
        clamps over-dense replies to the batch's ``(1 - trim_fraction)``
        density quantile and then assembles normally — it transforms the
        evidence, not the weights, so it composes with either ``combine``
        mode and is the recommended hardening under order-preserving
        placement.  ``"trimmed"`` discards the ``trim_fraction``
        highest- and lowest-density replies before HT weighting;
        ``"median-of-means"`` splits the batch into ``mom_groups`` groups
        and takes the pointwise median of the per-group mixtures.  Those
        two force mixture-family assembly (the robust statistics operate
        on per-reply weights, which the interpolated reconstruction does
        not have) and ``combine`` is ignored while they are active.  All
        compose with ``trim_density_ratio``: the density trim runs first.
    trim_fraction:
        Per-side trim fraction for ``robust="trimmed"`` and the cap
        quantile for ``robust="winsorized"``; in ``[0, 0.5)``.
    mom_groups:
        Group count for ``robust="median-of-means"``; at least 1.  The
        median resists pollution only while a majority of groups is
        liar-free, so keep groups small enough that
        ``1 - (1-ε)^(probes/groups) < 1/2`` at the liar fraction ``ε`` you
        defend against — the default 16 covers ``ε ≈ 0.1`` at 64 probes.
    retry:
        Explicit :class:`~repro.ring.faults.RetryPolicy` for the probe
        lookups.  Setting it (or attaching an active fault plane to the
        network) switches estimation onto the resilient path: probes that
        fail are reported, not raised, and the result is a
        :class:`~repro.core.estimate.DegradedEstimate` carrying the
        realised coverage and a widened confidence band whenever any probe
        was lost.  ``None`` on a fault-free network is the legacy path,
        bit-identical to before this field existed.
    """

    probes: int = 64
    synopsis_buckets: int = 8
    synopsis_kind: Literal["equi-width", "equi-depth"] = "equi-width"
    placement: Literal["uniform", "stratified"] = "uniform"
    combine: Literal["interpolate", "mixture"] = "interpolate"
    interpolation: Literal["linear", "step"] = "linear"
    gap_interpolation: Literal["linear", "log"] = "linear"
    trim_density_ratio: Optional[float] = None
    robust: Optional[RobustMethod] = None
    trim_fraction: float = 0.1
    mom_groups: int = 16
    retry: Optional[RetryPolicy] = None
    name: str = "distribution-free"

    def __post_init__(self) -> None:
        if self.probes < 1:
            raise ValueError(f"probes must be >= 1, got {self.probes}")
        if self.synopsis_buckets < 1:
            raise ValueError(f"synopsis_buckets must be >= 1, got {self.synopsis_buckets}")
        if self.combine not in ("interpolate", "mixture"):
            raise ValueError(f"unknown combine mode {self.combine!r}")
        if self.trim_density_ratio is not None and self.trim_density_ratio <= 1.0:
            raise ValueError(
                f"trim_density_ratio must be > 1, got {self.trim_density_ratio}"
            )
        validate_robust_method(self.robust)
        validate_trim_fraction(self.trim_fraction)
        validate_mom_groups(self.mom_groups)

    def estimate(
        self, network: RingBackend, rng: Optional[np.random.Generator] = None
    ) -> DensityEstimate:
        """Probe the network and assemble the distribution-free estimate.

        On a fault-free network with no explicit retry policy this is the
        legacy fast path.  With faults active (or ``retry`` set) the
        resilient path runs instead, and terminal no-evidence conditions —
        an empty ring, or a ring where no probed peer carried data — come
        back as a zero-evidence :class:`DegradedEstimate` rather than an
        exception.
        """
        faults = network.faults
        if (
            self.retry is not None
            or (faults is not None and faults.active)
            or network.n_peers == 0
        ):
            return self._estimate_degraded(network, rng)
        before = network.stats.snapshot()
        replies = collect_probes(
            network,
            self.probes,
            self.synopsis_buckets,
            rng=rng,
            placement=self.placement,
            synopsis_kind=self.synopsis_kind,
        )
        evidence = replies
        if self.trim_density_ratio is not None:
            evidence = trim_outlier_replies(replies, self.trim_density_ratio)
        try:
            cdf, n_items = self._assemble(evidence, network)
        except ValueError:
            # Every probed peer was empty: no distribution to reconstruct.
            # Degrade to the explicit zero-evidence prior instead of
            # propagating the assembly error to the caller.
            return zero_evidence_estimate(
                network.domain,
                before.delta(network.stats.snapshot()),
                self.name,
                self.probes,
                ("no_evidence",),
            )
        cost = before.delta(network.stats.snapshot())
        # Probes are independent lookups a client issues concurrently:
        # the critical path is the slowest probe plus its request/reply.
        latency = int(replies.hops.max()) + 2
        return DensityEstimate(
            cdf=cdf,
            domain=network.domain,
            n_items=n_items,
            n_peers=estimate_peer_count(evidence, network.space.size),
            probes=len(evidence),
            cost=cost,
            method=self.name,
            latency_rounds=float(latency),
        )

    def _assemble(
        self, evidence: ProbeReplies, network: RingBackend
    ) -> tuple["PiecewiseCDF", float]:
        """Assemble ``(F̂, n̂)`` from probe replies per the configured policy.

        Trusting assembly (``robust=None``) reproduces the historical
        operation order exactly — both estimation paths share this body, so
        the factoring is byte-neutral.  A configured robust method routes
        to :func:`repro.core.robust.robust_assemble` instead.  Raises
        ``ValueError`` on zero usable evidence in every mode.  Every
        combiner reads the reply columns.
        """
        if self.robust == "winsorized":
            # Winsorization transforms the evidence, not the weights, so
            # it hardens whichever assembly is configured — including the
            # interpolated reconstruction the other combiners cannot use.
            evidence = winsorize_replies(evidence, self.trim_fraction)
        elif self.robust is not None:
            return robust_assemble(
                evidence,
                network.domain,
                network.space.size,
                self.robust,
                self.trim_fraction,
                self.mom_groups,
                self.interpolation,
            )
        if self.combine == "interpolate":
            reconstruction = assemble_cdf_interpolated(
                evidence, network.domain, self.gap_interpolation
            )
            return reconstruction.cdf, reconstruction.total_items
        weights = ht_weights(evidence)
        cdf = assemble_cdf(evidence, weights, network.domain, self.interpolation)
        return cdf, estimate_total_items(evidence, network.space.size)

    def _estimate_degraded(
        self, network: RingBackend, rng: Optional[np.random.Generator]
    ) -> DensityEstimate:
        """The resilient estimation path: collect what the network allows.

        Probes route under the retry policy's budgets; failures are
        tallied, the reconstruction uses the surviving replies, and the
        result reports the realised ``coverage``.  The surviving probes are
        an unbiased subsample of the iid design (faults strike positions,
        not values), so the Horvitz–Thompson machinery applies unchanged at
        the smaller sample size — only the variance grows, which the
        widened confidence band makes explicit (half-width scaled by
        ``1/sqrt(coverage)``).  With zero surviving evidence the uniform
        zero-evidence prior is returned.  Never raises on network state.
        """
        before = network.stats.snapshot()
        policy = self.retry if self.retry is not None else RetryPolicy.DEFAULT
        requested = self.probes
        if network.n_peers == 0:
            return zero_evidence_estimate(
                network.domain,
                before.delta(network.stats.snapshot()),
                self.name,
                requested,
                ("empty_ring",),
            )
        generator = rng if rng is not None else network.rng
        targets = probe_positions(
            requested, network.space.size, generator, self.placement
        )
        replies, probe_failures = collect_probes_resilient(
            network, targets, self.synopsis_buckets, self.synopsis_kind, policy
        )
        evidence = replies
        if self.trim_density_ratio is not None and len(replies):
            evidence = trim_outlier_replies(replies, self.trim_density_ratio)
        reasons = tuple(sorted({f.reason for f in probe_failures}))
        coverage = len(replies) / requested if requested else 0.0
        if not len(evidence):
            return zero_evidence_estimate(
                network.domain,
                before.delta(network.stats.snapshot()),
                self.name,
                requested,
                reasons or ("no_evidence",),
            )
        try:
            cdf, n_items = self._assemble(evidence, network)
        except ValueError:
            return zero_evidence_estimate(
                network.domain,
                before.delta(network.stats.snapshot()),
                self.name,
                requested,
                reasons + ("no_evidence",),
            )
        n_peers = estimate_peer_count(evidence, network.space.size)
        latency = float(int(replies.hops.max()) + 2)
        if not probe_failures:
            # Full coverage: the fault plane was active but every probe got
            # through — a plain (non-degraded) estimate.
            return DensityEstimate(
                cdf=cdf,
                domain=network.domain,
                n_items=n_items,
                n_peers=n_peers,
                probes=len(evidence),
                cost=before.delta(network.stats.snapshot()),
                method=self.name,
                latency_rounds=latency,
            )
        inflation = float(1.0 / np.sqrt(max(coverage, 1.0 / requested)))
        confidence = self._widened_band(evidence, network.domain, generator, inflation)
        return DegradedEstimate(
            cdf=cdf,
            domain=network.domain,
            n_items=n_items,
            n_peers=n_peers,
            probes=len(evidence),
            cost=before.delta(network.stats.snapshot()),
            method=self.name,
            latency_rounds=latency,
            coverage=coverage,
            probes_requested=requested,
            failures=reasons,
            ci_inflation=inflation,
            confidence=confidence,
        )

    def _widened_band(
        self,
        evidence: ProbeReplies,
        domain: tuple[float, float],
        rng: np.random.Generator,
        inflation: float,
    ) -> Optional[ConfidenceBand]:
        """Bootstrap band from the surviving replies, widened by ``inflation``.

        The bootstrap quantifies the variance of the realised sample; the
        inflation additionally charges for the probes that never arrived,
        centring the widened band on the bootstrap band's midline.
        """
        from repro.core.confidence import ConfidenceBand, bootstrap_confidence_band

        if len(evidence) < 2:
            return None
        try:
            band = bootstrap_confidence_band(
                evidence,
                domain,
                rng=rng,
                gap_interpolation=self.gap_interpolation,
            )
        except ValueError:
            return None
        center = 0.5 * (band.lower + band.upper)
        half = 0.5 * (band.upper - band.lower) * inflation
        return ConfidenceBand(
            grid=band.grid,
            lower=np.clip(center - half, 0.0, 1.0),
            upper=np.clip(center + half, 0.0, 1.0),
            level=band.level,
            replicates=band.replicates,
        )

"""Continuous estimation: keeping the model fresh as the data drifts.

The paper's setting is *dynamic*: data churns and peers come and go, so
any estimate goes stale.  The naive policies are "never refresh" (free,
eventually wrong) and "refresh every round" (always right, Θ(s·log N)
messages per round).  :class:`ContinuousEstimator` implements the middle
path: a cheap *drift check* — a handful of probes compared against the
current model — triggers a full re-estimate only when the evidence says
the model no longer fits.  The F11 experiment places all three policies
on the accuracy-per-message frontier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Optional

import numpy as np

from repro.core.cdf import PiecewiseCDF
from repro.core.cdf_sampling import assemble_cdf_interpolated, collect_probes
from repro.core.estimate import DensityEstimate
from repro.core.estimator import DensityEstimator, DistributionFreeEstimator
from repro.core.backend import RingBackend
from repro.ring.network import RingNetwork

__all__ = ["MaintenanceAction", "ContinuousEstimator", "drift_score_between"]


def drift_score_between(
    network: RingBackend,
    model_cdf: PiecewiseCDF,
    check_probes: int,
    synopsis_buckets: int,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Cheap KS-style discrepancy between fresh evidence and a model CDF.

    Collects ``check_probes`` probes, reconstructs a coarse CDF from them
    alone, and returns the max absolute difference to ``model_cdf`` over
    the reconstruction's breakpoints.  Expected value under no drift is
    the sampling noise of the small batch (≈ ``1/sqrt(check_probes)``);
    drift adds bias on top.  This is the drift signal shared by
    :class:`ContinuousEstimator` and the serving layer's staleness-SLO
    refresh policy (:mod:`repro.serve.policy`).
    """
    if check_probes < 1:
        raise ValueError(f"check_probes must be >= 1, got {check_probes}")
    replies = collect_probes(network, check_probes, synopsis_buckets, rng=rng)
    reconstruction = assemble_cdf_interpolated(replies, network.domain)
    grid = reconstruction.cdf.xs
    fresh = np.asarray(reconstruction.cdf(grid), dtype=float)
    model = np.asarray(model_cdf(grid), dtype=float)
    return float(np.max(np.abs(fresh - model)))


@dataclass(frozen=True)
class MaintenanceAction:
    """What one maintenance step did and what it cost."""

    action: Literal["bootstrapped", "kept", "refreshed"]
    drift_score: float
    messages: int


@dataclass
class ContinuousEstimator:
    """A self-refreshing estimate of the global distribution.

    Parameters
    ----------
    estimator:
        The full estimator used for (re-)estimation.
    drift_threshold:
        KS-style discrepancy between a cheap probe batch and the current
        model above which a refresh is triggered.  The check statistic is
        noisy at small ``check_probes``; thresholds around 2-3x the
        expected sampling noise (≈ ``1/sqrt(check_probes)``) work well.
    check_probes:
        Size of the drift-check batch (a small fraction of the full
        budget).
    """

    estimator: DensityEstimator = field(default_factory=DistributionFreeEstimator)
    drift_threshold: float = 0.15
    check_probes: int = 8
    synopsis_buckets: int = 8
    _current: Optional[DensityEstimate] = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.drift_threshold <= 0:
            raise ValueError(f"drift_threshold must be positive, got {self.drift_threshold}")
        if self.check_probes < 1:
            raise ValueError(f"check_probes must be >= 1, got {self.check_probes}")

    @property
    def current(self) -> Optional[DensityEstimate]:
        """The model currently served (None before the first maintain)."""
        return self._current

    def refresh(
        self, network: RingNetwork, rng: Optional[np.random.Generator] = None
    ) -> DensityEstimate:
        """Force a full re-estimate."""
        self._current = self.estimator.estimate(network, rng=rng)
        return self._current

    def drift_score(
        self, network: RingNetwork, rng: Optional[np.random.Generator] = None
    ) -> float:
        """Cheap discrepancy between fresh evidence and the current model.

        Collects ``check_probes`` probes, reconstructs a coarse CDF from
        them alone, and returns the KS distance to the current model over
        the probed segments' breakpoints.  Expected value under no drift
        is the sampling noise of the small batch; drift adds bias on top.
        """
        if self._current is None:
            raise RuntimeError("no current estimate; call refresh() or maintain() first")
        return drift_score_between(
            network,
            self._current.cdf,
            self.check_probes,
            self.synopsis_buckets,
            rng=rng,
        )

    def maintain(
        self, network: RingNetwork, rng: Optional[np.random.Generator] = None
    ) -> MaintenanceAction:
        """One maintenance step: check drift, refresh if needed."""
        before = network.stats.messages
        if self._current is None:
            self.refresh(network, rng=rng)
            return MaintenanceAction(
                action="bootstrapped",
                drift_score=float("inf"),
                messages=network.stats.messages - before,
            )
        score = self.drift_score(network, rng=rng)
        if score > self.drift_threshold:
            self.refresh(network, rng=rng)
            action: Literal["kept", "refreshed"] = "refreshed"
        else:
            action = "kept"
        return MaintenanceAction(
            action=action,
            drift_score=score,
            messages=network.stats.messages - before,
        )

"""Staleness-SLO refresh policy: re-estimate on evidence, not on a timer.

The naive serving policies are the same two extremes the tracking module
names for maintenance: never refresh (free, eventually wrong) and refresh
per query batch (always right, ruinously expensive).  The serving layer
instead promises an **accuracy SLO** — "the served estimate's error stays
within ``max_error``" — and spends network messages only when the
evidence says the promise is at risk:

1. While the network's version token has not moved since the estimate was
   built, the estimate is exact-fresh: serve, zero cost.
2. When the token has moved, *predict* the staleness error from the
   observed drift rate per version bump (an EWMA learned from past drift
   checks).  Below the SLO: keep serving the stale estimate — this is
   where refresh cost is amortized across queries.
3. Above the SLO (or with no rate learned yet): run a cheap drift check
   (``check_probes`` probes, the :func:`repro.core.tracking.drift_score_between`
   signal).  The measured score updates the rate; only a score above the
   refresh threshold triggers the full re-estimate.

Every decision is returned as a :class:`RefreshDecision` so the service
can account messages and actions per batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, Optional

__all__ = ["StalenessSLO", "RefreshDecision", "AdaptiveRefreshPolicy"]

#: What one pre-batch policy consultation concluded.
RefreshAction = Literal[
    "bootstrapped",    # no estimate yet: full estimate required
    "served_fresh",    # version token unchanged: estimate is exact
    "served_stale",    # token moved, predicted error within SLO
    "checked_kept",    # drift check ran, measured drift within threshold
    "refresh",         # drift check (or unknown rate) demanded a re-estimate
]


@dataclass(frozen=True)
class StalenessSLO:
    """The accuracy promise the serving layer maintains.

    Parameters
    ----------
    max_error:
        KS-style error bound (max absolute CDF discrepancy) the served
        estimate should stay within.  Must leave headroom above the
        estimator's own zero-staleness error (≈ ``O(1/sqrt(probes))``) or
        every drift check will demand a refresh.
    check_probes:
        Probe count of one drift check — the cheap network touch that
        stands between "predicted stale" and "full re-estimate".
    min_coverage:
        Refresh results with probe coverage below this are treated as
        failed refreshes: the service keeps serving the previous estimate
        (degraded fallthrough) rather than adopting a worse model.
    """

    max_error: float = 0.1
    check_probes: int = 16
    min_coverage: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.max_error <= 1.0:
            raise ValueError(f"max_error must be in (0, 1], got {self.max_error}")
        if self.check_probes < 1:
            raise ValueError(f"check_probes must be >= 1, got {self.check_probes}")
        if not 0.0 <= self.min_coverage <= 1.0:
            raise ValueError(
                f"min_coverage must be in [0, 1], got {self.min_coverage}"
            )


@dataclass(frozen=True)
class RefreshDecision:
    """One policy consultation: what to do and why."""

    action: RefreshAction
    predicted_error: float   # staleness error predicted before any probing
    bumps: int               # version bumps since the decision's base point


@dataclass
class AdaptiveRefreshPolicy:
    """Predicts staleness error from version-bump drift rates.

    The predictor is deliberately simple and conservative: staleness error
    is modelled as ``base_error + rate · bumps`` where ``bumps`` counts
    version-token increments since the last *measurement* (refresh or
    drift check), ``base_error`` is what that measurement established, and
    ``rate`` is an EWMA of observed drift-per-bump.  An unknown rate
    predicts infinity — the first staleness is always checked, never
    trusted.

    Parameters
    ----------
    slo:
        The accuracy promise (also carries the drift-check budget).
    ewma:
        Weight of the newest drift-rate observation (1.0 = always trust
        the latest check only).
    rate_floor:
        Lower bound on the learned rate, so a lucky near-zero drift check
        cannot switch prediction off permanently.
    """

    slo: StalenessSLO = field(default_factory=StalenessSLO)
    ewma: float = 0.5
    rate_floor: float = 1e-6
    _rate: Optional[float] = field(init=False, default=None)
    _base_error: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        if not 0.0 < self.ewma <= 1.0:
            raise ValueError(f"ewma must be in (0, 1], got {self.ewma}")
        if self.rate_floor < 0:
            raise ValueError(f"rate_floor must be >= 0, got {self.rate_floor}")

    def predicted_error(self, bumps: int) -> float:
        """Predicted staleness error after ``bumps`` version increments."""
        if bumps <= 0:
            return self._base_error
        if self._rate is None:
            return math.inf
        return self._base_error + self._rate * bumps

    def decide(self, bumps: int) -> RefreshDecision:
        """Serve stale, or escalate to a drift check?

        ``bumps`` counts version increments since the policy's base point
        (the last refresh or drift check).  Returns ``served_fresh`` /
        ``served_stale`` when no network touch is needed and ``refresh``
        when a drift check is warranted — the caller runs the check and
        reports its score through :meth:`observe_check`.
        """
        if bumps <= 0:
            return RefreshDecision("served_fresh", self._base_error, bumps)
        predicted = self.predicted_error(bumps)
        if predicted <= self.slo.max_error:
            return RefreshDecision("served_stale", predicted, bumps)
        return RefreshDecision("refresh", predicted, bumps)

    def observe_check(self, bumps: int, drift_score: float) -> bool:
        """Record one drift check; returns ``True`` when a refresh is due.

        The measured score re-bases the error model (the check is the
        freshest evidence of where the served estimate stands) and updates
        the drift rate.  A score above ``slo.max_error`` demands the full
        re-estimate.
        """
        if bumps > 0:
            observed_rate = max(drift_score / bumps, self.rate_floor)
            if self._rate is None:
                self._rate = observed_rate
            else:
                self._rate = (1.0 - self.ewma) * self._rate + self.ewma * observed_rate
        refresh = drift_score > self.slo.max_error
        if not refresh:
            # Kept: the measured discrepancy is the new staleness base.
            self._base_error = drift_score
        return refresh

    def observe_refresh(self) -> None:
        """Re-base after a successful full re-estimate (zero staleness)."""
        self._base_error = 0.0

"""Robust aggregation of probe replies: bounding any one liar's influence.

The Horvitz–Thompson mixture trusts every reply: weights are proportional
to claimed density ``c_p / ℓ_p``, so one peer claiming a 100× count drags
most of the estimate's mass to wherever it parked the lie (the pollution
attack of :mod:`repro.core.byzantine`).  The neighbourhood density trim
(:func:`~repro.core.byzantine.trim_outlier_replies`) catches *isolated*
spikes; this module adds the classical statistical hardening that needs no
topology assumption at all:

* **Trimmed weighting** — rank replies by claimed density and discard the
  top and bottom ``trim_fraction`` of the batch before weighting.  With
  ``k`` probes trimmed per side, any coalition of up to ``k`` liars is
  removed outright no matter how large its claimed counts; the cost is
  the (bounded, measurable) bias of dropping the honest tails.
* **Winsorized evidence** — clamp any reply whose implied density
  exceeds the batch's ``(1 - trim_fraction)`` density quantile by
  scaling its claimed counts down to the cap.  A liar's influence is
  clamped to that of an ordinary dense honest reply, but no evidence is
  ever dropped and the reply batch stays a valid batch — so this
  combiner composes with *any* assembly, including the interpolated
  reconstruction the other combiners cannot harden.
* **Median-of-means CDF** — split the probe batch into ``groups``
  disjoint sub-batches, assemble the HT mixture independently per group,
  and take the *pointwise median* across the group CDFs.  A liar can
  dominate only its own group; as long as a strict majority of groups is
  liar-free, the median curve tracks the honest estimate.  The same
  grouping gives the standard median-of-means estimate of the total item
  count.

Which combiner is sound depends on the *placement*.  Under hashed
placement honest densities are homogeneous, so rank statistics (trim,
median-of-means) separate liars cleanly.  Under the repo's
order-preserving placement honest density legitimately tracks data
density — on skewed data the densest honest reply carries most of the
HT weight, and trimming or group-splitting it away erases the
distribution's centre.  Winsorization is the combiner that survives
skew: it bounds influence without discarding the informative replies.

All combiners consume exactly the evidence the probe path already
collects — no extra messages — and compose with the density trim (trim
first, then combine robustly).  They are wired into
:class:`~repro.core.estimator.DistributionFreeEstimator` through its
``robust`` field; the F20 experiment measures them against the trusting
estimator and the epidemic Spectra estimator under combined fault and
pollution attack schedules.
"""

from __future__ import annotations

import dataclasses
from typing import Literal, Optional, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.core.cdf import PiecewiseCDF
from repro.core.cdf_sampling import assemble_cdf, estimate_total_items, ht_weights
from repro.core.replies import ProbeReplies

__all__ = [
    "RobustMethod",
    "MOM_GRID_POINTS",
    "validate_trim_fraction",
    "validate_mom_groups",
    "validate_robust_method",
    "trimmed_ht_weights",
    "winsorize_replies",
    "median_of_means_cdf",
    "robust_assemble",
]

RobustMethod = Literal["trimmed", "winsorized", "median-of-means"]

#: Evaluation grid resolution of the median-of-means CDF.  The pointwise
#: median of piecewise-linear group CDFs is itself piecewise linear only
#: between curve crossings, so the combined estimate is represented on a
#: fixed grid; 513 points keeps the discretisation error well below the
#: sampling error at every probe budget the experiments use.
MOM_GRID_POINTS = 513


def validate_trim_fraction(value: float) -> float:
    """A per-side trim fraction must leave a non-empty middle: ``[0, 0.5)``."""
    if not 0.0 <= value < 0.5:
        raise ValueError(f"trim_fraction must be in [0, 0.5), got {value}")
    return float(value)


def validate_mom_groups(value: int) -> int:
    """Median-of-means needs at least one group (3+ for any robustness)."""
    if value < 1:
        raise ValueError(f"mom_groups must be >= 1, got {value}")
    return int(value)


def trimmed_ht_weights(
    replies: ProbeReplies, trim_fraction: float
) -> Tuple[NDArray[np.float64], NDArray[np.bool_]]:
    """Horvitz–Thompson weights after symmetric density-rank trimming.

    The ``ceil(trim_fraction * s)`` highest-density and lowest-density
    replies get weight zero; surviving weights are renormalised.  Ranking
    uses a stable sort on density, so ties break by batch position — a
    pure function of the reply batch.  Returns ``(weights, kept)`` where
    ``kept`` marks the replies that survived the trim.

    Raises ``ValueError`` when trimming leaves no reply with data — the
    caller's existing no-evidence degradation handles it.
    """
    validate_trim_fraction(trim_fraction)
    if not len(replies):
        raise ValueError("need at least one probe summary")
    densities = replies.density
    count = densities.size
    per_side = int(np.ceil(trim_fraction * count)) if trim_fraction > 0.0 else 0
    kept = np.ones(count, dtype=bool)
    if per_side > 0 and 2 * per_side < count:
        order = np.argsort(densities, kind="stable")
        kept[order[:per_side]] = False
        kept[order[count - per_side:]] = False
    weights = np.where(kept, densities, 0.0)
    total = float(weights.sum())
    if total <= 0.0:
        raise ValueError("all probe evidence was trimmed away or empty")
    return weights / total, kept


def winsorize_replies(replies: ProbeReplies, trim_fraction: float) -> ProbeReplies:
    """Clamp over-dense replies to the batch's upper density quantile.

    A reply whose implied density ``c_p / ℓ_p`` exceeds the
    ``(1 - trim_fraction)`` quantile of the batch densities has its
    claimed counts scaled down (deterministic round-half-up per bucket)
    so its density lands at the cap; all other replies pass through
    untouched.  The most any single reply — honest or lying — can then
    pull is the pull of an ordinary dense reply, no evidence is
    discarded, and the result is a valid reply batch that any assembly
    (mixture or interpolated reconstruction) consumes unchanged.

    Raises ``ValueError`` on an empty batch.
    """
    validate_trim_fraction(trim_fraction)
    if not len(replies):
        raise ValueError("need at least one probe summary")
    if trim_fraction <= 0.0:
        return replies
    densities = replies.density
    cap = float(np.quantile(densities, 1.0 - trim_fraction))
    clamped = (densities > cap) & (densities > 0.0)
    if not clamped.any():
        return replies
    rows = clamped[replies.seg_probe]
    factor = cap / densities[replies.seg_probe[rows]]
    counts = replies.seg_counts.copy()
    counts[rows] = np.floor(counts[rows] * factor[:, None] + 0.5).astype(np.int64)
    local_count = np.zeros(len(replies), dtype=np.int64)
    np.add.at(local_count, replies.seg_probe, counts.sum(axis=1))
    return dataclasses.replace(replies, seg_counts=counts, local_count=local_count)


def _group_slices(count: int, groups: int) -> list[NDArray[np.intp]]:
    """Deterministic round-robin partition of ``range(count)`` into groups.

    Probe replies arrive in iid order, so contiguous striding is as good a
    random split as any and a pure function of the batch — no RNG draw,
    hence no perturbation of any existing stream.
    """
    effective = min(groups, count)
    return [np.arange(start, count, effective, dtype=np.intp) for start in range(effective)]


def median_of_means_cdf(
    replies: ProbeReplies,
    domain: tuple[float, float],
    groups: int,
    interpolation: Literal["linear", "step"] = "linear",
    grid_points: int = MOM_GRID_POINTS,
) -> Tuple[PiecewiseCDF, float]:
    """Pointwise-median CDF across disjoint probe groups, plus robust ``n̂``.

    Each group assembles its own HT mixture (groups where every reply is
    empty contribute nothing); the estimate is the pointwise median of the
    group CDFs on a fixed domain grid, and ``n̂`` is the median of the
    per-group mean-density estimates.  The median of non-decreasing
    functions is non-decreasing, and every group CDF is pinned to 0/1 at
    the domain edges, so the result is a valid CDF by construction.

    Raises ``ValueError`` when no group carries any data.
    """
    validate_mom_groups(groups)
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    if not len(replies):
        raise ValueError("need at least one probe summary")
    low, high = domain
    grid = np.linspace(low, high, grid_points)
    curves: list[NDArray[np.float64]] = []
    totals: list[float] = []
    for indices in _group_slices(len(replies), groups):
        group = replies.take(indices)
        try:
            weights = ht_weights(group)
        except ValueError:
            # Every reply in this group was empty: no evidence, no vote.
            continue
        cdf = assemble_cdf(group, weights, domain, interpolation)
        curves.append(np.asarray(cdf(grid), dtype=float))
        totals.append(np.mean(group.density))
    if not curves:
        raise ValueError("all probed peers were empty; cannot estimate a distribution")
    stacked = np.stack(curves, axis=0)
    median_curve = np.median(stacked, axis=0)
    # Guard the construction invariants against float round-off only; the
    # median of monotone 0-to-1 curves is already monotone and pinned.
    median_curve = np.maximum.accumulate(np.clip(median_curve, 0.0, 1.0))
    median_curve[0] = 0.0
    median_curve[-1] = 1.0
    ring_units = float(np.median(np.asarray(totals, dtype=float)))
    return PiecewiseCDF(grid, median_curve, kind="linear"), ring_units


def robust_assemble(
    replies: ProbeReplies,
    domain: tuple[float, float],
    ring_size: int,
    method: RobustMethod,
    trim_fraction: float,
    mom_groups: int,
    interpolation: Literal["linear", "step"] = "linear",
) -> Tuple[PiecewiseCDF, float]:
    """Assemble ``(F̂, n̂)`` from probe replies with a robust combiner.

    The robust combiners operate on Horvitz–Thompson weights, so assembly
    is always the mixture family (the interpolated reconstruction has no
    per-reply weight to harden — its pollution defense is the density
    trim, which composes with this path by running first).  The trimmed
    ``n̂`` is the mean density of the replies the trim kept, which bounds
    a liar's pull on ``n̂`` as the trimmed weights bound it on ``F̂``.

    Raises ``ValueError`` on zero surviving evidence; callers map that to
    their zero-evidence degraded estimate exactly as the trusting path
    does.
    """
    if method == "trimmed":
        weights, kept = trimmed_ht_weights(replies, trim_fraction)
        cdf = assemble_cdf(replies, weights, domain, interpolation)
        return cdf, estimate_total_items(replies.take(np.flatnonzero(kept)), ring_size)
    if method == "winsorized":
        clamped = winsorize_replies(replies, trim_fraction)
        weights = ht_weights(clamped)
        cdf = assemble_cdf(clamped, weights, domain, interpolation)
        return cdf, estimate_total_items(clamped, ring_size)
    if method == "median-of-means":
        cdf, ring_units = median_of_means_cdf(
            replies, domain, mom_groups, interpolation
        )
        return cdf, float(ring_size) * ring_units
    raise ValueError(f"unknown robust method {method!r}")


def validate_robust_method(method: Optional[str]) -> Optional[RobustMethod]:
    """Validate an estimator's ``robust`` field (``None`` = trusting)."""
    if method is None:
        return None
    if method not in ("trimmed", "winsorized", "median-of-means"):
        raise ValueError(
            f"unknown robust method {method!r}; "
            "known: 'trimmed', 'winsorized', 'median-of-means'"
        )
    return method  # type: ignore[return-value]

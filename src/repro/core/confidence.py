"""Bootstrap confidence bands for the estimated global CDF.

A point estimate of ``F`` is often not enough: a load balancer deciding
whether to migrate peers, or a query router choosing an execution plan,
wants to know how much to trust it.  Because the probe design is iid
(uniform ring positions), the nonparametric bootstrap applies directly:
resample the probe replies with replacement, rebuild the reconstruction
for each replicate, and take pointwise quantiles.  The band is computed
entirely client-side from evidence already collected — zero extra network
cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal, Optional

import numpy as np
from numpy.typing import NDArray

from repro.core.cdf_sampling import (
    SegmentTable,
    assemble_cdf_interpolated,
    assemble_rows,
    collect_probes,
    estimate_peer_count,
)
from repro.core.estimate import DensityEstimate
from repro.core.replies import ProbeReplies
from repro.ring.network import RingNetwork

__all__ = ["ConfidenceBand", "bootstrap_confidence_band", "estimate_with_confidence"]

# Cells per (rows x slots) matrix in one kernel call of the bootstrap.
_KERNEL_CELLS = 1 << 16


@dataclass(frozen=True)
class ConfidenceBand:
    """A pointwise bootstrap band around an estimated CDF."""

    grid: NDArray[np.float64]
    lower: NDArray[np.float64]
    upper: NDArray[np.float64]
    level: float
    replicates: int

    def __post_init__(self) -> None:
        if not (self.grid.shape == self.lower.shape == self.upper.shape):
            raise ValueError("grid/lower/upper must have equal shape")
        if np.any(self.lower > self.upper + 1e-12):
            raise ValueError("band is inverted (lower > upper)")

    @property
    def mean_width(self) -> float:
        """Average vertical width of the band — a scalar uncertainty
        summary (shrinks as ``O(1/sqrt(probes))``)."""
        return float(np.mean(self.upper - self.lower))

    def coverage_of(self, truth: Callable[[NDArray[np.float64]], NDArray[np.float64]]) -> float:
        """Fraction of grid points where a reference CDF lies in the band."""
        values = np.asarray(truth(self.grid), dtype=float)
        inside = (values >= self.lower - 1e-12) & (values <= self.upper + 1e-12)
        return float(np.mean(inside))


def bootstrap_confidence_band(
    replies: ProbeReplies,
    domain: tuple[float, float],
    level: float = 0.9,
    replicates: int = 200,
    grid_points: int = 128,
    rng: Optional[np.random.Generator] = None,
    gap_interpolation: Literal["linear", "log"] = "linear",
) -> ConfidenceBand:
    """Pointwise bootstrap band from probe evidence.

    ``replies`` must be the raw probe replies *with* repetitions — the
    bootstrap resamples the probe design, so collapsing duplicates first
    would understate the variance.

    Each replicate draws ``len(replies)`` replies with replacement and is
    reconstructed exactly as :func:`assemble_cdf_interpolated` would
    reconstruct that resample.  A replicate that cannot be reconstructed
    (every drawn peer was empty) is not redrawn: it copies the previous
    replicate's curve, or is all zeros when it is the first replicate.

    All replicates run through the columnar kernel at once: the segment
    table is built once from the reply batch, each replicate is one row of
    a chosen-segment mask, and only the final grid interpolation runs per
    replicate.
    """
    if not len(replies):
        raise ValueError("need at least one probe summary")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    if replicates < 2:
        raise ValueError(f"need at least 2 bootstrap replicates, got {replicates}")
    # Seeded default: bands quoted without an explicit generator must
    # still be identical run to run.
    generator = rng if rng is not None else np.random.default_rng(0)
    low, high = domain
    grid = np.linspace(low, high, grid_points)

    count = len(replies)
    # One (replicates, count) draw: the same stream as one size-``count``
    # draw per replicate.
    picks = generator.integers(0, count, size=(replicates, count))
    table, chosen, order = _replicate_rows(replies, picks)

    curves = np.zeros((replicates, grid_points))
    failed = np.zeros(replicates, dtype=bool)
    # Bound the transient (rows x slots) matrices of one kernel call.
    slots = (table.size + 2) * (table.counts.shape[1] + 1)
    block = max(1, _KERNEL_CELLS // slots)
    for start in range(0, replicates, block):
        stop = min(start + block, replicates)
        rows = assemble_rows(
            table,
            chosen[start:stop],
            domain,
            gap_interpolation,
            None if order is None else order[start:stop],
        )
        bad = (rows.total <= 0) | ~rows.increasing
        failed[start:stop] = bad
        # The kernel's masses never decrease, so ``cum / total`` is already
        # a valid CDF row (the clip and running maximum a PiecewiseCDF
        # applies leave it unchanged).
        total = np.where(bad, 1.0, rows.total)
        fs = rows.cum / np.repeat(total, np.diff(rows.bounds))
        bounds = rows.bounds.tolist()
        for offset, rep in enumerate(range(start, stop)):
            if not bad[offset]:
                begin, end = bounds[offset], bounds[offset + 1]
                curves[rep] = np.interp(
                    grid, rows.xs[begin:end], fs[begin:end], left=0.0, right=float(fs[end - 1])
                )
    if failed.any():
        source = np.maximum.accumulate(np.where(failed, -1, np.arange(replicates)))
        curves = np.where(
            (source >= 0)[:, None], curves[np.maximum(source, 0)], 0.0
        )

    alpha = (1.0 - level) / 2.0
    lower = np.quantile(curves, alpha, axis=0)
    upper = np.quantile(curves, 1.0 - alpha, axis=0)
    # A CDF band can be tightened for free with the trivial bounds.
    lower = np.clip(np.maximum.accumulate(lower), 0.0, 1.0)
    upper = np.clip(np.maximum.accumulate(upper), 0.0, 1.0)
    return ConfidenceBand(
        grid=grid, lower=lower, upper=upper, level=level, replicates=replicates
    )


def _replicate_rows(
    replies: ProbeReplies, picks: NDArray[np.int64]
) -> tuple[SegmentTable, NDArray[np.bool_], Optional[NDArray[np.intp]]]:
    """Segment table, chosen-segment mask and tie order of every replicate.

    The table covers every probe's segments.  Replicate ``r`` reconstructs
    the resample ``replies[picks[r]]``, which keeps each peer's reply from
    its *last* draw and orders segments that share a ``value_low`` by the
    peer's *first* draw — the semantics of :func:`assemble_cdf_interpolated`.
    The per-row ``order`` is only needed (and only returned) when segments
    of different peers tie on ``value_low``.
    """
    _, probe_peer = np.unique(replies.owner, return_inverse=True)
    n_peers = int(probe_peer.max()) + 1
    table = SegmentTable.from_replies(replies)

    n_rows, count = picks.shape
    row = np.arange(n_rows)[:, None]
    position = np.broadcast_to(np.arange(count), picks.shape)
    drawn_peer = probe_peer[picks]
    # A peer's last draw in a replicate is the reply its reconstruction keeps.
    last = np.full((n_rows, n_peers), -1)
    np.maximum.at(last, (row, drawn_peer), position)
    hit_row, hit_peer = np.nonzero(last >= 0)
    chosen_probe = np.zeros((n_rows, count), dtype=bool)
    chosen_probe[hit_row, picks[hit_row, last[hit_row, hit_peer]]] = True
    chosen = chosen_probe[:, table.owner]

    segment_peer = probe_peer[table.owner]
    lows = table.low.tolist()
    if len(set(zip(lows, segment_peer.tolist()))) == len(set(lows)):
        return table, chosen, None
    first = np.full((n_rows, n_peers), count)
    np.minimum.at(first, (row, drawn_peer), position)
    shape = chosen.shape
    order = np.lexsort(
        (
            np.broadcast_to(table.rank, shape),
            first[:, segment_peer],
            np.broadcast_to(table.low, shape),
        ),
        axis=-1,
    )
    return table, chosen, order


def estimate_with_confidence(
    network: RingNetwork,
    probes: int = 64,
    synopsis_buckets: int = 8,
    level: float = 0.9,
    replicates: int = 200,
    rng: Optional[np.random.Generator] = None,
) -> tuple[DensityEstimate, ConfidenceBand]:
    """One probing pass that yields both the estimate and its band.

    Probes once (same cost as a plain estimate) and reuses the replies for
    both the point reconstruction and the bootstrap.
    """
    generator = rng if rng is not None else network.rng
    before = network.stats.snapshot()
    replies = collect_probes(network, probes, synopsis_buckets, rng=generator)
    reconstruction = assemble_cdf_interpolated(replies, network.domain)
    cost = before.delta(network.stats.snapshot())
    estimate = DensityEstimate(
        cdf=reconstruction.cdf,
        domain=network.domain,
        n_items=reconstruction.total_items,
        n_peers=estimate_peer_count(replies, network.space.size),
        probes=len(replies),
        cost=cost,
        method="distribution-free+band",
    )
    band = bootstrap_confidence_band(
        replies,
        network.domain,
        level=level,
        replicates=replicates,
        rng=generator,
    )
    return estimate, band

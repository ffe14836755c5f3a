"""Scalar reference implementations of CDF reconstruction and its bootstrap.

These are the per-segment Python loops that the columnar kernel in
:mod:`repro.core.cdf_sampling` replaced.  They define the semantics the
kernel must reproduce bit for bit: breakpoints, cumulative masses, gap
masses, and (for the bootstrap) the generator's stream.  They live here,
as test oracles only.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.cdf import PiecewiseCDF
from repro.core.cdf_sampling import InterpolatedReconstruction
from repro.core.synopsis import PeerSummary, SegmentSummary


def gap_mass(d_left: float, d_right: float, width: float, mode: str) -> float:
    """Estimated item mass of an unprobed gap from its edge densities.

    ``linear`` uses the trapezoid rule; ``log`` uses the logarithmic mean.
    """
    if width <= 0:
        return 0.0
    if mode == "linear" or d_left <= 0 or d_right <= 0:
        return 0.5 * (d_left + d_right) * width
    if mode != "log":
        raise ValueError(f"unknown gap interpolation mode {mode!r}")
    log_ratio = np.log(d_right / d_left)
    if abs(log_ratio) < 1e-9:
        return d_left * width
    return width * (d_right - d_left) / log_ratio


def edge_densities(seg: SegmentSummary) -> tuple[float, float]:
    """Densities at both edges of a segment (outermost positive-width bucket)."""
    edges = seg.bucket_edges()
    pair = []
    for indices in (range(seg.buckets), range(seg.buckets - 1, -1, -1)):
        density = None
        for index in indices:
            width = float(edges[index + 1] - edges[index])
            if width > 0:
                density = float(seg.counts[index]) / width
                break
        if density is None:
            span = seg.value_high - seg.value_low
            density = float(seg.total) / span if span > 0 else 0.0
        pair.append(density)
    return (pair[0], pair[1])


def reference_assemble(
    summaries: Sequence[PeerSummary],
    domain: tuple[float, float],
    gap_interpolation: str = "linear",
) -> InterpolatedReconstruction:
    """The scalar per-segment reconstruction loop."""
    if gap_interpolation not in ("linear", "log"):
        raise ValueError(f"unknown gap interpolation mode {gap_interpolation!r}")
    unique: dict[int, PeerSummary] = {}
    for summary in summaries:
        unique[summary.peer_id] = summary
    segments = sorted(
        (seg for s in unique.values() for seg in s.segments),
        key=lambda seg: seg.value_low,
    )
    if not segments:
        raise ValueError("no probe evidence to reconstruct from")
    low, high = domain

    xs: list[float] = [low]
    deltas: list[float] = [0.0]
    gaps: list[tuple[float, float, float]] = []

    lead_gap = segments[0].value_low - low
    trail_gap = high - segments[-1].value_high
    wrap_width = max(lead_gap, 0.0) + max(trail_gap, 0.0)
    d_wrap_left = edge_densities(segments[-1])[1]
    d_wrap_right = edge_densities(segments[0])[0]
    wrap_mass = gap_mass(d_wrap_left, d_wrap_right, wrap_width, gap_interpolation)

    if lead_gap > 0:
        share = lead_gap / wrap_width if wrap_width > 0 else 0.0
        lead_mass = wrap_mass * share
        xs.append(segments[0].value_low)
        deltas.append(lead_mass)
        gaps.append((low, segments[0].value_low, lead_mass))

    prev_end = segments[0].value_low
    prev_density = None
    for seg in segments:
        d_left, d_right = edge_densities(seg)
        if seg.value_low > prev_end and prev_density is not None:
            width = seg.value_low - prev_end
            mass = gap_mass(prev_density, d_left, width, gap_interpolation)
            xs.append(seg.value_low)
            deltas.append(mass)
            gaps.append((prev_end, seg.value_low, mass))
        xs.extend(seg.bucket_edges()[1:].astype(float).tolist())
        deltas.extend(seg.counts.astype(float).tolist())
        prev_end = max(prev_end, seg.value_high)
        prev_density = d_right

    if trail_gap > 0:
        share = trail_gap / wrap_width if wrap_width > 0 else 0.0
        trail_mass = wrap_mass * share
        xs.append(high)
        deltas.append(trail_mass)
        gaps.append((segments[-1].value_high, high, trail_mass))

    xs_arr = np.asarray(xs, dtype=float)
    cum_arr = np.add.accumulate(np.asarray(deltas, dtype=float))
    keep = np.concatenate((np.diff(xs_arr) > 0, [True]))
    xs_arr, cum_arr = xs_arr[keep], np.maximum.accumulate(cum_arr[keep])
    total = float(cum_arr[-1])
    if total <= 0:
        raise ValueError("all probed peers were empty; cannot estimate a distribution")
    cdf = PiecewiseCDF(xs_arr, cum_arr / total, kind="linear")
    return InterpolatedReconstruction(
        cdf=cdf, total_items=total, gap_masses=tuple(gaps)
    )


def reference_bootstrap_curves(
    summaries: Sequence[PeerSummary],
    domain: tuple[float, float],
    replicates: int,
    grid_points: int,
    generator: np.random.Generator,
    gap_interpolation: str = "linear",
) -> np.ndarray:
    """Per-replicate bootstrap curves: one draw and one assembly per replicate.

    A replicate that cannot be reconstructed copies the previous curve
    (zeros at replicate 0).
    """
    low, high = domain
    grid = np.linspace(low, high, grid_points)
    curves = np.empty((replicates, grid_points))
    count = len(summaries)
    for rep in range(replicates):
        picks = generator.integers(0, count, size=count)
        resampled = [summaries[int(i)] for i in picks]
        try:
            reconstruction = reference_assemble(resampled, domain, gap_interpolation)
        except ValueError:
            curves[rep] = curves[rep - 1] if rep else 0.0
            continue
        curves[rep] = np.asarray(reconstruction.cdf(grid), dtype=float)
    return curves


def reference_band(
    summaries: Sequence[PeerSummary],
    domain: tuple[float, float],
    level: float = 0.9,
    replicates: int = 200,
    grid_points: int = 128,
    rng: Optional[np.random.Generator] = None,
    gap_interpolation: str = "linear",
) -> tuple[np.ndarray, np.ndarray]:
    """``(lower, upper)`` of the band the scalar loop produces."""
    generator = rng if rng is not None else np.random.default_rng(0)
    curves = reference_bootstrap_curves(
        summaries, domain, replicates, grid_points, generator, gap_interpolation
    )
    alpha = (1.0 - level) / 2.0
    lower = np.quantile(curves, alpha, axis=0)
    upper = np.quantile(curves, 1.0 - alpha, axis=0)
    lower = np.clip(np.maximum.accumulate(lower), 0.0, 1.0)
    upper = np.clip(np.maximum.accumulate(upper), 0.0, 1.0)
    return lower, upper


def peer_summary(
    peer_id: int, ranges: Sequence[tuple[float, float]], counts: Sequence[Sequence[int]]
) -> PeerSummary:
    """A hand-built reply: one equi-width segment per ``(low, high)`` range."""
    segments = tuple(
        SegmentSummary.equi_width(low, high, np.asarray(c, dtype=np.int64))
        for (low, high), c in zip(ranges, counts)
    )
    return PeerSummary(
        peer_id=peer_id,
        segment_length=10,
        local_count=sum(seg.total for seg in segments),
        segments=segments,
    )


def reference_segment_table(summaries: Sequence[PeerSummary]) -> dict[str, np.ndarray]:
    """Every segment of ``summaries`` tabulated one object at a time.

    The columns :class:`~repro.core.cdf_sampling.SegmentTable` holds, built
    per segment with a 1-D ``np.linspace`` for implicit edges, rows padded
    to the widest resolution, and stably sorted by ``value_low``.
    """
    rows = [
        (index, rank, seg)
        for index, summary in enumerate(summaries)
        for rank, seg in enumerate(summary.segments)
    ]
    width = max(seg.buckets for _, _, seg in rows)
    edges = np.empty((len(rows), width + 1))
    counts = np.zeros((len(rows), width))
    valid = np.zeros((len(rows), width), dtype=bool)
    for k, (_, _, seg) in enumerate(rows):
        row_edges = (
            seg.edges
            if seg.edges is not None
            else np.linspace(seg.value_low, seg.value_high, seg.buckets + 1)
        )
        edges[k, : seg.buckets + 1] = row_edges
        edges[k, seg.buckets + 1 :] = row_edges[-1]
        counts[k, : seg.buckets] = seg.counts
        valid[k, : seg.buckets] = True
    densities = [edge_densities(seg) for _, _, seg in rows]
    order = np.argsort([seg.value_low for _, _, seg in rows], kind="stable")
    return {
        "low": np.asarray([seg.value_low for _, _, seg in rows])[order],
        "high": np.asarray([seg.value_high for _, _, seg in rows])[order],
        "edges": edges[order],
        "counts": counts[order],
        "valid": valid[order],
        "d_left": np.asarray([pair[0] for pair in densities])[order],
        "d_right": np.asarray([pair[1] for pair in densities])[order],
        "owner": np.asarray([index for index, _, _ in rows])[order],
        "rank": np.asarray([rank for _, rank, _ in rows])[order],
    }


def reference_ht_weights(summaries: Sequence[PeerSummary]) -> np.ndarray:
    """``w_i ∝ c_i / ℓ_i`` from each reply object's ``density``."""
    raw = np.asarray([s.density for s in summaries], dtype=float)
    total = raw.sum()
    if total <= 0:
        raise ValueError("all probed peers were empty; cannot estimate a distribution")
    return raw / total


def reference_total_items(summaries: Sequence[PeerSummary], ring_size: int) -> float:
    """``n̂ = (2^m/s) Σ c/ℓ`` from the reply objects."""
    return float(ring_size * np.asarray([s.density for s in summaries], dtype=float).mean())


def reference_peer_count(summaries: Sequence[PeerSummary], ring_size: int) -> float:
    """``N̂ = (2^m/s) Σ 1/ℓ`` from the reply objects."""
    inverse = np.asarray([1.0 / s.segment_length for s in summaries], dtype=float)
    return float(ring_size * inverse.mean())

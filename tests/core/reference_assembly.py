"""Scalar reference implementations of every reply consumer.

These are the per-reply, per-segment Python loops over
:class:`~repro.core.synopsis.PeerSummary` records that the columnar code
replaced: the interpolated reconstruction and its bootstrap, the local
CDFs and their HT mixture, the density trim, winsorization, and the
parametric baseline's moments.  They define the semantics the columns
must reproduce bit for bit: breakpoints, cumulative masses, gap masses,
the order of every float addition, and (for the bootstrap) the
generator's stream.  They live here, as test oracles only.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.cdf import PiecewiseCDF
from repro.core.cdf_sampling import InterpolatedReconstruction
from repro.core.replies import ProbeReplies
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
        SegmentSummary(low, high, np.asarray(c, dtype=np.int64))
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
    """``w_i ∝ c_i / ℓ_i`` from each reply object's density."""
    raw = np.asarray([density(s) for s in summaries], dtype=float)
    total = raw.sum()
    if total <= 0:
        raise ValueError("all probed peers were empty; cannot estimate a distribution")
    return raw / total


def reference_total_items(summaries: Sequence[PeerSummary], ring_size: int) -> float:
    """``n̂ = (2^m/s) Σ c/ℓ`` from the reply objects."""
    return float(ring_size * np.asarray([density(s) for s in summaries], dtype=float).mean())


def reference_peer_count(summaries: Sequence[PeerSummary], ring_size: int) -> float:
    """``N̂ = (2^m/s) Σ 1/ℓ`` from the reply objects."""
    inverse = np.asarray([1.0 / s.segment_length for s in summaries], dtype=float)
    return float(ring_size * inverse.mean())


def density(summary: PeerSummary) -> float:
    """Items per identifier, ``c / ℓ``, as Python's int division rounds it."""
    return summary.local_count / summary.segment_length


def local_cdf(summary: PeerSummary, kind: str = "linear") -> PiecewiseCDF:
    """A peer's local data CDF ``H_p``, built one segment at a time.

    Segments in value order, bucket edges as breakpoints, the running item
    count over ``max(c_p, 1)`` as values; duplicate breakpoints keep their
    *last* value so point masses keep their jump.
    """
    xs_parts: list[np.ndarray] = []
    fs_parts: list[np.ndarray] = []
    running = 0.0
    total = max(summary.local_count, 1)
    for seg in sorted(summary.segments, key=lambda s: s.value_low):
        cumulative = running + np.concatenate(([0.0], np.cumsum(seg.counts)))
        xs_parts.append(seg.bucket_edges())
        fs_parts.append(cumulative / total)
        running += seg.total
    xs = np.concatenate(xs_parts)
    fs = np.concatenate(fs_parts)
    keep = np.concatenate((np.diff(xs) > 0, [True]))
    return PiecewiseCDF(xs[keep], fs[keep], kind="step" if kind == "step" else "linear")


def reference_assemble_cdf(
    summaries: Sequence[PeerSummary],
    weights: Sequence[float],
    domain: tuple[float, float],
    interpolation: str = "linear",
) -> PiecewiseCDF:
    """The HT mixture ``Σ w_i H_i``: every component evaluated everywhere.

    Components are added one after another on the merged breakpoints, and
    the result is pinned to 0 and 1 at the domain edges.
    """
    active = [
        (summary, w)
        for summary, w in zip(summaries, np.asarray(weights, dtype=float))
        if w > 0 and summary.local_count > 0
    ]
    if not active:
        raise ValueError("no probed peer carried any data")
    components = [local_cdf(summary, interpolation) for summary, _ in active]
    weight_arr = np.asarray([w for _, w in active], dtype=float)
    weight_arr = weight_arr / weight_arr.sum()
    xs = np.unique(np.concatenate([c.xs for c in components]))
    fs = np.zeros_like(xs)
    for component, w in zip(components, weight_arr):
        if w > 0:
            fs += w * component(xs)
    kind = "step" if interpolation == "step" else "linear"
    mixture = PiecewiseCDF(xs, fs, kind=kind)
    low, high = domain
    xs, fs = mixture.xs, mixture.fs
    if xs[0] > low:
        xs = np.concatenate(([low], xs))
        fs = np.concatenate(([0.0], fs))
    if xs[-1] < high:
        xs = np.concatenate((xs, [high]))
        fs = np.concatenate((fs, [1.0]))
    fs = fs / fs[-1] if fs[-1] > 0 else fs
    return PiecewiseCDF(xs, fs, kind=kind)


def trim_outlier_summaries(
    summaries: Sequence[PeerSummary],
    max_density_ratio: float = 20.0,
    neighborhood: int = 4,
) -> list[PeerSummary]:
    """The neighbourhood density trim, one reply at a time.

    Each peer's last reply is compared with the median density of its
    ``2·k`` ring-nearest peers (ordered by lowest segment value); every
    reply of a peer above ``max_density_ratio`` times that reference is
    dropped.  Batches of at most two peers pass through.
    """
    unique: dict[int, PeerSummary] = {}
    for summary in summaries:
        unique[summary.peer_id] = summary
    if len(unique) <= 2:
        return list(summaries)
    ordered = sorted(unique.values(), key=lambda s: min(seg.value_low for seg in s.segments))
    count = len(ordered)
    dropped: set[int] = set()
    for index, summary in enumerate(ordered):
        neighbors = []
        for offset in range(1, neighborhood + 1):
            neighbors.append(density(ordered[(index - offset) % count]))
            neighbors.append(density(ordered[(index + offset) % count]))
        reference = float(np.median(neighbors))
        if reference <= 0:
            reference = float(
                np.median([density(s) for s in ordered if s.local_count > 0] or [0.0])
            )
        if reference > 0 and density(summary) > max_density_ratio * reference:
            dropped.add(summary.peer_id)
    return [s for s in summaries if s.peer_id not in dropped]


def winsorize_summaries(
    summaries: Sequence[PeerSummary], trim_fraction: float
) -> list[PeerSummary]:
    """Scale every reply denser than the ``1 - trim_fraction`` density
    quantile down to it, bucket by bucket (round half up)."""
    if trim_fraction <= 0.0:
        return list(summaries)
    densities = np.asarray([density(s) for s in summaries], dtype=float)
    cap = float(np.quantile(densities, 1.0 - trim_fraction))
    clamped: list[PeerSummary] = []
    for summary, value in zip(summaries, densities):
        if value <= cap or value <= 0.0:
            clamped.append(summary)
            continue
        factor = cap / value
        segments = tuple(
            SegmentSummary(
                seg.value_low,
                seg.value_high,
                np.floor(seg.counts * factor + 0.5).astype(np.int64),
                edges=seg.edges,
            )
            for seg in summary.segments
        )
        clamped.append(
            PeerSummary(
                peer_id=summary.peer_id,
                segment_length=summary.segment_length,
                local_count=int(sum(seg.total for seg in segments)),
                segments=segments,
            )
        )
    return clamped


def weighted_moments(
    summaries: Sequence[PeerSummary], weights: Sequence[float]
) -> tuple[float, float]:
    """HT-weighted mean and variance, reading each synopsis as mass at its
    bucket midpoints — reply by reply, segment by segment."""
    mean_acc = 0.0
    second_acc = 0.0
    for summary, w in zip(summaries, np.asarray(weights, dtype=float)):
        if w <= 0 or summary.local_count == 0:
            continue
        for segment in summary.segments:
            if segment.total == 0:
                continue
            edges = segment.bucket_edges()
            midpoints = 0.5 * (edges[:-1] + edges[1:])
            probs = segment.counts / summary.local_count
            mean_acc += w * float(np.sum(probs * midpoints))
            second_acc += w * float(np.sum(probs * midpoints**2))
    variance = max(second_acc - mean_acc**2, 1e-12)
    return mean_acc, variance


def to_summaries(replies: ProbeReplies) -> list[PeerSummary]:
    """One :class:`PeerSummary` record per reply row, for the oracles above."""
    k, width = replies.seg_counts.shape
    buckets = [width] * k if replies.seg_buckets is None else replies.seg_buckets.tolist()
    segments = [
        SegmentSummary(
            low,
            high,
            replies.seg_counts[index, :b].copy(),
            None if replies.seg_edges is None else replies.seg_edges[index, : b + 1].copy(),
        )
        for index, (low, high, b) in enumerate(
            zip(replies.seg_low.tolist(), replies.seg_high.tolist(), buckets)
        )
    ]
    ends = np.cumsum(np.bincount(replies.seg_probe, minlength=len(replies))).tolist()
    return [
        PeerSummary(
            peer_id=owner,
            segment_length=length,
            local_count=count,
            segments=tuple(segments[start:end]),
        )
        for owner, length, count, start, end in zip(
            replies.owner.tolist(),
            replies.segment_length.tolist(),
            replies.local_count.tolist(),
            [0] + ends[:-1],
            ends,
        )
    ]

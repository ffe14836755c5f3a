"""Per-peer summaries: the producers of probe replies.

A probe that lands on a peer gets back the peer's segment length, its item
count, and a constant-size histogram synopsis of its local data.  Its size
bounds per-probe bandwidth, which is why the synopsis bucket count ``B`` is
an explicit, ablatable parameter.  Every consumer reads replies as the
columns of a :class:`~repro.core.replies.ProbeReplies` batch: the compact
backend gathers them from its synopsis plane (:func:`summarize_compact`);
the object backend builds one :class:`PeerSummary` record per peer
(:func:`summarize_peer`, memoized on the node) and packs a batch of them
with :meth:`~repro.core.replies.ProbeReplies.from_summaries`.

A peer whose ownership arc wraps the ring origin holds items from two
disjoint value ranges; its summary then carries two :class:`SegmentSummary`
pieces.  All other peers carry exactly one.  A Byzantine peer answers with
a fabricated summary (:func:`fabricate_summary`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
from numpy.typing import NDArray

from repro.core.byzantine import ByzantineBehavior
from repro.core.replies import ProbeReplies
from repro.ring.compact import CompactRing
from repro.ring.network import RingNetwork
from repro.ring.node import PeerNode

__all__ = ["summarize_peer", "summarize_compact", "fabricate_summary"]


@dataclass(frozen=True)
class SegmentSummary:
    """Bucket synopsis of one contiguous value range of a peer.

    Buckets may be equi-width (the classic histogram, ``edges=None``) or
    arbitrary — in particular the *equi-depth* buckets of
    :meth:`from_quantiles`, where bucket edges are local quantiles and
    counts are (nearly) equal.  Both carry the same payload
    (B+1 edges + B counts, with equi-width edges compressible to 2 values),
    but equi-depth buckets adapt their resolution to where the peer's data
    actually sits.
    """

    value_low: float
    value_high: float
    counts: NDArray[np.int64]                 # int64, one entry per bucket
    edges: NDArray[np.float64] | None = None    # B+1 boundaries; None = equi-width

    def __post_init__(self) -> None:
        if not self.value_low < self.value_high:
            raise ValueError(f"empty segment [{self.value_low}, {self.value_high})")
        if self.counts.ndim != 1 or self.counts.size < 1:
            raise ValueError("counts must be a non-empty 1-D array")
        if (self.counts < 0).any():
            raise ValueError("bucket counts must be non-negative")
        if self.edges is not None:
            if self.edges.shape != (self.counts.size + 1,):
                raise ValueError("edges must have one more entry than counts")
            if (self.edges[1:] < self.edges[:-1]).any():
                raise ValueError("edges must be non-decreasing")
            if not (
                abs(self.edges[0] - self.value_low) < 1e-12
                and abs(self.edges[-1] - self.value_high) < 1e-12
            ):
                raise ValueError("edges must span exactly [value_low, value_high]")

    @classmethod
    def from_quantiles(
        cls, value_low: float, value_high: float, values: NDArray[np.float64], buckets: int
    ) -> "SegmentSummary":
        """Equi-depth segment: edges at the local data's quantiles.

        ``values`` are the (sorted or unsorted) items inside the range.
        Edge ties from repeated values are kept non-decreasing; degenerate
        (zero-width) buckets represent point masses exactly.
        """
        if buckets < 1:
            raise ValueError(f"buckets must be >= 1, got {buckets}")
        arr = np.sort(np.asarray(values, dtype=float))
        if arr.size == 0:
            return cls(value_low, value_high, np.zeros(buckets, dtype=np.int64))
        # Boundary indices split the sorted items as evenly as possible.
        splits = np.linspace(0, arr.size, buckets + 1).round().astype(int)
        counts = np.diff(splits).astype(np.int64)
        inner_edges = [float(arr[min(i, arr.size - 1)]) for i in splits[1:-1]]
        edges = np.concatenate(([value_low], inner_edges, [value_high]))
        edges = np.maximum.accumulate(edges)
        edges = np.clip(edges, value_low, value_high)
        edges[0], edges[-1] = value_low, value_high
        return cls(value_low, value_high, counts, edges=edges)

    @property
    def total(self) -> int:
        """Items summarised by this segment."""
        return int(self.counts.sum())

    @property
    def buckets(self) -> int:
        """Synopsis resolution ``B``."""
        return int(self.counts.size)

    def bucket_edges(self) -> NDArray[np.float64]:
        """The ``B + 1`` bucket boundary values."""
        if self.edges is not None:
            return self.edges
        return np.linspace(self.value_low, self.value_high, self.buckets + 1)


@dataclass(frozen=True)
class PeerSummary:
    """Everything a probe reply reveals about one peer."""

    peer_id: int
    segment_length: int  # ℓ_p: ownership arc length in identifiers
    local_count: int     # c_p: items stored
    segments: tuple[SegmentSummary, ...]

    def __post_init__(self) -> None:
        if self.segment_length <= 0:
            raise ValueError(f"segment length must be positive, got {self.segment_length}")
        if self.local_count < 0:
            raise ValueError(f"local count must be >= 0, got {self.local_count}")
        if not 1 <= len(self.segments) <= 2:
            raise ValueError("a peer summary carries one or two value segments")
        summarised = sum(seg.total for seg in self.segments)
        if summarised != self.local_count:
            raise ValueError(
                f"synopsis covers {summarised} items but peer holds {self.local_count}"
            )


def summarize_peer(
    network: RingNetwork,
    node: PeerNode,
    buckets: int,
    kind: str = "equi-width",
) -> PeerSummary:
    """Build the probe reply a peer would send: its :class:`PeerSummary`.

    This is node-local work (no messages); the caller records the
    request/reply pair.  The peer's ring arc is translated into one or two
    value ranges through the network's order-preserving hash, and each range
    gets a ``buckets``-wide synopsis of the local items inside it —
    ``kind="equi-width"`` (classic histogram) or ``kind="equi-depth"``
    (edges at local quantiles; same payload, adaptive resolution).

    Replies are memoized per peer: a summary is a pure function of the
    peer's stored items, its ownership arc, and its (possibly Byzantine)
    reply behaviour, so the cached result is reused until any of those
    change — repeat probe hits and repeated full-census sweeps cost O(1)
    per peer instead of O(local items).  Invalidation keys on the store's
    mutation counter (:attr:`~repro.ring.storage.LocalStore.version`), the
    predecessor pointer that defines the arc, and the Byzantine marker.
    """
    if buckets < 1:
        raise ValueError(f"buckets must be >= 1, got {buckets}")
    if kind not in ("equi-width", "equi-depth"):
        raise ValueError(f"unknown synopsis kind {kind!r}")
    state = (node.store.version, node.predecessor_id, node.byzantine)
    cached = node.summary_cache.get((buckets, kind))
    if cached is not None and cached[0] == state:
        return cached[1]
    summary = _build_summary(network, node, buckets, kind)
    node.summary_cache[(buckets, kind)] = (state, summary)
    return summary


def _build_summary(
    network: RingNetwork,
    node: PeerNode,
    buckets: int,
    kind: str,
) -> PeerSummary:
    """The uncached summary construction behind :func:`summarize_peer`."""
    space = network.space
    data_hash = network.data_hash
    interval = node.interval
    low, high = network.domain

    def edge_value(ident: int) -> float:
        """Left edge of the value bucket owned *starting at* ``ident``."""
        return data_hash.to_value(ident)

    def nonempty(r_low: float, r_high: float) -> tuple[float, float]:
        """Widen a float-degenerate range minimally so it can hold a bucket."""
        if r_low < r_high:
            return (r_low, r_high)
        return (r_low, float(np.nextafter(r_low, np.inf)))

    if interval.start == interval.end:
        # Single peer: owns the whole ring, hence the whole domain.
        ranges = [(low, high)]
    elif interval.start < interval.end:
        # Keys in (start, end] correspond to values in
        # [value(start + 1), value(end + 1)) by monotonicity of the hash.
        after_end = space.add(interval.end, 1)
        range_high = high if after_end == 0 else edge_value(after_end)
        ranges = [nonempty(edge_value(interval.start + 1), range_high)]
    else:
        # Ownership wraps the ring origin: keys (start, 2^m - 1] then
        # [0, end], i.e. a value range at each end of the domain.
        ranges = []
        first_start = space.add(interval.start, 1)
        if first_start != 0:
            ranges.append(nonempty(edge_value(first_start), high))
        ranges.append(nonempty(low, edge_value(interval.end + 1)))

    def build_segment(r_low: float, r_high: float) -> SegmentSummary:
        if kind == "equi-depth":
            lo = node.store.rank_of(r_low)
            hi = node.store.rank_of(r_high)
            values = node.store.as_array()[lo:hi]
            return SegmentSummary.from_quantiles(r_low, r_high, values, buckets)
        return SegmentSummary(r_low, r_high, node.store.histogram_range(r_low, r_high, buckets))

    segments = tuple(build_segment(r_low, r_high) for r_low, r_high in ranges)
    # Items can sit outside the computed ranges only through float edge
    # effects; fold any stragglers into the nearest segment's edge bucket so
    # the summary's invariant (synopsis total == local count) always holds.
    summarised = sum(seg.total for seg in segments)
    if summarised != node.store.count:
        segments = _repair_segments(node, segments)
    summary = PeerSummary(
        peer_id=node.ident,
        segment_length=interval.length,
        local_count=node.store.count,
        segments=segments,
    )
    if node.byzantine is not None:
        # A lying peer answers with a fabricated reply (same geometry,
        # false counts) — see repro.core.byzantine.
        return fabricate_summary(summary, node.byzantine)
    return summary


def summarize_compact(
    ring: CompactRing,
    peer_indices: Union[Sequence[int], NDArray[np.int64]],
    buckets: int,
    kind: str = "equi-width",
    *,
    targets: Optional[NDArray[np.uint64]] = None,
    hops: Optional[NDArray[np.int64]] = None,
) -> ProbeReplies:
    """Probe replies of the peers at ``peer_indices``, from the synopsis plane.

    One gather per column: primary-segment bounds from ``seg_low`` and
    ``seg_high``, bucket counts from the ``(n, B)`` histogram matrix, and,
    for every reply of peer 0 when its arc wraps the ring origin, the wrap
    row placed before its primary segment (the object backend's order).
    ``targets`` and ``hops`` are the routed probes' columns (zeros when the
    peers were addressed directly).  Nothing is kept on the ring.

    The plane is built at a fixed resolution, so ``buckets`` must equal
    ``ring.synopsis_buckets`` and only ``kind="equi-width"`` is available
    (equi-depth synopses need the raw values, which the compact backend
    deliberately does not keep).
    """
    if buckets < 1:
        raise ValueError(f"buckets must be >= 1, got {buckets}")
    if kind not in ("equi-width", "equi-depth"):
        raise ValueError(f"unknown synopsis kind {kind!r}")
    if kind != "equi-width":
        raise ValueError(
            "the compact backend keeps counts, not values; only "
            f"equi-width synopses are available, got kind={kind!r}"
        )
    if buckets != ring.synopsis_buckets:
        raise ValueError(
            f"the compact synopsis plane is built at B={ring.synopsis_buckets} "
            f"buckets; requested B={buckets} (rebuild the ring with "
            "synopsis_buckets to change the resolution)"
        )
    indices = np.asarray(peer_indices, dtype=np.int64)
    hist, wrap_hist = ring.synopsis_plane()
    count = indices.size
    per_probe = np.ones(count, dtype=np.int64)
    if ring.wrap_bounds is not None:
        per_probe[indices == 0] = 2
    rows = np.repeat(indices, per_probe)  # the plane row behind each segment
    seg_low, seg_high, seg_counts = ring.seg_low[rows], ring.seg_high[rows], hist[rows]
    if ring.wrap_bounds is not None:
        wrap = (np.cumsum(per_probe) - per_probe)[indices == 0]
        seg_low[wrap], seg_high[wrap] = ring.wrap_bounds
        seg_counts[wrap] = wrap_hist
    return ProbeReplies(
        target=np.zeros(count, dtype=np.uint64) if targets is None else targets,
        hops=np.zeros(count, dtype=np.int64) if hops is None else hops,
        owner=ring.ids[indices],
        segment_length=ring.segment_lengths(indices),
        local_count=ring.counts[indices],
        seg_probe=np.repeat(np.arange(count, dtype=np.int64), per_probe),
        seg_low=seg_low,
        seg_high=seg_high,
        seg_counts=seg_counts,
    )


def fabricate_summary(honest: PeerSummary, behavior: ByzantineBehavior) -> PeerSummary:
    """The lie a Byzantine peer sends instead of its honest summary.

    Segment geometry (``ℓ``, value ranges) is kept honest — neighbours can
    verify it — while counts are inflated and, optionally, concentrated in
    the bucket nearest ``fake_mass_at``.
    """
    claimed_total = max(int(round(honest.local_count * behavior.count_multiplier)), 1)
    segments: list[SegmentSummary] = []
    remaining = claimed_total
    for index, segment in enumerate(honest.segments):
        if index == len(honest.segments) - 1:
            claimed = remaining
        else:
            share = segment.total / max(honest.local_count, 1)
            claimed = int(round(claimed_total * share))
            remaining -= claimed
        counts = np.zeros(segment.buckets, dtype=np.int64)
        if behavior.fake_mass_at is not None:
            edges = segment.bucket_edges()
            target = int(np.searchsorted(edges, behavior.fake_mass_at, side="right")) - 1
            target = min(max(target, 0), segment.buckets - 1)
            counts[target] = claimed
        elif segment.total > 0:
            scaled = np.floor(segment.counts * claimed / segment.total).astype(np.int64)
            scaled[-1] += claimed - int(scaled.sum())
            counts = scaled
        else:
            counts[-1] = claimed
        segments.append(
            SegmentSummary(segment.value_low, segment.value_high, counts, edges=segment.edges)
        )
    return PeerSummary(
        peer_id=honest.peer_id,
        segment_length=honest.segment_length,
        local_count=claimed_total,
        segments=tuple(segments),
    )


def _repair_segments(
    node: PeerNode, segments: tuple[SegmentSummary, ...]
) -> tuple[SegmentSummary, ...]:
    """Reassign items missed by float boundary rounding to edge buckets."""
    repaired = [np.array(seg.counts, copy=True) for seg in segments]
    for value in node.store:
        for seg_index, seg in enumerate(segments):
            if seg.value_low <= value < seg.value_high:
                break
        else:
            # Attach to the segment whose boundary is closest.
            distances = [
                min(abs(value - seg.value_low), abs(value - seg.value_high))
                for seg in segments
            ]
            seg_index = int(np.argmin(distances))
            seg = segments[seg_index]
            bucket = 0 if value < seg.value_low else seg.buckets - 1
            repaired[seg_index][bucket] += 1
    # Rebuild only segments whose counts changed; recompute via histogram
    # for the rest is unnecessary since counts were copied.  Explicit edges
    # (equi-depth synopses) are preserved.
    rebuilt = []
    for seg, counts in zip(segments, repaired):
        rebuilt.append(
            SegmentSummary(seg.value_low, seg.value_high, counts, edges=seg.edges)
        )
    return tuple(rebuilt)

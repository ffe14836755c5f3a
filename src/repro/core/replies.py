"""Probe replies as columns: what one batch of probes brought back.

A probe reply is a fixed-size record — the answering peer's segment length
``ℓ``, its local item count ``c``, and a constant-size histogram synopsis
of each value segment it owns (two for the peer whose arc wraps the ring
origin, one for every other peer).  :class:`ProbeReplies` holds a whole
batch of replies as columns, and it is the one reply format every
estimator, combiner and baseline reads: densities, segment bounds, bucket
edges and bucket counts are arrays.  The compact backend fills them with
one gather from its synopsis plane; the object backend packs its per-peer
reply records (:func:`~repro.core.synopsis.summarize_peer`) with
:meth:`ProbeReplies.from_summaries`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray

__all__ = ["ProbeReplies"]

#: Every integer up to ``2^53`` is exact in float64; beyond it ``float(ℓ)``
#: may round, so ``c / ℓ`` there is computed with Python's int division.
_EXACT_INT = 2**53


def _linspace_rows(
    start: NDArray[np.float64], stop: NDArray[np.float64], num: int
) -> NDArray[np.float64]:
    """``np.linspace(start[k], stop[k], num)`` for every row ``k``, bit for bit.

    A single 2-D ``np.linspace`` switches *every* row to its denormal-step
    formula as soon as one row's step underflows to zero, so the rows are
    split by that branch first and each half takes one call.
    """
    out = np.empty((start.size, num))
    underflow = (stop - start) / (num - 1) == 0
    for rows in (~underflow, underflow):
        if rows.any():
            out[rows] = np.linspace(start[rows], stop[rows], num, axis=1)
    return out


def _length_column(lengths: Sequence[int]) -> NDArray[Any]:
    """Segment lengths as ``uint64``, or Python ints when one is ``2^64``."""
    if lengths and max(lengths) > np.iinfo(np.uint64).max:
        return np.asarray(lengths, dtype=object)
    return np.asarray(lengths, dtype=np.uint64)


def _edge_columns(
    low: NDArray[np.float64],
    high: NDArray[np.float64],
    buckets: NDArray[np.int64],
    edges: NDArray[np.float64],
    implicit: NDArray[np.bool_],
) -> tuple[Optional[NDArray[np.int64]], Optional[NDArray[np.float64]]]:
    """The ``seg_buckets`` and ``seg_edges`` columns of a segment set.

    Row ``k`` has resolution ``buckets[k]``; ``edges`` (one column more
    than the widest row) holds the explicit edges of every row not in
    ``implicit`` in its first ``buckets[k] + 1`` slots.  Implicit rows are
    equi-width and are filled here, one ``np.linspace`` per resolution;
    every row is then padded by repeating its last edge.  Both columns are
    ``None`` when every row is equi-width at one resolution.
    """
    width = edges.shape[1] - 1
    mixed = bool(buckets.size) and int(buckets.min()) < width
    if not mixed and implicit.all():
        return None, None
    for b in np.unique(buckets[implicit]).tolist():
        rows = implicit & (buckets == b)
        edges[rows, : b + 1] = _linspace_rows(low[rows], high[rows], b + 1)
    last = edges[np.arange(buckets.size), buckets]
    edges = np.where(np.arange(width + 1) > buckets[:, None], last[:, None], edges)
    return (buckets if mixed else None), edges


@dataclass(frozen=True, eq=False)
class ProbeReplies:
    """A batch of probe replies as columns, in probe order.

    Per probe ``i``: ``target[i]`` (the probed ring position), ``hops[i]``
    (its lookup cost), ``owner[i]`` (the answering peer's ring identifier),
    ``segment_length[i]`` (``ℓ``) and ``local_count[i]`` (``c``).
    ``segment_length`` is ``uint64``, except that a single peer on a 64-bit
    ring owns all ``2^64`` identifiers, which does not fit: that column
    then holds Python ints (``dtype=object``).

    Per segment ``k``, grouped by probe and in each reply's own order (the
    origin-wrapping peer's high-end segment first): ``seg_probe[k]`` (the
    probe row it belongs to), ``seg_low[k]``/``seg_high[k]`` (its value
    range) and ``seg_counts[k]`` (its ``B`` bucket counts).  Two optional
    columns cover replies that are not equi-width at one resolution:
    ``seg_buckets`` gives each segment's own resolution when they differ
    (``seg_counts`` rows are zero-padded past it), and ``seg_edges`` holds
    ``B + 1`` bucket edges per segment when any reply carries explicit
    (equi-depth) edges — equi-width rows are filled in, and rows are padded
    by repeating their last edge.

    Construction checks every reply invariant at once: one or two segments
    per reply, ``low < high``, counts ``>= 0``, ``ℓ > 0``, and synopsis
    total ``== c``.
    """

    target: NDArray[np.uint64]
    hops: NDArray[np.int64]
    owner: NDArray[np.uint64]
    segment_length: NDArray[Any]
    local_count: NDArray[np.int64]
    seg_probe: NDArray[np.int64]
    seg_low: NDArray[np.float64]
    seg_high: NDArray[np.float64]
    seg_counts: NDArray[np.int64]
    seg_buckets: Optional[NDArray[np.int64]] = None
    seg_edges: Optional[NDArray[np.float64]] = None

    def __post_init__(self) -> None:
        n = self.target.size
        if not self.hops.size == self.owner.size == self.local_count.size == n or (
            self.segment_length.size != n
        ):
            raise ValueError("per-probe columns need one entry per probe")
        per_probe = np.bincount(self.seg_probe, minlength=n)
        if per_probe.size != n or ((per_probe < 1) | (per_probe > 2)).any():
            raise ValueError("a probe reply carries one or two value segments")
        if not (self.seg_low < self.seg_high).all():
            raise ValueError("every segment needs value_low < value_high")
        if (self.seg_counts < 0).any():
            raise ValueError("bucket counts must be non-negative")
        if not np.asarray(self.segment_length > 0, dtype=bool).all():
            raise ValueError("segment lengths must be positive")
        totals = np.bincount(
            self.seg_probe, weights=self.seg_counts.sum(axis=1), minlength=n
        )
        if not np.array_equal(totals, self.local_count):
            raise ValueError("every synopsis must cover exactly its peer's local count")

    @classmethod
    def from_summaries(
        cls,
        summaries: Sequence[Any],
        targets: Optional[ArrayLike] = None,
        hops: Optional[ArrayLike] = None,
    ) -> "ProbeReplies":
        """Pack the object backend's reply records into columns.

        ``summaries`` are :class:`~repro.core.synopsis.PeerSummary` records
        (as :func:`~repro.core.synopsis.summarize_peer` builds them);
        ``targets`` and ``hops`` default to zeros for replies that were not
        routed (census or hand-built replies).
        """
        n = len(summaries)
        segments = [seg for summary in summaries for seg in summary.segments]
        k = len(segments)
        buckets = np.fromiter((seg.counts.size for seg in segments), dtype=np.int64, count=k)
        width = int(buckets.max()) if k else 0
        counts = np.zeros((k, width), dtype=np.int64)
        edges = np.empty((k, width + 1))
        implicit = np.ones(k, dtype=bool)
        for index, seg in enumerate(segments):
            counts[index, : seg.counts.size] = seg.counts
            if seg.edges is not None:
                edges[index, : seg.edges.size] = seg.edges
                implicit[index] = False
        low = np.fromiter((seg.value_low for seg in segments), dtype=float, count=k)
        high = np.fromiter((seg.value_high for seg in segments), dtype=float, count=k)
        seg_buckets, seg_edges = _edge_columns(low, high, buckets, edges, implicit)
        return cls(
            target=np.asarray(np.zeros(n) if targets is None else targets, dtype=np.uint64),
            hops=np.asarray(np.zeros(n) if hops is None else hops, dtype=np.int64),
            owner=np.asarray([summary.peer_id for summary in summaries], dtype=np.uint64),
            segment_length=_length_column([summary.segment_length for summary in summaries]),
            local_count=np.asarray([summary.local_count for summary in summaries], dtype=np.int64),
            seg_probe=np.repeat(
                np.arange(n, dtype=np.int64), [len(summary.segments) for summary in summaries]
            ),
            seg_low=low,
            seg_high=high,
            seg_counts=counts,
            seg_buckets=seg_buckets,
            seg_edges=seg_edges,
        )

    @classmethod
    def concat(cls, batches: Sequence["ProbeReplies"]) -> "ProbeReplies":
        """The batches' replies one after another, as one batch.

        Batches at different resolutions, or with and without explicit
        edges, are padded exactly as :meth:`from_summaries` pads the
        joined reply records.
        """
        low = np.concatenate([batch.seg_low for batch in batches])
        buckets = np.concatenate(
            [
                np.full(batch.seg_low.size, batch.seg_counts.shape[1], dtype=np.int64)
                if batch.seg_buckets is None
                else batch.seg_buckets
                for batch in batches
            ]
        )
        width = int(buckets.max()) if buckets.size else 0
        counts = np.zeros((low.size, width), dtype=np.int64)
        edges = np.empty((low.size, width + 1))
        implicit = np.ones(low.size, dtype=bool)
        start = 0
        for batch in batches:
            rows = slice(start, start + batch.seg_low.size)
            counts[rows, : batch.seg_counts.shape[1]] = batch.seg_counts[:, :width]
            if batch.seg_edges is not None:
                edges[rows, : batch.seg_edges.shape[1]] = batch.seg_edges[:, : width + 1]
                implicit[rows] = False
            start = rows.stop
        high = np.concatenate([batch.seg_high for batch in batches])
        seg_buckets, seg_edges = _edge_columns(low, high, buckets, edges, implicit)
        offsets = np.cumsum([0] + [len(batch) for batch in batches[:-1]])
        return cls(
            target=np.concatenate([batch.target for batch in batches]),
            hops=np.concatenate([batch.hops for batch in batches]),
            owner=np.concatenate([batch.owner for batch in batches]),
            segment_length=np.concatenate([batch.segment_length for batch in batches]),
            local_count=np.concatenate([batch.local_count for batch in batches]),
            seg_probe=np.concatenate(
                [batch.seg_probe + offset for batch, offset in zip(batches, offsets.tolist())]
            ),
            seg_low=low,
            seg_high=high,
            seg_counts=counts,
            seg_buckets=seg_buckets,
            seg_edges=seg_edges,
        )

    def __len__(self) -> int:
        return int(self.target.size)

    @property
    def density(self) -> NDArray[np.float64]:
        """Items per identifier, ``c / ℓ`` — the Horvitz–Thompson weight numerator.

        Each entry is correctly rounded, exactly as Python's ``int / int``
        division rounds it: where ``ℓ`` or ``c`` exceeds ``2^53`` (small
        rings), ``float(ℓ)`` itself may round, so those rows divide the
        integers.
        """
        lengths = self.segment_length
        density = self.local_count / lengths.astype(np.float64)
        wide = np.asarray(lengths > _EXACT_INT, dtype=bool) | (self.local_count > _EXACT_INT)
        for i in np.flatnonzero(wide).tolist():
            density[i] = int(self.local_count[i]) / int(lengths[i])
        return density

    @property
    def inverse_length(self) -> NDArray[np.float64]:
        """``1.0 / ℓ`` per probe, as Python's float-by-int division rounds it."""
        return 1.0 / self.segment_length.astype(np.float64)

    def bucket_edges(self) -> NDArray[np.float64]:
        """The ``B + 1`` bucket edges of every segment, one row each.

        ``seg_edges`` when the batch carries it; otherwise every row is
        equi-width, ``np.linspace(seg_low[k], seg_high[k], B + 1)`` bit for
        bit.
        """
        if self.seg_edges is not None:
            return self.seg_edges
        return _linspace_rows(self.seg_low, self.seg_high, self.seg_counts.shape[1] + 1)

    def latest(self) -> "ProbeReplies":
        """One reply per peer: its last, in the order of its first probe.

        The reconstruction's evidence — repeat probes of a peer add no
        evidence, and a later reply replaces an earlier one.
        """
        owners, first, inverse = np.unique(self.owner, return_index=True, return_inverse=True)
        if owners.size == len(self):
            return self
        last = np.zeros(owners.size, dtype=np.int64)
        np.maximum.at(last, inverse, np.arange(len(self)))
        return self.take(last[np.argsort(first)])

    def take(self, rows: ArrayLike) -> "ProbeReplies":
        """The replies of probe ``rows``, in that order."""
        rows = np.asarray(rows, dtype=np.int64)
        per_probe = np.bincount(self.seg_probe, minlength=len(self))
        starts = np.cumsum(per_probe) - per_probe
        picked = per_probe[rows]
        offsets = np.arange(int(picked.sum())) - np.repeat(np.cumsum(picked) - picked, picked)
        segments = np.repeat(starts[rows], picked) + offsets
        return ProbeReplies(
            target=self.target[rows],
            hops=self.hops[rows],
            owner=self.owner[rows],
            segment_length=self.segment_length[rows],
            local_count=self.local_count[rows],
            seg_probe=np.repeat(np.arange(rows.size, dtype=np.int64), picked),
            seg_low=self.seg_low[segments],
            seg_high=self.seg_high[segments],
            seg_counts=self.seg_counts[segments],
            seg_buckets=None if self.seg_buckets is None else self.seg_buckets[segments],
            seg_edges=None if self.seg_edges is None else self.seg_edges[segments],
        )


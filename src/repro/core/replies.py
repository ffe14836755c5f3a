"""Probe replies as columns: what one batch of probes brought back.

A probe reply is a fixed-size record — the answering peer's segment length
``ℓ``, its local item count ``c``, and a constant-size histogram synopsis
of each value segment it owns (two for the peer whose arc wraps the ring
origin, one for every other peer).  :class:`ProbeReplies` holds a whole
batch of replies as columns, so the estimator reads densities, segment
bounds and bucket counts as arrays: the compact backend fills them with one
gather from its synopsis plane, and no object per reply is built on the
default estimation path.  :class:`~repro.core.synopsis.PeerSummary`
survives as a lazy per-reply view for callers that want objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Optional, Sequence, Union, overload

import numpy as np
from numpy.typing import ArrayLike, NDArray

if TYPE_CHECKING:  # views are built lazily; a runtime import would be a cycle
    from repro.core.synopsis import PeerSummary

__all__ = ["ProbeResult", "ProbeReplies", "Evidence", "as_replies", "as_summaries"]

#: Every integer up to ``2^53`` is exact in float64; beyond it ``float(ℓ)``
#: may round, so ``c / ℓ`` there is computed with Python's int division.
_EXACT_INT = 2**53


@dataclass(frozen=True)
class ProbeResult:
    """One answered probe: where it went, what came back, what it cost."""

    target: int
    summary: PeerSummary
    hops: int


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


@dataclass(frozen=True, eq=False)
class ProbeReplies(Sequence[ProbeResult]):
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

    The batch is a ``Sequence[ProbeResult]``: indexing or iterating it
    builds :class:`~repro.core.synopsis.PeerSummary` views on demand, once
    per batch (see :meth:`summaries`).  Construction checks every reply
    invariant at once: one or two segments per reply, ``low < high``,
    counts ``>= 0``, ``ℓ > 0``, and synopsis total ``== c``.
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
    _views: Optional[list[PeerSummary]] = field(default=None, repr=False)

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
        summaries: Sequence[PeerSummary],
        targets: Optional[ArrayLike] = None,
        hops: Optional[ArrayLike] = None,
    ) -> "ProbeReplies":
        """Pack reply objects into columns; the objects stay as the views.

        ``targets`` and ``hops`` default to zeros for replies that were not
        routed (hand-built or census summaries).
        """
        views = list(summaries)
        n = len(views)
        segments = [seg for summary in views for seg in summary.segments]
        k = len(segments)
        count_rows = [seg.counts for seg in segments]
        buckets = np.fromiter(map(len, count_rows), dtype=np.int64, count=k)
        width = int(buckets.max()) if k else 0
        mixed = k > 0 and int(buckets.min()) < width
        explicit = np.fromiter((seg.edges is not None for seg in segments), dtype=bool, count=k)
        low = np.fromiter((seg.value_low for seg in segments), dtype=float, count=k)
        high = np.fromiter((seg.value_high for seg in segments), dtype=float, count=k)
        counts = np.zeros((k, width), dtype=np.int64)
        edges = np.empty((k, width + 1)) if mixed or explicit.any() else None
        for b in np.unique(buckets).tolist():
            rows = buckets == b
            counts[rows, :b] = np.stack([count_rows[i] for i in np.flatnonzero(rows).tolist()])
            if edges is None:
                continue
            if (rows & ~explicit).any():
                edges[rows & ~explicit, : b + 1] = _linspace_rows(
                    low[rows & ~explicit], high[rows & ~explicit], b + 1
                )
            chosen = np.flatnonzero(rows & explicit).tolist()
            if chosen:
                edges[rows & explicit, : b + 1] = np.stack([segments[i].edges for i in chosen])
            edges[rows, b + 1 :] = edges[rows, b : b + 1]
        return cls(
            target=np.asarray(np.zeros(n) if targets is None else targets, dtype=np.uint64),
            hops=np.asarray(np.zeros(n) if hops is None else hops, dtype=np.int64),
            owner=np.asarray([summary.peer_id for summary in views], dtype=np.uint64),
            segment_length=_length_column([summary.segment_length for summary in views]),
            local_count=np.asarray([summary.local_count for summary in views], dtype=np.int64),
            seg_probe=np.repeat(
                np.arange(n, dtype=np.int64), [len(summary.segments) for summary in views]
            ),
            seg_low=low,
            seg_high=high,
            seg_counts=counts,
            seg_buckets=buckets if mixed else None,
            seg_edges=edges,
            _views=views,
        )

    # -- columns the estimators read -------------------------------------
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
        return self._take(last[np.argsort(first)])

    def _take(self, rows: NDArray[np.int64]) -> "ProbeReplies":
        """The replies of probe ``rows``, in that order."""
        per_probe = np.bincount(self.seg_probe, minlength=len(self))
        starts = np.cumsum(per_probe) - per_probe
        picked = per_probe[rows]
        offsets = np.arange(int(picked.sum())) - np.repeat(np.cumsum(picked) - picked, picked)
        segments = np.repeat(starts[rows], picked) + offsets
        views = None if self._views is None else [self._views[i] for i in rows.tolist()]
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
            _views=views,
        )

    # -- the PeerSummary view at the API edge ----------------------------
    def summaries(self) -> list[PeerSummary]:
        """One :class:`~repro.core.synopsis.PeerSummary` per probe, in order.

        Built on first use and kept on this batch only (never on the ring);
        packed reply objects are returned as they were given.
        """
        return list(self._view_list())

    def _view_list(self) -> list[PeerSummary]:
        views = self._views
        if views is None:
            views = self._build_views()
            object.__setattr__(self, "_views", views)
        return views

    def _build_views(self) -> list[PeerSummary]:
        from repro.core.synopsis import PeerSummary, SegmentSummary

        k, width = self.seg_counts.shape
        buckets = [width] * k if self.seg_buckets is None else self.seg_buckets.tolist()
        segments = [
            SegmentSummary(
                low,
                high,
                self.seg_counts[index, :b].copy(),
                None if self.seg_edges is None else self.seg_edges[index, : b + 1].copy(),
            )
            for index, (low, high, b) in enumerate(
                zip(self.seg_low.tolist(), self.seg_high.tolist(), buckets)
            )
        ]
        ends = np.cumsum(np.bincount(self.seg_probe, minlength=len(self))).tolist()
        return [
            PeerSummary(
                peer_id=owner,
                segment_length=length,
                local_count=count,
                segments=tuple(segments[start:end]),
            )
            for owner, length, count, start, end in zip(
                self.owner.tolist(),
                self.segment_length.tolist(),
                self.local_count.tolist(),
                [0] + ends[:-1],
                ends,
            )
        ]

    def __len__(self) -> int:
        return int(self.target.size)

    @overload
    def __getitem__(self, index: int) -> ProbeResult: ...

    @overload
    def __getitem__(self, index: slice) -> list[ProbeResult]: ...

    def __getitem__(self, index: Union[int, slice]) -> Union[ProbeResult, list[ProbeResult]]:
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        row = range(len(self))[index]
        return ProbeResult(
            target=int(self.target[row]), summary=self._view_list()[row], hops=int(self.hops[row])
        )

    def __iter__(self) -> Iterator[ProbeResult]:
        return (
            ProbeResult(target=target, summary=summary, hops=hops)
            for target, summary, hops in zip(
                self.target.tolist(), self._view_list(), self.hops.tolist()
            )
        )


#: What the estimators accept as probe evidence: a reply batch, or reply
#: objects (hand-built, trimmed or winsorized lists).
Evidence = Union[ProbeReplies, Sequence["PeerSummary"]]


def as_replies(evidence: Evidence) -> ProbeReplies:
    """``evidence`` as columns (packing a list of reply objects)."""
    if isinstance(evidence, ProbeReplies):
        return evidence
    return ProbeReplies.from_summaries(evidence)


def as_summaries(evidence: Evidence) -> list[PeerSummary]:
    """``evidence`` as reply objects (the views of a reply batch)."""
    if isinstance(evidence, ProbeReplies):
        return evidence.summaries()
    return list(evidence)

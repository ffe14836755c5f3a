"""Hypothesis strategies for batches of probe reply records.

:func:`probe_samples` builds a synthetic ring and a probe sample of its
peers' :class:`~repro.core.synopsis.PeerSummary` records that hits every
corner the reply consumers care about: equi-width and equi-depth synopses
(zero-width point-mass buckets included), the origin-wrapping peer's two
segments, repeated and replaced replies, one-ulp widened segments tied
with their neighbour, empty peers, equal edge densities, mixed
resolutions, and samples with and without lead and trail gaps.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.core.synopsis import PeerSummary, SegmentSummary


def nonempty(low: float, high: float) -> tuple[float, float]:
    """Widen a degenerate range by one ulp, as `_build_summary` does."""
    if low < high:
        return (low, high)
    return (low, float(np.nextafter(low, np.inf)))


@st.composite
def segment(draw, low: float, high: float, buckets: int, kind: str, flat: bool):
    """One segment synopsis over ``[low, high)``."""
    if kind == "equi-depth":
        # Items on a few fixed points: repeats make zero-width buckets.
        points = [low + (high - low) * j / 4 for j in range(4)]
        values = draw(st.lists(st.sampled_from(points), max_size=12))
        return SegmentSummary.from_quantiles(low, high, np.asarray(values), buckets)
    if flat:
        count = draw(st.integers(0, 3))
        counts = [count] * buckets
    else:
        counts = draw(st.lists(st.integers(0, 6), min_size=buckets, max_size=buckets))
    return SegmentSummary(low, high, np.asarray(counts, dtype=np.int64))


@st.composite
def probe_samples(draw, mixed_buckets: bool = False):
    """A synthetic ring, and a probe sample of its peers' summaries."""
    low = draw(st.sampled_from([0.0, -3.5, 10.0]))
    span = draw(st.sampled_from([1.0, 7.25, 1e-3]))
    high = low + span
    n_peers = draw(st.integers(2, 10))
    kind = draw(st.sampled_from(["equi-width", "equi-depth"]))
    flat = draw(st.booleans())  # equal densities: the log-mean's flat branch
    fractions = sorted(
        draw(
            st.lists(
                st.floats(0.0, 1.0, exclude_max=True, allow_nan=False),
                min_size=n_peers,
                max_size=n_peers,
            )
        )
    )
    cuts = [low + span * f for f in fractions]
    # Degenerate arcs: a peer whose range is empty gets the one-ulp widened
    # segment, which then ties with its neighbour's start.
    for index in draw(st.sets(st.integers(1, n_peers - 1), max_size=2)):
        cuts[index] = cuts[index - 1]
    aligned = draw(st.booleans())  # peer 0 starts at the domain low
    if aligned:
        cuts[0] = low

    bucket_choices = st.integers(1, 5)
    base_buckets = draw(bucket_choices)
    peers: list[PeerSummary] = []
    for index in range(n_peers):
        buckets = draw(bucket_choices) if mixed_buckets else base_buckets
        if index < n_peers - 1:
            ranges = [nonempty(cuts[index], cuts[index + 1])]
        elif aligned:
            ranges = [nonempty(cuts[index], high)]
        else:
            # The origin-wrapping peer: the domain's top, then its bottom.
            ranges = [nonempty(cuts[index], high), nonempty(low, cuts[0])]
        segments = tuple(
            draw(segment(r_low, r_high, buckets, kind, flat)) for r_low, r_high in ranges
        )
        peers.append(
            PeerSummary(
                peer_id=1000 + index,
                segment_length=draw(st.integers(1, 1 << 20)),
                local_count=sum(seg.total for seg in segments),
                segments=segments,
            )
        )
    picks = draw(st.lists(st.integers(0, n_peers - 1), min_size=1, max_size=2 * n_peers))
    summaries = [peers[i] for i in picks]
    if draw(st.booleans()):
        # A later reply from an already-probed peer replaces the earlier one.
        old = summaries[0]
        counts = [np.zeros_like(seg.counts) for seg in old.segments]
        counts[-1][-1] = 3
        summaries.append(
            PeerSummary(
                peer_id=old.peer_id,
                segment_length=old.segment_length,
                local_count=3,
                segments=tuple(
                    SegmentSummary(seg.value_low, seg.value_high, c, edges=seg.edges)
                    for seg, c in zip(old.segments, counts)
                ),
            )
        )
    return summaries, (low, high)

"""Probe replies as columns match the reply objects they replace, byte for byte.

:class:`~repro.core.replies.ProbeReplies` carries a batch of probe replies
as columns; every reader (:meth:`SegmentTable.from_replies`,
:func:`ht_weights`, :func:`estimate_total_items`,
:func:`estimate_peer_count`) must produce exactly what the object-at-a-time
computations in ``tests/core/reference_assembly.py`` produce from the
equivalent :class:`~repro.core.synopsis.PeerSummary` list — on the compact
backend (one gather from the synopsis plane) and the object backend
(packed from ``summarize_peer``), for the origin-wrapping peer, repeated
owners, empty peers, mixed resolutions, equi-depth edges, small rings
whose arc lengths exceed ``2^53``, and the single-peer ring whose arc is
all ``2^64`` identifiers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cdf_sampling import (
    SegmentTable,
    estimate_peer_count,
    estimate_total_items,
    ht_weights,
)
from repro.core.estimator import DistributionFreeEstimator
from repro.core.replies import ProbeReplies
from repro.core.synopsis import PeerSummary, summarize_compact, summarize_peer
from repro.ring.compact import CompactRing
from repro.ring.network import RingNetwork

from tests.core.reference_assembly import (
    density,
    peer_summary,
    reference_assemble,
    reference_ht_weights,
    reference_peer_count,
    reference_segment_table,
    reference_total_items,
    to_summaries,
)
from tests.core.reply_samples import probe_samples

DOMAIN = (0.0, 10.0)
PER_PROBE = ("target", "hops", "owner", "segment_length", "local_count")
PER_SEGMENT = ("seg_probe", "seg_low", "seg_high", "seg_counts")


def loaded_pair(n: int, items: int, seed: int = 3):
    """An object ring and its compact twin holding the same values."""
    network = RingNetwork.create(n, seed=seed, domain=DOMAIN)
    compact = RingNetwork.create(n, seed=seed, domain=DOMAIN, compact=True)
    assert isinstance(compact, CompactRing)
    values = np.random.default_rng(seed + 1000).uniform(*DOMAIN, size=items)
    network.load_data(values)
    compact.load_counts(values)
    return network, compact


def object_summaries(network, compact, indices, buckets=8, kind="equi-width"):
    """The object backend's replies of the compact ring's peers ``indices``."""
    return [
        summarize_peer(network, network.node(int(compact.ids[index])), buckets, kind)
        for index in indices
    ]


def assert_same_bytes(ours, theirs):
    assert ours.dtype == theirs.dtype
    assert ours.shape == theirs.shape
    assert ours.tobytes() == theirs.tobytes()


def assert_same_batch(ours: ProbeReplies, theirs: ProbeReplies):
    """Every column equal byte for byte, the optional ones included."""
    for name in PER_PROBE + PER_SEGMENT + ("seg_buckets", "seg_edges"):
        mine, other = getattr(ours, name), getattr(theirs, name)
        if mine is None or other is None:
            assert mine is None and other is None, name
        elif mine.dtype == object:
            assert other.dtype == object and mine.tolist() == other.tolist(), name
        else:
            assert_same_bytes(mine, other)


def assert_same_columns(ours: ProbeReplies, theirs: ProbeReplies):
    for name in PER_PROBE[2:] + PER_SEGMENT:
        assert_same_bytes(getattr(ours, name), getattr(theirs, name))
    assert ours.seg_buckets is None and theirs.seg_buckets is None
    assert ours.seg_edges is None and theirs.seg_edges is None


def assert_table_matches_oracle(replies: ProbeReplies, summaries):
    """``SegmentTable.from_replies`` equals the object-at-a-time tabulation."""
    table = SegmentTable.from_replies(replies)
    oracle = reference_segment_table(summaries)
    for name in ("low", "high", "edges", "counts", "d_left", "d_right"):
        assert getattr(table, name).tobytes() == oracle[name].tobytes(), name
    assert np.array_equal(table.owner, oracle["owner"])
    assert np.array_equal(table.rank, oracle["rank"])
    if table.valid is None:
        assert oracle["valid"].all()
    else:
        assert np.array_equal(table.valid, oracle["valid"])


def assert_readers_match_oracle(replies: ProbeReplies, summaries, ring_size: int):
    """The HT readers over columns equal the ones over reply objects."""
    assert replies.density.tobytes() == np.asarray(
        [density(s) for s in summaries], dtype=float
    ).tobytes()
    if any(s.local_count for s in summaries):
        assert ht_weights(replies).tobytes() == reference_ht_weights(summaries).tobytes()
    else:
        with pytest.raises(ValueError, match="all probed peers were empty"):
            ht_weights(replies)
    assert estimate_total_items(replies, ring_size) == reference_total_items(
        summaries, ring_size
    )
    assert estimate_peer_count(replies, ring_size) == reference_peer_count(
        summaries, ring_size
    )


class TestCompactColumns:
    def test_census_matches_object_replies(self):
        """Every peer, the origin-wrapping peer 0 included."""
        network, compact = loaded_pair(n=300, items=30_000)
        indices = np.arange(compact.n_peers)
        summaries = object_summaries(network, compact, indices)
        assert len(summaries[0].segments) == 2  # peer 0 wraps the origin
        ours = summarize_compact(compact, indices, 8)
        assert_same_columns(ours, ProbeReplies.from_summaries(summaries))
        assert_table_matches_oracle(ours, summaries)
        assert_readers_match_oracle(ours, summaries, compact.space.size)

    def test_repeated_owners_and_wrap_rows(self):
        network, compact = loaded_pair(n=64, items=5_000)
        indices = np.asarray([0, 5, 5, 0, 63, 9, 0], dtype=np.int64)
        summaries = object_summaries(network, compact, indices)
        ours = summarize_compact(compact, indices, 8)
        assert ours.seg_probe.tolist() == [0, 0, 1, 2, 3, 3, 4, 5, 6, 6]
        assert_same_columns(ours, ProbeReplies.from_summaries(summaries))
        assert_table_matches_oracle(ours, summaries)
        assert_readers_match_oracle(ours, summaries, compact.space.size)

    def test_empty_peers(self):
        """Most peers hold nothing: zero densities, and an all-empty batch."""
        network, compact = loaded_pair(n=200, items=12)
        indices = np.arange(compact.n_peers)
        summaries = object_summaries(network, compact, indices)
        ours = summarize_compact(compact, indices, 8)
        assert (ours.local_count == 0).sum() > 150
        assert_same_columns(ours, ProbeReplies.from_summaries(summaries))
        assert_table_matches_oracle(ours, summaries)
        assert_readers_match_oracle(ours, summaries, compact.space.size)
        empty = np.flatnonzero(ours.local_count == 0)[:5]
        assert_readers_match_oracle(
            summarize_compact(compact, empty, 8),
            [summaries[i] for i in empty],
            compact.space.size,
        )

    def test_small_ring_lengths_beyond_float_precision(self):
        """``ℓ > 2^53``: ``c/ℓ`` must round as Python's int division does."""
        network, compact = loaded_pair(n=8, items=4_000, seed=5)
        indices = np.arange(compact.n_peers)
        summaries = object_summaries(network, compact, indices)
        ours = summarize_compact(compact, indices, 8)
        assert (ours.segment_length > 2**53).all()
        naive = ours.local_count / ours.segment_length.astype(float)
        exact = np.asarray([s.local_count / s.segment_length for s in summaries])
        assert naive.tobytes() != exact.tobytes()  # the case is really exercised
        assert ours.density.tobytes() == exact.tobytes()
        assert_readers_match_oracle(ours, summaries, compact.space.size)

    def test_single_peer_ring_owns_two_to_the_64(self):
        network, compact = loaded_pair(n=1, items=100)
        summaries = object_summaries(network, compact, [0, 0])
        ours = summarize_compact(compact, [0, 0], 8)
        assert ours.segment_length.tolist() == [2**64, 2**64]
        assert_table_matches_oracle(ours, summaries)
        assert_readers_match_oracle(ours, summaries, compact.space.size)
        assert estimate_peer_count(ours, compact.space.size) == 1.0
        packed = ProbeReplies.from_summaries(summaries)
        assert packed.segment_length.tolist() == [2**64, 2**64]


class TestObjectColumns:
    def test_mixed_resolutions(self):
        network, _ = loaded_pair(n=40, items=4_000)
        nodes = list(network.peers())
        summaries = [
            summarize_peer(network, node, buckets)
            for node, buckets in zip(nodes, [4, 8, 16, 8, 1, 4] * 7)
        ]
        replies = ProbeReplies.from_summaries(summaries)
        assert replies.seg_buckets is not None and replies.seg_edges is not None
        assert_same_batch(ProbeReplies.from_summaries(to_summaries(replies)), replies)
        assert_table_matches_oracle(replies, summaries)
        assert_readers_match_oracle(replies, summaries, network.space.size)

    def test_equi_depth_edges(self):
        network, _ = loaded_pair(n=40, items=4_000)
        summaries = [summarize_peer(network, node, 8, "equi-depth") for node in network.peers()]
        summaries += summaries[:5]  # repeated owners
        replies = ProbeReplies.from_summaries(summaries)
        assert replies.seg_buckets is None and replies.seg_edges is not None
        assert_table_matches_oracle(replies, summaries)
        assert_readers_match_oracle(replies, summaries, network.space.size)

    def test_latest_keeps_last_reply_in_first_position(self):
        first = peer_summary(1, [(0.2, 0.4)], [[3, 1]])
        second = peer_summary(1, [(0.2, 0.4)], [[0, 5]])
        other = peer_summary(2, [(0.6, 0.9), (0.0, 0.1)], [[2, 2], [1, 0]])
        replies = ProbeReplies.from_summaries([first, other, second, other])
        latest = replies.latest()
        assert latest.owner.tolist() == [1, 2]
        assert latest.seg_probe.tolist() == [0, 1, 1]
        assert latest.seg_counts.tolist() == [[0, 5], [2, 2], [1, 0]]
        ours = reference_assemble(to_summaries(latest), (0.0, 1.0))
        theirs = reference_assemble([first, other, second, other], (0.0, 1.0))
        assert ours.cdf.xs.tobytes() == theirs.cdf.xs.tobytes()
        assert ours.cdf.fs.tobytes() == theirs.cdf.fs.tobytes()


SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def routed(summaries):
    """The records packed with distinct targets and hops per probe."""
    count = len(summaries)
    return ProbeReplies.from_summaries(
        summaries, np.arange(count, dtype=np.uint64) * 7, np.arange(count) % 5
    )


class TestTakeAndConcat:
    @SETTINGS
    @given(sample=probe_samples(mixed_buckets=True))
    def test_take_everything_is_the_same_batch(self, sample):
        replies = routed(sample[0])
        assert_same_batch(replies.take(np.arange(len(replies))), replies)

    @SETTINGS
    @given(sample=probe_samples(mixed_buckets=True), data=st.data())
    def test_concat_of_any_split_is_the_original(self, sample, data):
        replies = routed(sample[0])
        cuts = sorted(data.draw(st.lists(st.integers(0, len(replies)), max_size=4)))
        bounds = [0, *cuts, len(replies)]
        pieces = [replies.take(np.arange(a, b)) for a, b in zip(bounds[:-1], bounds[1:])]
        assert_same_batch(ProbeReplies.concat(pieces), replies)

    @SETTINGS
    @given(first=probe_samples(), second=probe_samples(mixed_buckets=True))
    def test_concat_pads_like_packing_the_joined_records(self, first, second):
        """Resolutions and edge columns differ between the batches."""
        a, b = first[0], second[0]
        joined = ProbeReplies.concat([ProbeReplies.from_summaries(a), ProbeReplies.from_summaries(b)])
        assert_same_batch(joined, ProbeReplies.from_summaries(a + b))

    def test_concat_of_compact_and_equi_depth_batches(self):
        network, compact = loaded_pair(n=40, items=4_000)
        indices = np.asarray([0, 3, 3, 17])
        depth = [summarize_peer(network, node, 4, "equi-depth") for node in network.peers()][:6]
        joined = ProbeReplies.concat(
            [summarize_compact(compact, indices, 8), ProbeReplies.from_summaries(depth)]
        )
        expected = ProbeReplies.from_summaries(object_summaries(network, compact, indices) + depth)
        assert joined.seg_buckets is not None and joined.seg_edges is not None
        assert_same_batch(joined, expected)

    @SETTINGS
    @given(first=probe_samples(), second=probe_samples(mixed_buckets=True))
    def test_latest_of_a_concat_keeps_each_owners_last_reply(self, first, second):
        records = first[0] + second[0]
        joined = ProbeReplies.concat(
            [ProbeReplies.from_summaries(first[0]), ProbeReplies.from_summaries(second[0])]
        )
        last = {summary.peer_id: row for row, summary in enumerate(records)}
        firsts = list(dict.fromkeys(summary.peer_id for summary in records))
        assert_same_batch(joined.latest(), joined.take([last[owner] for owner in firsts]))


class TestInvariants:
    @staticmethod
    def columns(**overrides):
        base = dict(
            target=np.zeros(1, dtype=np.uint64),
            hops=np.zeros(1, dtype=np.int64),
            owner=np.zeros(1, dtype=np.uint64),
            segment_length=np.asarray([10], dtype=np.uint64),
            local_count=np.asarray([3], dtype=np.int64),
            seg_probe=np.zeros(1, dtype=np.int64),
            seg_low=np.asarray([0.0]),
            seg_high=np.asarray([1.0]),
            seg_counts=np.asarray([[1, 2]], dtype=np.int64),
        )
        base.update(overrides)
        return base

    def test_valid_batch(self):
        assert len(ProbeReplies(**self.columns())) == 1

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"seg_high": np.asarray([0.0])}, "value_low < value_high"),
            ({"seg_counts": np.asarray([[4, -1]])}, "non-negative"),
            ({"segment_length": np.asarray([0], dtype=np.uint64)}, "positive"),
            ({"local_count": np.asarray([4])}, "local count"),
            ({"hops": np.zeros(2, dtype=np.int64)}, "one entry per probe"),
            (
                {
                    "seg_probe": np.zeros(3, dtype=np.int64),
                    "seg_low": np.asarray([0.0, 1.0, 2.0]),
                    "seg_high": np.asarray([0.5, 1.5, 2.5]),
                    "seg_counts": np.asarray([[1, 0], [1, 0], [1, 0]]),
                },
                "one or two value segments",
            ),
        ],
    )
    def test_broken_batch_rejected(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            ProbeReplies(**self.columns(**overrides))


def test_default_compact_estimate_builds_no_peer_summary(monkeypatch):
    """The default path reads columns end to end: no reply object is built."""
    _network, compact = loaded_pair(n=500, items=20_000)
    built = []
    original = PeerSummary.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(PeerSummary, "__init__", counting_init)
    estimate = DistributionFreeEstimator(probes=64).estimate(
        compact, rng=np.random.default_rng(0)
    )
    assert estimate.n_items > 0 and estimate.probes == 64
    assert built == []
    to_summaries(summarize_compact(compact, [1, 2], 8))
    assert len(built) == 2  # the counter does see reply records when they are built

"""Tests for per-peer summaries (probe replies) and the local CDFs read from them."""

import numpy as np
import pytest

from repro.core.cdf import PiecewiseCDF
from repro.core.cdf_sampling import _local_cdfs
from repro.core.replies import ProbeReplies
from repro.core.synopsis import PeerSummary, SegmentSummary, summarize_peer
from repro.ring.network import RingNetwork

from tests.conftest import make_loaded_network


def local_cdf(summary: PeerSummary) -> PiecewiseCDF:
    """The peer's local CDF ``H_p`` as the mixture assembly reads it from columns."""
    xs, fs, _ = _local_cdfs(ProbeReplies.from_summaries([summary]))
    return PiecewiseCDF(xs, fs)


def count_leq(summary: PeerSummary, x: float) -> float:
    """Estimated count of the peer's items ``<= x``, from its local CDF."""
    return float(local_cdf(summary)(x)) * summary.local_count


def one_segment(seg: SegmentSummary) -> PeerSummary:
    return PeerSummary(peer_id=1, segment_length=10, local_count=seg.total, segments=(seg,))


class TestSegmentSummary:
    def make(self, counts=(2, 0, 3), low=0.0, high=0.3):
        return SegmentSummary(low, high, np.asarray(counts, dtype=np.int64))

    def test_total_and_buckets(self):
        seg = self.make()
        assert seg.total == 5
        assert seg.buckets == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            SegmentSummary(0.5, 0.5, np.array([1]))
        with pytest.raises(ValueError):
            SegmentSummary(0.0, 1.0, np.array([-1]))
        with pytest.raises(ValueError):
            SegmentSummary(0.0, 1.0, np.array([], dtype=np.int64))

    def test_bucket_edges(self):
        seg = self.make()
        np.testing.assert_allclose(seg.bucket_edges(), [0.0, 0.1, 0.2, 0.3])

    def test_count_leq_edges(self):
        summary = one_segment(self.make())
        assert count_leq(summary, -1.0) == 0.0
        assert count_leq(summary, 0.1) == pytest.approx(2.0)
        assert count_leq(summary, 0.3) == 5.0
        assert count_leq(summary, 99.0) == 5.0

    def test_count_leq_interpolates(self):
        summary = one_segment(self.make())
        # Halfway through the last bucket (which holds 3 items).
        assert count_leq(summary, 0.25) == pytest.approx(2 + 1.5)


class TestPeerSummaryValidation:
    def test_total_must_match(self):
        seg = SegmentSummary(0.0, 1.0, np.array([2, 2]))
        with pytest.raises(ValueError):
            PeerSummary(peer_id=1, segment_length=10, local_count=5, segments=(seg,))

    def test_segment_count_bounds(self):
        seg = SegmentSummary(0.0, 1.0, np.array([1]))
        with pytest.raises(ValueError):
            PeerSummary(peer_id=1, segment_length=10, local_count=3, segments=(seg, seg, seg))

    def test_density(self):
        seg = SegmentSummary(0.0, 1.0, np.array([4]))
        summary = PeerSummary(peer_id=1, segment_length=8, local_count=4, segments=(seg,))
        assert ProbeReplies.from_summaries([summary]).density[0] == 0.5

    def test_nonpositive_segment_length(self):
        seg = SegmentSummary(0.0, 1.0, np.array([0]))
        with pytest.raises(ValueError):
            PeerSummary(peer_id=1, segment_length=0, local_count=0, segments=(seg,))


class TestLocalCdf:
    def test_local_cdf_shape(self):
        seg = SegmentSummary(0.0, 0.4, np.array([1, 3]))
        summary = PeerSummary(peer_id=1, segment_length=10, local_count=4, segments=(seg,))
        cdf = local_cdf(summary)
        assert cdf(0.0) == pytest.approx(0.0)
        assert cdf(0.2) == pytest.approx(0.25)
        assert cdf(0.4) == pytest.approx(1.0)

    def test_local_cdf_two_segments(self):
        a = SegmentSummary(0.8, 1.0, np.array([2]))
        b = SegmentSummary(0.0, 0.2, np.array([2]))
        summary = PeerSummary(peer_id=1, segment_length=10, local_count=4, segments=(a, b))
        cdf = local_cdf(summary)
        # Half the items are below the domain's low end region boundary.
        assert cdf(0.2) == pytest.approx(0.5)
        assert cdf(1.0) == pytest.approx(1.0)

    def test_empty_peer_degenerate_cdf(self):
        seg = SegmentSummary(0.0, 1.0, np.array([0]))
        summary = PeerSummary(peer_id=1, segment_length=10, local_count=0, segments=(seg,))
        cdf = local_cdf(summary)
        assert cdf(1.0) <= 1.0  # well-formed even with no data

    def test_count_leq_across_segments(self):
        a = SegmentSummary(0.8, 1.0, np.array([2]))
        b = SegmentSummary(0.0, 0.2, np.array([2]))
        summary = PeerSummary(peer_id=1, segment_length=10, local_count=4, segments=(a, b))
        assert count_leq(summary, 0.5) == pytest.approx(2.0)
        assert count_leq(summary, 1.0) == pytest.approx(4.0)


class TestSummarizePeer:
    def test_totals_match_everywhere(self):
        network, _ = make_loaded_network(n_peers=32, n_items=2_000)
        for node in network.peers():
            summary = summarize_peer(network, node, buckets=8)
            assert summary.local_count == node.store.count
            assert sum(seg.total for seg in summary.segments) == node.store.count
            assert summary.segment_length == node.segment_length

    def test_summaries_tile_the_domain(self):
        """Union of all peers' value segments covers the whole domain."""
        network, _ = make_loaded_network(n_peers=32, n_items=100)
        pieces = []
        for node in network.peers():
            summary = summarize_peer(network, node, buckets=4)
            pieces.extend((seg.value_low, seg.value_high) for seg in summary.segments)
        pieces.sort()
        low, high = network.domain
        assert pieces[0][0] == pytest.approx(low)
        coverage_end = pieces[0][1]
        for seg_low, seg_high in pieces[1:]:
            assert seg_low == pytest.approx(coverage_end, abs=1e-9)
            coverage_end = max(coverage_end, seg_high)
        assert coverage_end == pytest.approx(high)

    def test_wrapped_peer_has_two_segments(self):
        network, _ = make_loaded_network(n_peers=32, n_items=100)
        # The peer owning ring position 0 wraps (unless its id is exactly 0).
        wrapped = network.owner_of(0)
        summary = summarize_peer(network, wrapped, buckets=4)
        if wrapped.predecessor_id > wrapped.ident:
            assert len(summary.segments) == 2

    def test_single_peer_network(self):
        network = RingNetwork.create(1, seed=3)
        network.load_data([0.1, 0.5, 0.9])
        node = next(network.peers())
        summary = summarize_peer(network, node, buckets=4)
        assert len(summary.segments) == 1
        assert summary.local_count == 3
        assert summary.segments[0].value_low == network.domain[0]
        assert summary.segments[0].value_high == network.domain[1]

    def test_invalid_buckets(self):
        network, _ = make_loaded_network(n_peers=4, n_items=10)
        with pytest.raises(ValueError):
            summarize_peer(network, network.random_peer(), buckets=0)

    def test_local_cdf_matches_store(self):
        """With many buckets, the synopsis CDF ≈ the exact local CDF."""
        network, _ = make_loaded_network(n_peers=8, n_items=4_000)
        node = max(network.peers(), key=lambda n: n.store.count)
        summary = summarize_peer(network, node, buckets=64)
        cdf = local_cdf(summary)
        values = node.store.as_array()
        for q in (0.25, 0.5, 0.75):
            x = float(np.quantile(values, q))
            expected = np.searchsorted(values, x, side="right") / node.store.count
            assert float(cdf(x)) == pytest.approx(expected, abs=0.05)

"""Tests for the equi-depth (quantile) synopsis variant."""

import numpy as np
import pytest

from repro.core.synopsis import SegmentSummary, summarize_peer

from tests.conftest import make_loaded_network
from tests.core.test_synopsis import count_leq, local_cdf, one_segment


class TestFromQuantiles:
    def test_equal_depths(self):
        values = np.linspace(0.1, 0.9, 80)
        seg = SegmentSummary.from_quantiles(0.0, 1.0, values, buckets=8)
        assert seg.total == 80
        np.testing.assert_array_equal(seg.counts, np.full(8, 10))

    def test_edges_span_segment(self):
        values = np.array([0.4, 0.5, 0.6])
        seg = SegmentSummary.from_quantiles(0.0, 1.0, values, buckets=2)
        assert seg.bucket_edges()[0] == 0.0
        assert seg.bucket_edges()[-1] == 1.0

    def test_edges_track_data_density(self):
        # Data concentrated near 0.1: inner edges cluster there.
        rng = np.random.default_rng(0)
        values = np.clip(rng.normal(0.1, 0.02, 400), 0, 1)
        seg = SegmentSummary.from_quantiles(0.0, 1.0, values, buckets=8)
        inner = seg.bucket_edges()[1:-1]
        assert np.median(inner) < 0.2

    def test_repeated_values_make_point_mass_buckets(self):
        values = np.array([0.5] * 100 + [0.6] * 4)
        seg = SegmentSummary.from_quantiles(0.0, 1.0, values, buckets=4)
        edges = seg.bucket_edges()
        # At least one zero-width bucket captures the 0.5 atom exactly.
        assert np.any(np.diff(edges) == 0)
        # The count up to just past the atom misses at most one mixed
        # bucket's worth of items (the within-bucket lossiness guarantee).
        assert count_leq(one_segment(seg), 0.5000001) >= 100 - int(seg.counts.max())

    def test_empty_values(self):
        seg = SegmentSummary.from_quantiles(0.0, 1.0, np.array([]), buckets=4)
        assert seg.total == 0
        assert seg.buckets == 4

    def test_invalid_buckets(self):
        with pytest.raises(ValueError):
            SegmentSummary.from_quantiles(0.0, 1.0, np.array([0.5]), buckets=0)

    def test_edges_validation(self):
        with pytest.raises(ValueError):
            SegmentSummary(0.0, 1.0, np.array([1, 2]), edges=np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            SegmentSummary(
                0.0, 1.0, np.array([1]), edges=np.array([0.1, 1.0])
            )  # does not start at value_low

    def test_count_leq_matches_data(self):
        rng = np.random.default_rng(1)
        values = np.sort(rng.uniform(0.2, 0.8, 200))
        seg = SegmentSummary.from_quantiles(0.0, 1.0, values, buckets=16)
        for x in (0.3, 0.5, 0.7):
            true_count = int(np.count_nonzero(values <= x))
            assert count_leq(one_segment(seg), x) == pytest.approx(true_count, abs=200 / 16 + 1)


class TestSummarizeKinds:
    def test_kind_validated(self):
        network, _ = make_loaded_network(n_peers=8, n_items=100)
        with pytest.raises(ValueError):
            summarize_peer(network, network.random_peer(), 4, kind="t-digest")

    def test_equi_depth_totals_match(self):
        network, _ = make_loaded_network(n_peers=32, n_items=2_000)
        for node in network.peers():
            summary = summarize_peer(network, node, 8, kind="equi-depth")
            assert summary.local_count == node.store.count

    def test_equi_depth_local_cdf_tracks_store(self):
        network, _ = make_loaded_network(n_peers=8, n_items=4_000)
        node = max(network.peers(), key=lambda n: n.store.count)
        summary = summarize_peer(network, node, 16, kind="equi-depth")
        cdf = local_cdf(summary)
        values = node.store.as_array()
        for q in (0.25, 0.5, 0.75):
            x = float(np.quantile(values, q))
            expected = np.searchsorted(values, x, side="right") / node.store.count
            assert float(cdf(x)) == pytest.approx(expected, abs=0.08)

    def test_estimator_accepts_kind(self):
        from repro.core.estimator import DistributionFreeEstimator

        network, _ = make_loaded_network(n_peers=32, n_items=1_000)
        estimate = DistributionFreeEstimator(
            probes=16, synopsis_kind="equi-depth"
        ).estimate(network, rng=np.random.default_rng(0))
        assert estimate.cdf.total_mass == pytest.approx(1.0)

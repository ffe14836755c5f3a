"""Tests for bootstrap confidence bands."""

import numpy as np
import pytest

from repro.core.cdf_sampling import collect_probes
from repro.core.replies import ProbeReplies
from repro.core.confidence import (
    ConfidenceBand,
    bootstrap_confidence_band,
    estimate_with_confidence,
)

from tests.conftest import make_loaded_network


@pytest.fixture(scope="module")
def probe_world():
    network, _ = make_loaded_network(n_peers=96, n_items=6_000)
    from repro.core.cdf import empirical_cdf

    truth = empirical_cdf(network.all_values())
    results = collect_probes(network, 48, buckets=8, rng=np.random.default_rng(0))
    return network, truth, results


class TestConstruction:
    def test_band_shape_and_order(self, probe_world):
        network, _, summaries = probe_world
        band = bootstrap_confidence_band(
            summaries, network.domain, replicates=100, rng=np.random.default_rng(1)
        )
        assert band.grid.size == band.lower.size == band.upper.size
        assert np.all(band.lower <= band.upper + 1e-12)
        assert np.all(np.diff(band.lower) >= -1e-12)  # monotone CDF bounds
        assert np.all(band.lower >= 0) and np.all(band.upper <= 1)

    def test_validation(self, probe_world):
        network, _, summaries = probe_world
        with pytest.raises(ValueError):
            bootstrap_confidence_band(ProbeReplies.from_summaries([]), network.domain)
        with pytest.raises(ValueError):
            bootstrap_confidence_band(summaries, network.domain, level=1.5)
        with pytest.raises(ValueError):
            bootstrap_confidence_band(summaries, network.domain, replicates=1)

    def test_inverted_band_rejected(self):
        grid = np.linspace(0, 1, 4)
        with pytest.raises(ValueError):
            ConfidenceBand(grid, np.full(4, 0.9), np.full(4, 0.1), 0.9, 10)


class TestStatisticalBehaviour:
    def test_band_covers_truth_mostly(self, probe_world):
        network, truth, summaries = probe_world
        band = bootstrap_confidence_band(
            summaries, network.domain, level=0.9, replicates=200,
            rng=np.random.default_rng(2),
        )
        # Pointwise 90% band: truth inside at the large majority of points.
        assert band.coverage_of(truth) > 0.6

    def test_band_shrinks_with_probes(self):
        network, _ = make_loaded_network(n_peers=96, n_items=6_000, seed=3)
        widths = {}
        for probes in (12, 96):
            results = collect_probes(
                network, probes, buckets=8, rng=np.random.default_rng(4)
            )
            band = bootstrap_confidence_band(
                results,
                network.domain,
                replicates=150,
                rng=np.random.default_rng(5),
            )
            widths[probes] = band.mean_width
        assert widths[96] < widths[12]


class TestEstimateWithConfidence:
    def test_returns_both(self, probe_world):
        network, truth, _ = probe_world
        estimate, band = estimate_with_confidence(
            network, probes=32, rng=np.random.default_rng(7)
        )
        assert estimate.method == "distribution-free+band"
        assert isinstance(band, ConfidenceBand)
        # The point estimate lies inside its own band almost everywhere.
        inside = band.coverage_of(estimate.cdf)
        assert inside > 0.95

    def test_single_probing_pass(self, probe_world):
        network, _, _ = probe_world
        before = network.stats.messages
        estimate, _ = estimate_with_confidence(
            network, probes=16, rng=np.random.default_rng(8)
        )
        # Band computation costs no extra network traffic.
        assert network.stats.messages - before == estimate.messages

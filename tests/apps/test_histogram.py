"""Tests for global equi-depth histogram construction."""

import numpy as np
import pytest

from repro.apps.histogram import (
    EquiDepthHistogram,
    build_equi_depth_histogram,
    evaluate_equi_depth,
)
from repro.core.adaptive import AdaptiveDensityEstimator
from repro.core.cdf_compute import compute_global_cdf_broadcast

from tests.conftest import make_loaded_network


@pytest.fixture(scope="module")
def world():
    network, _ = make_loaded_network("zipf", n_peers=64, n_items=6_000, seed=3)
    estimate = AdaptiveDensityEstimator(probes=96).estimate(
        network, rng=np.random.default_rng(0)
    )
    return network, estimate


class TestConstruction:
    def test_basic_shape(self, world):
        _, estimate = world
        histogram = build_equi_depth_histogram(estimate, 16)
        assert histogram.buckets == 16
        assert histogram.boundaries.size == 17
        assert histogram.intended_depth == pytest.approx(1 / 16)

    def test_buckets_validated(self, world):
        _, estimate = world
        with pytest.raises(ValueError):
            build_equi_depth_histogram(estimate, 0)

    def test_histogram_validation(self):
        with pytest.raises(ValueError):
            EquiDepthHistogram(np.array([1.0]), 1.0, 10)
        with pytest.raises(ValueError):
            EquiDepthHistogram(np.array([2.0, 1.0]), 0.5, 10)


class TestEquiDepthProperty:
    def test_depths_are_nearly_equal(self, world):
        network, estimate = world
        histogram = build_equi_depth_histogram(estimate, 16)
        report = evaluate_equi_depth(histogram, network.all_values())
        assert report.depth_rmse < 0.02
        assert report.max_depth < 2.5 / 16

    def test_exact_estimate_gives_tight_depths(self):
        network, _ = make_loaded_network("zipf", n_peers=32, n_items=5_000, seed=5)
        estimate = compute_global_cdf_broadcast(network, buckets=64)
        histogram = build_equi_depth_histogram(estimate, 8)
        report = evaluate_equi_depth(histogram, network.all_values())
        assert report.depth_rmse < 0.01

    def test_histogram_selectivity_tracks_truth(self, world):
        network, estimate = world
        histogram = build_equi_depth_histogram(estimate, 32)
        values = network.all_values()
        for low, high in ((0.02, 0.05), (0.05, 0.3), (0.3, 0.9)):
            true_sel = float(np.mean((values >= low) & (values < high)))
            assert histogram.selectivity(low, high) == pytest.approx(true_sel, abs=0.06)

    def test_selectivity_validation(self, world):
        _, estimate = world
        histogram = build_equi_depth_histogram(estimate, 4)
        with pytest.raises(ValueError):
            histogram.selectivity(0.5, 0.4)

    def test_evaluate_needs_data(self, world):
        _, estimate = world
        histogram = build_equi_depth_histogram(estimate, 4)
        with pytest.raises(ValueError):
            evaluate_equi_depth(histogram, np.array([]))

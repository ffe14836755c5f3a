"""Tests for load-balance analysis."""

import numpy as np
import pytest

from repro.apps.load_balance import (
    analyze_load_balance,
    coefficient_of_variation,
    gini_coefficient,
    predict_peer_loads,
    rebalanced_boundaries,
)
from repro.core.adaptive import AdaptiveDensityEstimator
from repro.core.cdf_compute import compute_global_cdf_broadcast

from tests.conftest import make_loaded_network


class TestGini:
    def test_perfectly_even(self):
        assert gini_coefficient(np.array([5.0, 5.0, 5.0])) == pytest.approx(0.0, abs=1e-9)

    def test_perfectly_uneven(self):
        # One peer holds everything: Gini -> (n-1)/n.
        gini = gini_coefficient(np.array([0.0, 0.0, 0.0, 12.0]))
        assert gini == pytest.approx(0.75)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gini_coefficient(np.array([]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gini_coefficient(np.array([-1.0, 1.0]))

    def test_all_zero_is_even(self):
        assert gini_coefficient(np.zeros(5)) == 0.0

    def test_scale_invariant(self):
        loads = np.array([1.0, 2.0, 3.0, 10.0])
        assert gini_coefficient(loads) == pytest.approx(gini_coefficient(10 * loads))


class TestCov:
    def test_even_is_zero(self):
        assert coefficient_of_variation(np.array([3.0, 3.0])) == 0.0

    def test_known_value(self):
        loads = np.array([0.0, 2.0])
        assert coefficient_of_variation(loads) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            coefficient_of_variation(np.array([]))

    def test_zero_mean(self):
        assert coefficient_of_variation(np.zeros(3)) == 0.0


class TestPrediction:
    def test_exact_estimate_predicts_loads_exactly(self):
        """With the exact global CDF, predicted loads ≈ actual loads."""
        network, _ = make_loaded_network(n_peers=32, n_items=4_000)
        estimate = compute_global_cdf_broadcast(network, buckets=64)
        predicted = predict_peer_loads(network, estimate)
        actual = network.peer_loads().astype(float)
        assert predicted.sum() == pytest.approx(actual.sum(), rel=0.01)
        assert float(np.mean(np.abs(predicted - actual))) < 0.05 * actual.mean() + 2

    def test_prediction_shape(self):
        network, _ = make_loaded_network(n_peers=16, n_items=500)
        estimate = AdaptiveDensityEstimator(probes=16).estimate(
            network, rng=np.random.default_rng(1)
        )
        predicted = predict_peer_loads(network, estimate)
        assert predicted.size == 16
        assert np.all(predicted >= 0)

    def test_analyze_report(self):
        network, _ = make_loaded_network("zipf", n_peers=64, n_items=5_000, seed=4)
        estimate = AdaptiveDensityEstimator(probes=64).estimate(
            network, rng=np.random.default_rng(2)
        )
        report = analyze_load_balance(network, estimate)
        assert 0 <= report.actual_gini <= 1
        assert 0 <= report.predicted_gini <= 1
        # Zipf on random placement is heavily imbalanced; prediction should
        # agree at least qualitatively.
        assert report.actual_gini > 0.5
        assert report.predicted_gini > 0.3


class TestRebalancing:
    def test_boundaries_equalise_mass(self):
        network, _ = make_loaded_network("zipf", n_peers=32, n_items=4_000, seed=5)
        estimate = compute_global_cdf_broadcast(network, buckets=64)
        boundaries = rebalanced_boundaries(estimate, 8)
        assert boundaries.size == 9
        values = network.all_values()
        counts, _ = np.histogram(values, bins=boundaries)
        # Each part should hold ~1/8 of the data.
        np.testing.assert_allclose(counts / values.size, np.full(8, 1 / 8), atol=0.03)

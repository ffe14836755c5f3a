"""Tests for approximate aggregate queries."""

import numpy as np
import pytest

from repro.apps.aggregates import AggregateEngine, evaluate_aggregates
from repro.core.adaptive import AdaptiveDensityEstimator
from repro.core.cdf_compute import compute_global_cdf_broadcast
from repro.data.workload import RangeQuery

from tests.conftest import make_loaded_network


@pytest.fixture(scope="module")
def world():
    network, _ = make_loaded_network(n_peers=64, n_items=6_000)
    estimate = AdaptiveDensityEstimator(probes=64).estimate(
        network, rng=np.random.default_rng(0)
    )
    return network, AggregateEngine(estimate)


class TestEngine:
    def test_cells_validated(self, world):
        _, engine = world
        with pytest.raises(ValueError):
            AggregateEngine(engine.estimate, integration_cells=2)

    def test_whole_domain_count(self, world):
        network, engine = world
        answer = engine.query()
        assert answer.count == pytest.approx(network.total_count, rel=0.15)

    def test_range_count(self, world):
        network, engine = world
        query = RangeQuery(0.4, 0.6)
        answer = engine.query(query)
        true_count = query.true_selectivity(network.all_values()) * network.total_count
        assert answer.count == pytest.approx(true_count, rel=0.2)

    def test_mean_is_inside_range(self, world):
        _, engine = world
        query = RangeQuery(0.3, 0.7)
        answer = engine.query(query)
        assert 0.3 <= answer.mean <= 0.7
        assert 0.3 <= answer.median <= 0.7

    def test_sum_consistent_with_count_and_mean(self, world):
        _, engine = world
        answer = engine.query(RangeQuery(0.2, 0.8))
        assert answer.total == pytest.approx(answer.count * answer.mean, rel=1e-9)

    def test_empty_range_nan_stats(self, world):
        _, engine = world
        # Out-of-domain range.
        answer = engine.query(RangeQuery(5.0, 6.0))
        assert answer.count == 0.0
        assert np.isnan(answer.mean)

    def test_exact_estimate_gives_near_exact_aggregates(self):
        network, _ = make_loaded_network(n_peers=32, n_items=4_000, seed=9)
        engine = AggregateEngine(compute_global_cdf_broadcast(network, buckets=64))
        values = network.all_values()
        query = RangeQuery(0.25, 0.75)
        inside = values[(values >= 0.25) & (values < 0.75)]
        answer = engine.query(query)
        assert answer.count == pytest.approx(inside.size, rel=0.02)
        assert answer.total == pytest.approx(inside.sum(), rel=0.02)
        assert answer.mean == pytest.approx(inside.mean(), abs=0.01)
        assert answer.median == pytest.approx(np.median(inside), abs=0.02)


class TestEvaluation:
    def test_errors_are_small_for_good_estimates(self, world):
        network, engine = world
        report = evaluate_aggregates(engine, RangeQuery(0.3, 0.7), network.all_values())
        assert report.count_error < 0.2
        assert report.sum_error < 0.2
        assert report.mean_error < 0.05
        assert report.median_error < 0.05

    def test_empty_true_range_handled(self, world):
        network, engine = world
        report = evaluate_aggregates(
            engine, RangeQuery(0.999999, 0.9999999), network.all_values()
        )
        assert np.isnan(report.mean_error) or report.mean_error >= 0

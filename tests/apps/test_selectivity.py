"""Tests for range-query selectivity estimation."""

import numpy as np
import pytest

from repro.apps.selectivity import (
    estimate_selectivities,
    estimate_selectivity,
    evaluate_selectivity,
)
from repro.core.adaptive import AdaptiveDensityEstimator
from repro.data.workload import RangeQuery, RangeQueryWorkload

from tests.conftest import make_loaded_network


@pytest.fixture(scope="module")
def world():
    network, _ = make_loaded_network(n_peers=64, n_items=5_000)
    estimate = AdaptiveDensityEstimator(probes=48).estimate(
        network, rng=np.random.default_rng(0)
    )
    return network, estimate


class TestEstimateSelectivity:
    def test_full_domain_is_one(self, world):
        network, estimate = world
        low, high = network.domain
        assert estimate_selectivity(estimate, RangeQuery(low, high)) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_respects_cdf(self, world):
        _, estimate = world
        query = RangeQuery(0.3, 0.6)
        expected = float(estimate.cdf(0.6)) - float(estimate.cdf(0.3))
        assert estimate_selectivity(estimate, query) == pytest.approx(expected)
        # The batch path is the scalar one, element for element.
        workload = [query, RangeQuery(-0.5, 0.2), RangeQuery(0.9, 1.5)]
        assert estimate_selectivities(estimate, workload).tolist() == [
            estimate_selectivity(estimate, q) for q in workload
        ]

    def test_accurate_against_truth(self, world):
        network, estimate = world
        values = network.all_values()
        query = RangeQuery(0.4, 0.6)
        true_sel = query.true_selectivity(values)
        assert estimate_selectivity(estimate, query) == pytest.approx(true_sel, abs=0.05)


class TestEvaluateSelectivity:
    def test_report_fields(self, world):
        network, estimate = world
        workload = RangeQueryWorkload.random(network.domain, 50, seed=1)
        report = evaluate_selectivity(estimate, workload, network.all_values())
        assert report.queries == 50
        assert 0 <= report.mean_abs_error <= report.max_abs_error
        assert report.mean_true_selectivity > 0

    def test_good_estimate_low_error(self, world):
        network, estimate = world
        workload = RangeQueryWorkload.random(network.domain, 100, span_fraction=0.2, seed=2)
        report = evaluate_selectivity(estimate, workload, network.all_values())
        assert report.mean_abs_error < 0.05

    def test_accepts_plain_query_list(self, world):
        network, estimate = world
        queries = [RangeQuery(0.1, 0.2), RangeQuery(0.5, 0.9)]
        report = evaluate_selectivity(estimate, queries, network.all_values())
        assert report.queries == 2

    def test_empty_workload_rejected(self, world):
        network, estimate = world
        with pytest.raises(ValueError):
            evaluate_selectivity(estimate, [], network.all_values())

    def test_relative_floor_guards_tiny_queries(self, world):
        network, estimate = world
        tiny = [RangeQuery(0.0, 1e-9)]
        report = evaluate_selectivity(estimate, tiny, network.all_values())
        assert np.isfinite(report.mean_relative_error)

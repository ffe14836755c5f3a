"""Tests for range-query execution and planning."""

import numpy as np
import pytest

from repro.apps.range_query import (
    execute_range_query,
    plan_range_queries,
    plan_range_query,
    true_range_counts,
)
from repro.core.adaptive import AdaptiveDensityEstimator
from repro.data.workload import RangeQuery

from tests.conftest import make_loaded_network


@pytest.fixture(scope="module")
def world():
    network, _ = make_loaded_network(n_peers=48, n_items=4_000)
    estimate = AdaptiveDensityEstimator(probes=48).estimate(
        network, rng=np.random.default_rng(0)
    )
    return network, estimate


class TestExecution:
    def test_exact_results(self, world):
        network, _ = world
        query = RangeQuery(0.3, 0.6)
        result = execute_range_query(network, query)
        values = network.all_values()
        expected = np.sort(values[(values >= 0.3) & (values < 0.6)])
        np.testing.assert_array_equal(result.values, expected)
        # The snapshot-plane oracle counts what execution fetches: inside
        # the domain, across either bound, wholly outside, and for no query.
        workload = [query, RangeQuery(-0.5, 0.2), RangeQuery(0.9, 1.5), RangeQuery(5.0, 6.0)]
        assert true_range_counts(network, workload).tolist() == [
            execute_range_query(network, q).count for q in workload
        ]
        assert true_range_counts(network, []).tolist() == []

    def test_whole_domain(self, world):
        network, _ = world
        result = execute_range_query(network, RangeQuery(0.0, 1.0))
        assert result.count == network.total_count
        assert result.peers_visited == network.n_peers

    def test_narrow_query_visits_few_peers(self, world):
        network, _ = world
        result = execute_range_query(network, RangeQuery(0.5, 0.502))
        assert result.peers_visited <= 4

    def test_out_of_domain_is_empty(self, world):
        network, _ = world
        result = execute_range_query(network, RangeQuery(5.0, 6.0))
        assert result.count == 0
        assert result.messages == 0

    def test_costs_counted(self, world):
        network, _ = world
        before = network.stats.messages
        result = execute_range_query(network, RangeQuery(0.2, 0.4))
        assert network.stats.messages - before == result.messages
        assert result.messages >= 2 * result.peers_visited

    def test_payload_counts_items(self, world):
        network, _ = world
        from repro.ring.messages import MessageType

        before = network.stats.payload_of(MessageType.PROBE_REPLY)
        result = execute_range_query(network, RangeQuery(0.45, 0.55))
        after = network.stats.payload_of(MessageType.PROBE_REPLY)
        assert after - before == result.count

    def test_survives_churn(self):
        from repro.ring.churn import ChurnConfig, ChurnProcess

        network, _ = make_loaded_network(n_peers=32, n_items=1_000, seed=9)
        ChurnProcess(
            network,
            ChurnConfig(join_rate=0.1, leave_rate=0.1, crash_fraction=0.0),
            rng=np.random.default_rng(1),
        ).run(5)
        query = RangeQuery(0.2, 0.8)
        result = execute_range_query(network, query)
        values = network.all_values()
        expected = int(np.count_nonzero((values >= 0.2) & (values < 0.8)))
        assert result.count == expected


class TestPlanning:
    def test_item_prediction_tracks_actual(self, world):
        network, estimate = world
        query = RangeQuery(0.25, 0.75)
        plan = plan_range_query(network, estimate, query)
        actual = execute_range_query(network, query)
        assert plan.expected_items == pytest.approx(actual.count, rel=0.2)

    def test_peer_prediction_tracks_actual(self, world):
        network, estimate = world
        query = RangeQuery(0.1, 0.9)
        plan = plan_range_query(network, estimate, query)
        actual = execute_range_query(network, query)
        assert plan.expected_peers == pytest.approx(actual.peers_visited, rel=0.4)

    def test_admission_budget(self, world):
        network, estimate = world
        wide = RangeQuery(0.0, 1.0)
        assert not plan_range_query(network, estimate, wide, max_items=10).admitted
        assert plan_range_query(network, estimate, wide, max_items=1e9).admitted
        assert plan_range_query(network, estimate, wide).admitted
        # The batch planner is the scalar one, element for element.
        workload = [wide, RangeQuery(0.3, 0.5), RangeQuery(0.9, 1.5)]
        assert plan_range_queries(network, estimate, workload, max_items=10) == [
            plan_range_query(network, estimate, q, max_items=10) for q in workload
        ]

    def test_plan_costs_no_messages(self, world):
        network, estimate = world
        before = network.stats.messages
        plan_range_query(network, estimate, RangeQuery(0.3, 0.5))
        assert network.stats.messages == before

"""End-to-end graceful degradation: faults yield results, not tracebacks.

The contract under test: with a fault plane active (or a bounded retry
policy in force) no user-facing ``estimate()`` or app entry point raises —
every path returns an explicit degraded result carrying coverage and
failure reasons.
"""

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveDensityEstimator
from repro.core.baselines.gossip import PushSumHistogramEstimator
from repro.core.baselines.naive import NaivePeerSamplingEstimator
from repro.core.baselines.parametric import ParametricEstimator
from repro.core.baselines.random_walk import RandomWalkEstimator
from repro.core.estimate import DegradedEstimate
from repro.core.estimator import DistributionFreeEstimator
from repro.ring.faults import FaultPlane, RetryPolicy
from repro.ring.identifier import IdentifierSpace
from repro.ring.network import RingNetwork

from tests.conftest import make_loaded_network

ALL_ESTIMATORS = (
    DistributionFreeEstimator(probes=8),
    AdaptiveDensityEstimator(probes=8),
    NaivePeerSamplingEstimator(probes=8),
    RandomWalkEstimator(probes=4, walk_length=4),
    PushSumHistogramEstimator(buckets=8, rounds=5),
    ParametricEstimator(probes=8),
)


class TestEmptyRing:
    @pytest.mark.parametrize(
        "estimator", ALL_ESTIMATORS, ids=lambda e: type(e).__name__
    )
    def test_empty_ring_returns_degraded(self, estimator):
        network = RingNetwork(IdentifierSpace(16))
        estimate = estimator.estimate(network, rng=np.random.default_rng(0))
        assert isinstance(estimate, DegradedEstimate)
        assert estimate.degraded is True
        assert estimate.coverage == 0.0
        assert estimate.failures
        # The uniform-prior fallback is still a usable CDF.
        assert float(estimate.cdf(network.domain[1])) == pytest.approx(1.0)


class TestRetryExhaustion:
    def test_heavy_loss_with_tiny_budget_degrades(self):
        network, _ = make_loaded_network(n_peers=32, n_items=500, seed=3)
        network.loss_rate = 0.9
        policy = RetryPolicy(max_attempts=1)
        estimate = DistributionFreeEstimator(probes=16, retry=policy).estimate(
            network, rng=np.random.default_rng(1)
        )
        assert estimate.degraded
        assert estimate.coverage < 1.0
        assert estimate.failures
        # Widened uncertainty: the inflation factor follows 1/sqrt(coverage).
        if estimate.coverage > 0:
            assert estimate.ci_inflation == pytest.approx(
                1.0 / np.sqrt(estimate.coverage)
            )
        else:
            assert np.isinf(estimate.ci_inflation)

    def test_generous_budget_restores_full_coverage(self):
        network, _ = make_loaded_network(n_peers=32, n_items=500, seed=3)
        network.loss_rate = 0.1
        estimate = DistributionFreeEstimator(
            probes=16, retry=RetryPolicy(max_attempts=16)
        ).estimate(network, rng=np.random.default_rng(1))
        # All probes eventually delivered: a plain, non-degraded estimate.
        assert estimate.coverage == 1.0
        assert not estimate.degraded


class TestCrashAndStall:
    def test_crash_burst_mid_estimation_degrades_not_raises(self):
        network, _ = make_loaded_network(n_peers=32, n_items=500, seed=7)
        plane = network.install_faults(FaultPlane(seed=2))
        # Crash a third of the ring, then stall a chunk of the survivors:
        # probes that land on stalled owners fail, the rest succeed.
        plane.crash_burst(network, fraction=0.3)
        plane.at(plane.round, stall_fraction=0.3)
        plane.advance(network)
        estimate = DistributionFreeEstimator(probes=16).estimate(
            network, rng=np.random.default_rng(4)
        )
        assert estimate.coverage <= 1.0
        if isinstance(estimate, DegradedEstimate):
            assert estimate.probes_requested == 16
            assert estimate.failures

    def test_all_peers_stalled_gives_zero_evidence(self):
        network, _ = make_loaded_network(n_peers=8, n_items=100, seed=5)
        plane = network.install_faults(FaultPlane(seed=0))
        plane.stall(list(network.peer_ids()))
        estimate = DistributionFreeEstimator(probes=8).estimate(
            network, rng=np.random.default_rng(0)
        )
        assert estimate.degraded
        assert estimate.coverage == 0.0
        assert "entry_stalled" in estimate.failures


class TestPartition:
    def _partitioned_network(self, seed=9):
        network, _ = make_loaded_network(n_peers=32, n_items=500, seed=seed)
        plane = network.install_faults(FaultPlane(seed=1))
        size = network.space.size
        plane.partition([0, size // 2])
        return network, plane

    def test_partitioned_estimation_degrades_not_raises(self):
        network, _ = self._partitioned_network()
        estimate = DistributionFreeEstimator(probes=16).estimate(
            network, rng=np.random.default_rng(2)
        )
        assert estimate.degraded
        assert 0.0 < estimate.coverage < 1.0
        assert "partitioned" in estimate.failures

    def test_partition_isolated_entry_range_query(self):
        from repro.apps.range_query import execute_range_query
        from repro.data.workload import RangeQuery

        network, plane = self._partitioned_network()
        low, high = network.domain
        query = RangeQuery(low, high)  # spans both arcs: must hit the cut
        result = execute_range_query(network, query)
        # Either the entry could not reach the range start's arc, or the
        # sweep stopped at the partition boundary — never an exception.
        if result.failure is not None:
            assert result.failure in ("partitioned", "owner_unresponsive")


class TestAppsPropagation:
    def _degraded_estimate(self):
        network, dataset = make_loaded_network(n_peers=32, n_items=500, seed=13)
        plane = network.install_faults(FaultPlane(seed=3))
        plane.at(plane.round, stall_fraction=0.4)
        plane.advance(network)
        estimate = DistributionFreeEstimator(probes=16).estimate(
            network, rng=np.random.default_rng(6)
        )
        assert estimate.degraded  # precondition for the propagation checks
        return network, dataset, estimate

    def test_selectivity_report_carries_flag(self):
        from repro.apps.selectivity import evaluate_selectivity
        from repro.data.workload import RangeQueryWorkload

        network, dataset, estimate = self._degraded_estimate()
        workload = RangeQueryWorkload.random(network.domain, 16, seed=0)
        report = evaluate_selectivity(estimate, workload, network.all_values())
        assert report.degraded is True

    def test_load_balance_report_carries_flag(self):
        from repro.apps.load_balance import analyze_load_balance

        network, _, estimate = self._degraded_estimate()
        report = analyze_load_balance(network, estimate)
        assert report.degraded is True

    def test_query_plan_carries_flag(self):
        from repro.apps.range_query import plan_range_queries
        from repro.data.workload import RangeQuery

        network, _, estimate = self._degraded_estimate()
        low, high = network.domain
        plans = plan_range_queries(
            network, estimate, [RangeQuery(low, (low + high) / 2)]
        )
        assert plans[0].degraded is True

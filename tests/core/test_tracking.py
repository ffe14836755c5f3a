"""Tests for the continuous (drift-tracking) estimator."""

import numpy as np
import pytest

from repro.core.estimator import DistributionFreeEstimator
from repro.core.tracking import ContinuousEstimator
from repro.data.distributions import TruncatedNormal
from repro.data.workload import UpdateStream

from tests.conftest import make_loaded_network


def drift_network(network, dataset, towards_mean: float, updates: int, seed: int):
    """Apply drifting updates to a loaded network."""
    stream = UpdateStream(
        dataset,
        insert_fraction=0.5,
        insert_distribution=TruncatedNormal(mean=towards_mean, std=0.05),
        seed=seed,
    )
    for op in stream.ops(updates):
        owner = network.owner_of(network.data_hash(op.value))
        if op.kind == "insert":
            owner.store.insert(op.value)
        else:
            owner.store.remove(op.value)


class TestValidation:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ContinuousEstimator(drift_threshold=0.0)
        with pytest.raises(ValueError):
            ContinuousEstimator(check_probes=0)

    def test_drift_score_requires_model(self):
        network, _ = make_loaded_network(n_peers=16, n_items=200)
        tracker = ContinuousEstimator()
        with pytest.raises(RuntimeError):
            tracker.drift_score(network)


class TestLifecycle:
    def test_first_maintain_bootstraps(self):
        network, _ = make_loaded_network(n_peers=32, n_items=1_000)
        tracker = ContinuousEstimator(estimator=DistributionFreeEstimator(probes=16))
        action = tracker.maintain(network, rng=np.random.default_rng(0))
        assert action.action == "bootstrapped"
        assert tracker.current is not None
        assert action.messages > 0

    def test_stationary_data_keeps_model(self):
        network, _ = make_loaded_network(n_peers=64, n_items=4_000)
        tracker = ContinuousEstimator(
            estimator=DistributionFreeEstimator(probes=64),
            drift_threshold=0.2,
            check_probes=8,
        )
        rng = np.random.default_rng(1)
        tracker.refresh(network, rng=rng)
        kept = sum(
            tracker.maintain(network, rng=rng).action == "kept" for _ in range(8)
        )
        assert kept >= 6  # occasional false trigger allowed

    def test_heavy_drift_triggers_refresh(self):
        network, dataset = make_loaded_network(n_peers=64, n_items=4_000)
        tracker = ContinuousEstimator(
            estimator=DistributionFreeEstimator(probes=64),
            drift_threshold=0.15,
            check_probes=12,
        )
        rng = np.random.default_rng(2)
        tracker.refresh(network, rng=rng)
        # Replace half the data with mass near 0.95.
        drift_network(network, dataset, towards_mean=0.95, updates=6_000, seed=3)
        action = tracker.maintain(network, rng=rng)
        assert action.action == "refreshed"
        assert action.drift_score > 0.15

    def test_check_is_cheaper_than_refresh(self):
        network, _ = make_loaded_network(n_peers=64, n_items=2_000)
        tracker = ContinuousEstimator(
            estimator=DistributionFreeEstimator(probes=64),
            drift_threshold=0.5,  # never trigger
            check_probes=8,
        )
        rng = np.random.default_rng(4)
        before = network.stats.messages
        tracker.refresh(network, rng=rng)
        refresh_cost = network.stats.messages - before
        action = tracker.maintain(network, rng=rng)
        assert action.action == "kept"
        assert action.messages < refresh_cost / 4

    def test_refreshed_model_tracks_new_distribution(self):
        from repro.core.cdf import empirical_cdf
        from repro.core.metrics import evaluate_estimate

        network, dataset = make_loaded_network(n_peers=64, n_items=4_000)
        tracker = ContinuousEstimator(
            estimator=DistributionFreeEstimator(probes=96),
            drift_threshold=0.1,
            check_probes=16,
        )
        rng = np.random.default_rng(5)
        tracker.refresh(network, rng=rng)
        drift_network(network, dataset, towards_mean=0.9, updates=8_000, seed=6)
        tracker.maintain(network, rng=rng)
        truth = empirical_cdf(network.all_values())
        report = evaluate_estimate(tracker.current.cdf, truth, network.domain)
        assert report.ks < 0.1

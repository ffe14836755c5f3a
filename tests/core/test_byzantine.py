"""Tests for Byzantine behaviour and the trimming defense."""

import numpy as np
import pytest

from repro.core.byzantine import ByzantineBehavior, corrupt_network, trim_outlier_replies
from repro.core.replies import ProbeReplies
from repro.core.synopsis import fabricate_summary, summarize_peer

from tests.conftest import make_loaded_network


class TestBehavior:
    def test_validation(self):
        with pytest.raises(ValueError):
            ByzantineBehavior(count_multiplier=0.0)

    def test_corrupt_marks_fraction(self):
        network, _ = make_loaded_network(n_peers=40, n_items=200)
        liars = corrupt_network(
            network, 0.25, ByzantineBehavior(), rng=np.random.default_rng(0)
        )
        assert len(liars) == 10
        marked = [n.ident for n in network.peers() if n.byzantine is not None]
        assert sorted(marked) == sorted(liars)

    def test_corrupt_fraction_validated(self):
        network, _ = make_loaded_network(n_peers=8, n_items=50)
        with pytest.raises(ValueError):
            corrupt_network(network, 1.5, ByzantineBehavior())

    def test_zero_fraction_clears_marks(self):
        network, _ = make_loaded_network(n_peers=8, n_items=50)
        corrupt_network(network, 0.5, ByzantineBehavior(), rng=np.random.default_rng(1))
        corrupt_network(network, 0.0, ByzantineBehavior(), rng=np.random.default_rng(1))
        assert all(n.byzantine is None for n in network.peers())


class TestFabrication:
    def test_counts_inflated(self):
        network, _ = make_loaded_network(n_peers=16, n_items=800)
        node = max(network.peers(), key=lambda n: n.store.count)
        honest = summarize_peer(network, node, 8)
        lie = fabricate_summary(honest, ByzantineBehavior(count_multiplier=10.0))
        assert lie.local_count == 10 * honest.local_count
        assert lie.segment_length == honest.segment_length

    def test_fake_mass_lands_in_one_bucket(self):
        network, _ = make_loaded_network(n_peers=16, n_items=800)
        node = max(network.peers(), key=lambda n: n.store.count)
        honest = summarize_peer(network, node, 8)
        target = honest.segments[0].value_low  # inside the segment
        lie = fabricate_summary(
            honest, ByzantineBehavior(count_multiplier=5.0, fake_mass_at=target)
        )
        nonzero = [int(np.count_nonzero(seg.counts)) for seg in lie.segments]
        assert sum(nonzero) <= len(lie.segments)

    def test_reply_path_applies_lie(self):
        network, _ = make_loaded_network(n_peers=16, n_items=800)
        node = max(network.peers(), key=lambda n: n.store.count)
        node.byzantine = ByzantineBehavior(count_multiplier=7.0)
        lie = summarize_peer(network, node, 8)
        assert lie.local_count == 7 * node.store.count
        node.byzantine = None

    def test_empty_liar_claims_data(self):
        network, _ = make_loaded_network(n_peers=64, n_items=10)
        empty = next(n for n in network.peers() if n.store.count == 0)
        honest = summarize_peer(network, empty, 4)
        lie = fabricate_summary(honest, ByzantineBehavior(count_multiplier=100.0))
        assert lie.local_count >= 1


class TestTrimming:
    def test_validation(self):
        empty = ProbeReplies.from_summaries([])
        with pytest.raises(ValueError):
            trim_outlier_replies(empty, max_density_ratio=1.0)
        with pytest.raises(ValueError):
            trim_outlier_replies(empty, neighborhood=0)

    def test_keeps_honest_batch_intact(self):
        network, _ = make_loaded_network(n_peers=32, n_items=2_000)
        summaries = [summarize_peer(network, n, 8) for n in network.peers()]
        kept = trim_outlier_replies(ProbeReplies.from_summaries(summaries), 20.0)
        assert len(kept) >= len(summaries) - 1  # smooth data: nothing to trim

    def test_drops_isolated_spike(self):
        network, _ = make_loaded_network(n_peers=32, n_items=2_000)
        liar = network.random_peer()
        liar.byzantine = ByzantineBehavior(count_multiplier=500.0)
        summaries = [summarize_peer(network, n, 8) for n in network.peers()]
        kept = trim_outlier_replies(ProbeReplies.from_summaries(summaries), 20.0)
        kept_ids = set(kept.owner.tolist())
        assert liar.ident not in kept_ids
        liar.byzantine = None

    def test_tiny_batches_untouched(self):
        network, _ = make_loaded_network(n_peers=8, n_items=100)
        summaries = [summarize_peer(network, n, 4) for n in list(network.peers())[:2]]
        replies = ProbeReplies.from_summaries(summaries + summaries)
        assert trim_outlier_replies(replies, 20.0) is replies


class TestEndToEnd:
    def test_attack_and_defense(self):
        """5% liars wreck the trusting estimator; trimming repairs it."""
        from repro.core.cdf import empirical_cdf
        from repro.core.estimator import DistributionFreeEstimator
        from repro.core.metrics import ks_distance

        network, _ = make_loaded_network(n_peers=128, n_items=8_000, seed=7)
        domain = network.domain
        corrupt_network(
            network,
            0.1,
            ByzantineBehavior(count_multiplier=100.0, fake_mass_at=0.9),
            rng=np.random.default_rng(8),
        )
        truth = empirical_cdf(network.all_values())
        grid = np.linspace(*domain, 512)

        def mean_ks(estimator):
            return float(np.mean([
                ks_distance(
                    estimator.estimate(network, rng=np.random.default_rng(rep)).cdf,
                    truth,
                    grid,
                )
                for rep in range(4)
            ]))

        trusting = mean_ks(DistributionFreeEstimator(probes=64))
        defended = mean_ks(DistributionFreeEstimator(probes=64, trim_density_ratio=20.0))
        assert trusting > 0.2
        assert defended < trusting / 3

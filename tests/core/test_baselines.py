"""Tests for the baseline estimators."""

import numpy as np
import pytest

from repro.core.baselines.gossip import PushSumHistogramEstimator
from repro.core.baselines.naive import NaivePeerSamplingEstimator
from repro.core.baselines.parametric import ParametricEstimator, weighted_moments
from repro.core.baselines.random_walk import RandomWalkEstimator, metropolis_hastings_walk
from repro.core.cdf import empirical_cdf
from repro.core.estimator import DistributionFreeEstimator
from repro.core.metrics import evaluate_estimate
from repro.core.replies import ProbeReplies
from repro.core.synopsis import summarize_peer
from repro.ring.messages import MessageType

from tests.conftest import make_loaded_network


@pytest.fixture(scope="module")
def normal_world():
    network, _ = make_loaded_network(n_peers=96, n_items=6_000)
    return network, empirical_cdf(network.all_values())


@pytest.fixture(scope="module")
def zipf_world():
    network, _ = make_loaded_network("zipf", n_peers=96, n_items=6_000, seed=11)
    return network, empirical_cdf(network.all_values())


def mean_ks(estimator, network, truth, reps=4):
    return float(np.mean([
        evaluate_estimate(
            estimator.estimate(network, rng=np.random.default_rng(rep)).cdf,
            truth,
            network.domain,
        ).ks
        for rep in range(reps)
    ]))


class TestNaive:
    def test_validation(self):
        with pytest.raises(ValueError):
            NaivePeerSamplingEstimator(probes=0)
        with pytest.raises(ValueError):
            NaivePeerSamplingEstimator(synopsis_buckets=0)

    def test_runs_and_reports(self, normal_world):
        network, _ = normal_world
        estimate = NaivePeerSamplingEstimator(probes=16).estimate(
            network, rng=np.random.default_rng(0)
        )
        assert estimate.method == "naive-peer-sampling"
        assert estimate.probes == 16

    def test_biased_on_skewed_data(self, zipf_world):
        """The headline bias: naive stays bad even with many probes."""
        network, truth = zipf_world
        few = mean_ks(NaivePeerSamplingEstimator(probes=16), network, truth)
        many = mean_ks(NaivePeerSamplingEstimator(probes=96), network, truth)
        assert many > 0.2  # bias floor, not variance
        assert few > 0.2

    def test_dfde_beats_naive_on_skew(self, zipf_world):
        network, truth = zipf_world
        naive = mean_ks(NaivePeerSamplingEstimator(probes=48), network, truth)
        dfde = mean_ks(DistributionFreeEstimator(probes=48), network, truth)
        assert dfde < naive


class TestRandomWalk:
    def test_validation(self):
        with pytest.raises(ValueError):
            RandomWalkEstimator(probes=0)
        with pytest.raises(ValueError):
            RandomWalkEstimator(walk_length=0)

    def test_walk_returns_live_peer(self, normal_world):
        network, _ = normal_world
        start = network.random_peer()
        end = metropolis_hastings_walk(network, start, 10, np.random.default_rng(1))
        assert end.ident in network

    def test_walk_costs_steps(self, normal_world):
        network, _ = normal_world
        network.reset_stats()
        metropolis_hastings_walk(network, network.random_peer(), 25, np.random.default_rng(2))
        assert network.stats.count_of(MessageType.WALK_STEP) == 25

    def test_walk_samples_are_near_uniform(self):
        """MH over the overlay graph approximates uniform peer sampling."""
        network, _ = make_loaded_network(n_peers=24, n_items=100, seed=9)
        rng = np.random.default_rng(3)
        counts = {ident: 0 for ident in network.peer_ids()}
        current = network.random_peer()
        for _ in range(1500):
            current = metropolis_hastings_walk(network, current, 4, rng)
            counts[current.ident] += 1
        frequencies = np.asarray(list(counts.values())) / 1500
        # Uniform would be 1/24 ≈ 0.042; demand every peer visited and no
        # peer grossly over-represented.
        assert min(frequencies) > 0
        assert max(frequencies) < 4 / 24

    def test_accuracy_reasonable(self, normal_world):
        network, truth = normal_world
        ks = mean_ks(RandomWalkEstimator(probes=48, walk_length=12), network, truth, reps=3)
        assert ks < 0.25

    def test_costs_more_hops_than_dfde(self, normal_world):
        network, _ = normal_world
        rw = RandomWalkEstimator(probes=32, walk_length=16).estimate(
            network, rng=np.random.default_rng(4)
        )
        dfde = DistributionFreeEstimator(probes=32).estimate(
            network, rng=np.random.default_rng(4)
        )
        assert rw.hops > dfde.hops


class TestGossip:
    def test_validation(self):
        with pytest.raises(ValueError):
            PushSumHistogramEstimator(buckets=0)
        with pytest.raises(ValueError):
            PushSumHistogramEstimator(rounds=0)

    def test_converges_to_truth(self, normal_world):
        network, truth = normal_world
        estimate = PushSumHistogramEstimator(buckets=64, rounds=40).estimate(
            network, rng=np.random.default_rng(5)
        )
        report = evaluate_estimate(estimate.cdf, truth, network.domain)
        assert report.ks < 0.05

    def test_estimates_network_size(self, normal_world):
        network, _ = normal_world
        estimate = PushSumHistogramEstimator(rounds=40).estimate(
            network, rng=np.random.default_rng(6)
        )
        assert estimate.n_peers == pytest.approx(network.n_peers, rel=0.05)
        assert estimate.n_items == pytest.approx(network.total_count, rel=0.05)

    def test_cost_is_rounds_times_n(self, normal_world):
        network, _ = normal_world
        estimate = PushSumHistogramEstimator(rounds=10).estimate(
            network, rng=np.random.default_rng(7)
        )
        assert estimate.messages == pytest.approx(10 * network.n_peers, rel=0.05)

    def test_more_rounds_more_accurate(self, normal_world):
        network, truth = normal_world
        short = PushSumHistogramEstimator(rounds=3).estimate(
            network, rng=np.random.default_rng(8)
        )
        long = PushSumHistogramEstimator(rounds=40).estimate(
            network, rng=np.random.default_rng(8)
        )
        short_ks = evaluate_estimate(short.cdf, truth, network.domain).ks
        long_ks = evaluate_estimate(long.cdf, truth, network.domain).ks
        assert long_ks < short_ks


class TestParametric:
    def test_validation(self):
        with pytest.raises(ValueError):
            ParametricEstimator(probes=0)
        with pytest.raises(ValueError):
            ParametricEstimator(family="weibull")
        with pytest.raises(ValueError):
            ParametricEstimator(grid_points=2)

    def test_weighted_moments_recover_truth(self, normal_world):
        network, _ = normal_world
        summaries = [summarize_peer(network, n, 16) for n in network.peers()]
        counts = np.asarray([s.local_count for s in summaries], dtype=float)
        mean, variance = weighted_moments(ProbeReplies.from_summaries(summaries), counts / counts.sum())
        values = network.all_values()
        assert mean == pytest.approx(float(values.mean()), abs=0.02)
        assert variance == pytest.approx(float(values.var()), rel=0.2)

    def test_good_on_normal_data(self, normal_world):
        network, truth = normal_world
        ks = mean_ks(ParametricEstimator(probes=48), network, truth, reps=3)
        assert ks < 0.08

    def test_fails_on_multimodal_data(self):
        """The distribution-bound failure mode that motivates the paper."""
        network, _ = make_loaded_network("mixture", n_peers=96, n_items=6_000, seed=13)
        truth = empirical_cdf(network.all_values())
        parametric = mean_ks(ParametricEstimator(probes=96), network, truth, reps=3)
        dfde = mean_ks(DistributionFreeEstimator(probes=96), network, truth, reps=3)
        assert parametric > 2 * dfde

    def test_exponential_family(self, normal_world):
        network, _ = normal_world
        estimate = ParametricEstimator(probes=16, family="exponential").estimate(
            network, rng=np.random.default_rng(9)
        )
        assert estimate.method == "parametric-exponential"

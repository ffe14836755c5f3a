"""End-to-end integration tests across the whole stack."""

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro import (
    AdaptiveDensityEstimator,
    ChurnConfig,
    ChurnProcess,
    DistributionFreeEstimator,
    RingNetwork,
    build_dataset,
    build_prefix_index,
    empirical_cdf,
    evaluate_estimate,
    sample_by_rank,
)
from repro.data.workload import UpdateStream


class TestFullPipeline:
    def test_estimate_then_invert_round_trip(self):
        """The paper's full loop: load → estimate → generate variates whose
        distribution matches the original data."""
        data = build_dataset("mixture", 20_000, seed=1)
        network = RingNetwork.create(256, domain=data.distribution.domain.as_tuple(), seed=2)
        network.load_data(data.values)
        network.reset_stats()

        estimate = AdaptiveDensityEstimator(probes=96).estimate(
            network, rng=np.random.default_rng(3)
        )
        variates = estimate.sample(5_000, rng=np.random.default_rng(4))
        result = scipy_stats.ks_2samp(variates, data.values)
        assert result.statistic < 0.05

    def test_estimation_after_dynamic_updates(self):
        """Data churn: re-estimation tracks a drifting dataset."""
        data = build_dataset("normal", 5_000, seed=5)
        network = RingNetwork.create(64, domain=(0.0, 1.0), seed=6)
        network.load_data(data.values)

        stream = UpdateStream(data, insert_fraction=0.5, seed=7)
        for op in stream.ops(2_000):
            if op.kind == "insert":
                network.owner_of(network.data_hash(op.value)).store.insert(op.value)
            else:
                network.owner_of(network.data_hash(op.value)).store.remove(op.value)

        truth = empirical_cdf(network.all_values())
        estimate = DistributionFreeEstimator(probes=64).estimate(
            network, rng=np.random.default_rng(8)
        )
        report = evaluate_estimate(estimate.cdf, truth, network.domain)
        assert report.ks < 0.12

    def test_estimation_survives_heavy_churn(self):
        data = build_dataset("uniform", 8_000, seed=9)
        network = RingNetwork.create(128, domain=(0.0, 1.0), seed=10)
        network.load_data(data.values)
        process = ChurnProcess(
            network,
            ChurnConfig(join_rate=0.1, leave_rate=0.1, crash_fraction=0.5),
            rng=np.random.default_rng(11),
        )
        process.run(10)

        truth = empirical_cdf(network.all_values())
        estimate = DistributionFreeEstimator(probes=64).estimate(
            network, rng=np.random.default_rng(12)
        )
        report = evaluate_estimate(estimate.cdf, truth, network.domain)
        assert report.ks < 0.2

    def test_rank_sampling_after_graceful_churn(self):
        data = build_dataset("normal", 5_000, seed=13)
        network = RingNetwork.create(64, domain=(0.0, 1.0), seed=14)
        network.load_data(data.values)
        index = build_prefix_index(network)

        process = ChurnProcess(
            network,
            ChurnConfig(join_rate=0.05, leave_rate=0.05, crash_fraction=0.0),
            rng=np.random.default_rng(15),
        )
        process.run(5)
        samples = sample_by_rank(network, index, 400, rng=np.random.default_rng(16))
        result = scipy_stats.ks_2samp(samples, network.all_values())
        # Index is stale but data is conserved; samples stay close.
        assert result.statistic < 0.1

    def test_cost_ordering_invariant(self):
        """dfde << exact in messages, always."""
        from repro import ExactCdfEstimator

        data = build_dataset("normal", 5_000, seed=17)
        network = RingNetwork.create(256, domain=(0.0, 1.0), seed=18)
        network.load_data(data.values)
        network.reset_stats()

        dfde = DistributionFreeEstimator(probes=32).estimate(
            network, rng=np.random.default_rng(19)
        )
        exact = ExactCdfEstimator().estimate(network)
        assert dfde.messages < exact.messages / 2
        truth = empirical_cdf(network.all_values())
        dfde_err = evaluate_estimate(dfde.cdf, truth, network.domain).ks
        exact_err = evaluate_estimate(exact.cdf, truth, network.domain).ks
        assert exact_err <= dfde_err + 1e-9


class TestPublicApi:
    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_quickstart_snippet(self):
        """The README quickstart must actually run."""
        from repro import DistributionFreeEstimator, RingNetwork, build_dataset

        data = build_dataset("zipf", n=5_000, seed=7)
        net = RingNetwork.create(
            64, domain=data.distribution.domain.as_tuple(), seed=7
        )
        net.load_data(data.values)
        net.reset_stats()
        est = DistributionFreeEstimator(probes=32).estimate(net)
        assert 0.0 <= float(est.cdf_at(0.1)) <= 1.0
        assert est.sample(10, np.random.default_rng(0)).size == 10


class TestScale:
    def test_large_network_smoke(self):
        """A 16k-peer ring with 200k items estimates in one probe wave.

        This is the scalability smoke test: construction, loading, probing
        and assembly must all stay tractable well past the evaluation's
        default sizes, with hops per probe staying logarithmic.
        """
        data = build_dataset("mixture", 200_000, seed=99)
        network = RingNetwork.create(16_384, domain=(0.0, 1.0), seed=99)
        network.load_data(data.values)
        network.reset_stats()
        truth = empirical_cdf(network.all_values())
        estimate = AdaptiveDensityEstimator(probes=128).estimate(
            network, rng=np.random.default_rng(1)
        )
        report = evaluate_estimate(estimate.cdf, truth, network.domain)
        assert report.ks < 0.1
        assert estimate.hops / estimate.probes < 2 * np.log2(16_384)
        assert estimate.n_peers == pytest.approx(16_384, rel=0.35)

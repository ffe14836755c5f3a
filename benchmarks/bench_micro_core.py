"""Micro-benchmarks of the core primitives (real pytest-benchmark timing).

These are not paper figures; they document the simulator's raw throughput
so regressions in the hot paths (CDF evaluation/inversion, probing,
routing) are visible — on the object ring and on a 10^5-peer compact ring.
"""

import numpy as np
import pytest

from repro.core.cdf import PiecewiseCDF, empirical_cdf
from repro.core.cdf_sampling import collect_probes
from repro.core.estimator import DistributionFreeEstimator
from repro.data.workload import build_dataset
from repro.ring.network import RingNetwork
from repro.ring.routing import route_to_key


@pytest.fixture(scope="module")
def loaded_network():
    data = build_dataset("normal", 50_000, seed=1)
    network = RingNetwork.create(512, domain=(0.0, 1.0), seed=2)
    network.load_data(data.values)
    network.reset_stats()
    return network


@pytest.fixture(scope="module")
def loaded_compact():
    data = build_dataset("normal", 200_000, seed=1)
    ring = RingNetwork.create(100_000, domain=(0.0, 1.0), seed=2, compact=True)
    ring.load_counts(data.values)
    return ring


@pytest.fixture(scope="module")
def big_cdf():
    values = np.random.default_rng(0).normal(0.5, 0.15, 20_000)
    return empirical_cdf(np.clip(values, 0, 1))


def test_cdf_evaluation(benchmark, big_cdf):
    xs = np.linspace(0, 1, 10_000)
    benchmark(big_cdf, xs)


def test_cdf_inversion(benchmark, big_cdf):
    us = np.linspace(0, 1, 10_000)
    benchmark(big_cdf.inverse, us)


def test_cdf_sampling(benchmark, big_cdf):
    rng = np.random.default_rng(1)
    benchmark(big_cdf.sample, 10_000, rng)


def test_mixture_assembly(benchmark):
    rng = np.random.default_rng(2)
    # 64 components of 10 breakpoints each, as concatenated runs.
    xs = np.sort(rng.uniform(size=(64, 10)), axis=1).ravel()
    fs = np.tile(np.linspace(0, 1, 10), 64)
    bounds = np.arange(0, 641, 10)
    weights = rng.uniform(size=64)
    benchmark(PiecewiseCDF.mixture, xs, fs, bounds, weights)


def test_routed_lookup(benchmark, loaded_network):
    rng = np.random.default_rng(3)

    def lookup():
        key = int(rng.integers(0, loaded_network.space.size, dtype=np.uint64))
        route_to_key(loaded_network, loaded_network.random_peer(), key)

    benchmark(lookup)


def test_probe_batch(benchmark, loaded_network):
    rng = np.random.default_rng(4)
    benchmark(collect_probes, loaded_network, 32, 8, rng)


def test_full_estimate(benchmark, loaded_network):
    estimator = DistributionFreeEstimator(probes=64)
    rng = np.random.default_rng(5)
    benchmark(estimator.estimate, loaded_network, rng)


def test_compact_probe_batch(benchmark, loaded_compact):
    rng = np.random.default_rng(4)
    benchmark(collect_probes, loaded_compact, 256, 8, rng)


def test_compact_full_estimate(benchmark, loaded_compact):
    estimator = DistributionFreeEstimator(probes=256)
    rng = np.random.default_rng(5)
    benchmark(estimator.estimate, loaded_compact, rng)


def test_network_construction(benchmark):
    benchmark(RingNetwork.create, 256, seed=6)

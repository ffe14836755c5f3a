"""repro — distribution-free data density estimation in ring-based P2P networks.

A full reproduction of Zhou, Shen, Zhou, Qian & Zhou, *Effective Data
Density Estimation in Ring-Based P2P Networks* (ICDE 2012): a Chord-style
ring overlay simulator with order-preserving data placement, the paper's
distribution-free global-CDF estimator with inversion-method sampling,
four baseline estimators, the motivating applications, and the experiment
harness that regenerates the evaluation.

Quickstart
----------
>>> import numpy as np
>>> from repro import RingNetwork, DistributionFreeEstimator, build_dataset
>>> data = build_dataset("zipf", n=50_000, seed=7)
>>> net = RingNetwork.create(512, domain=data.distribution.domain.as_tuple(),
...                          seed=7)
>>> net.load_data(data.values)
>>> net.reset_stats()
>>> est = DistributionFreeEstimator(probes=64).estimate(net)
>>> float(est.cdf_at(0.1))  # estimated F(0.1)          # doctest: +SKIP
>>> est.sample(10, np.random.default_rng(0))            # doctest: +SKIP
"""

from repro.apps import (
    LoadBalanceReport,
    SamplingService,
    SelectivityReport,
    analyze_load_balance,
    evaluate_selectivity,
    gini_coefficient,
    predict_peer_loads,
)
from repro.core import (
    AdaptiveDensityEstimator,
    ByzantineBehavior,
    ConfidenceBand,
    ContinuousEstimator,
    DensityEstimate,
    DensityEstimator,
    DistributionFreeEstimator,
    ErrorReport,
    ExactCdfEstimator,
    PiecewiseCDF,
    PrefixIndex,
    build_prefix_index,
    compute_global_cdf_broadcast,
    compute_global_cdf_traversal,
    empirical_cdf,
    estimate_with_confidence,
    evaluate_estimate,
    sample_by_rank,
)
from repro.core.baselines import (
    NaivePeerSamplingEstimator,
    ParametricEstimator,
    PushSumHistogramEstimator,
    RandomWalkEstimator,
)
from repro.data import (
    Dataset,
    Domain,
    RangeQueryWorkload,
    UpdateStream,
    build_dataset,
    make_distribution,
)
from repro.ring import (
    ChurnConfig,
    ChurnProcess,
    IdentifierSpace,
    MessageType,
    ReplicationManager,
    RingNetwork,
)
from repro.serve import (
    AdaptiveRefreshPolicy,
    EstimationService,
    StalenessSLO,
    VersionKeyedCache,
)

__version__ = "1.0.0"

__all__ = [
    "AdaptiveDensityEstimator",
    "AdaptiveRefreshPolicy",
    "ByzantineBehavior",
    "ChurnConfig",
    "ChurnProcess",
    "ConfidenceBand",
    "ContinuousEstimator",
    "Dataset",
    "DensityEstimate",
    "DensityEstimator",
    "DistributionFreeEstimator",
    "Domain",
    "ErrorReport",
    "EstimationService",
    "ExactCdfEstimator",
    "IdentifierSpace",
    "LoadBalanceReport",
    "MessageType",
    "NaivePeerSamplingEstimator",
    "ParametricEstimator",
    "PiecewiseCDF",
    "PrefixIndex",
    "PushSumHistogramEstimator",
    "RandomWalkEstimator",
    "RangeQueryWorkload",
    "ReplicationManager",
    "RingNetwork",
    "SamplingService",
    "SelectivityReport",
    "StalenessSLO",
    "UpdateStream",
    "VersionKeyedCache",
    "analyze_load_balance",
    "build_dataset",
    "build_prefix_index",
    "compute_global_cdf_broadcast",
    "compute_global_cdf_traversal",
    "empirical_cdf",
    "estimate_with_confidence",
    "evaluate_estimate",
    "evaluate_selectivity",
    "gini_coefficient",
    "make_distribution",
    "predict_peer_loads",
    "sample_by_rank",
    "__version__",
]

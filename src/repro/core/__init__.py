"""Core contribution: distribution-free global density estimation.

The CDF machinery (with inversion-method sampling), the exact and sampled
global-CDF algorithms, and the estimator facade plus its baselines.
"""

from repro.core.adaptive import AdaptiveDensityEstimator, allocate_refinement_probes
from repro.core.byzantine import ByzantineBehavior, corrupt_network, trim_outlier_replies
from repro.core.cdf import PiecewiseCDF, empirical_cdf
from repro.core.confidence import (
    ConfidenceBand,
    bootstrap_confidence_band,
    estimate_with_confidence,
)
from repro.core.cdf_compute import (
    ExactCdfEstimator,
    compute_global_cdf_broadcast,
    compute_global_cdf_traversal,
)
from repro.core.cdf_sampling import (
    InterpolatedReconstruction,
    ProbeFailure,
    ProbeReplies,
    assemble_cdf,
    assemble_cdf_interpolated,
    collect_probes,
    collect_probes_resilient,
    estimate_peer_count,
    estimate_total_items,
    ht_weights,
    probe_positions,
)
from repro.core.density import DensityCurve, density_from_cdf, smoothed_density_from_cdf
from repro.core.estimate import (
    DegradedEstimate,
    DensityEstimate,
    degraded_from_exception,
    zero_evidence_estimate,
)
from repro.core.estimator import DensityEstimator, DistributionFreeEstimator
from repro.core.metrics import (
    ErrorReport,
    emd,
    evaluate_estimate,
    kl_divergence_binned,
    ks_distance,
    ks_distance_to_samples,
    l1_cdf_distance,
    l2_cdf_distance,
    total_variation_binned,
)
from repro.core.quantile import (
    equi_depth_boundaries,
    median,
    quantile,
    quantiles,
)
from repro.core.rank_sampling import PrefixIndex, build_prefix_index, sample_by_rank
from repro.core.synopsis import fabricate_summary, summarize_peer
from repro.core.tracking import ContinuousEstimator, MaintenanceAction

__all__ = [
    "AdaptiveDensityEstimator",
    "ByzantineBehavior",
    "ConfidenceBand",
    "ContinuousEstimator",
    "MaintenanceAction",
    "DegradedEstimate",
    "DensityCurve",
    "DensityEstimate",
    "DensityEstimator",
    "DistributionFreeEstimator",
    "ErrorReport",
    "ExactCdfEstimator",
    "PiecewiseCDF",
    "PrefixIndex",
    "ProbeFailure",
    "ProbeReplies",
    "InterpolatedReconstruction",
    "allocate_refinement_probes",
    "assemble_cdf",
    "assemble_cdf_interpolated",
    "bootstrap_confidence_band",
    "build_prefix_index",
    "collect_probes",
    "collect_probes_resilient",
    "corrupt_network",
    "compute_global_cdf_broadcast",
    "compute_global_cdf_traversal",
    "degraded_from_exception",
    "density_from_cdf",
    "emd",
    "estimate_with_confidence",
    "empirical_cdf",
    "equi_depth_boundaries",
    "estimate_peer_count",
    "estimate_total_items",
    "evaluate_estimate",
    "fabricate_summary",
    "ht_weights",
    "kl_divergence_binned",
    "ks_distance",
    "ks_distance_to_samples",
    "l1_cdf_distance",
    "l2_cdf_distance",
    "median",
    "probe_positions",
    "quantile",
    "quantiles",
    "sample_by_rank",
    "smoothed_density_from_cdf",
    "summarize_peer",
    "total_variation_binned",
    "trim_outlier_replies",
    "zero_evidence_estimate",
]

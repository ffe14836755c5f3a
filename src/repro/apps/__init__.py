"""Applications built on the density estimates, per the paper's motivation:
load-balance analysis, query selectivity estimation, and global sampling
for data mining."""

from repro.apps.aggregates import AggregateAnswer, AggregateEngine, evaluate_aggregates
from repro.apps.histogram import (
    EquiDepthHistogram,
    build_equi_depth_histogram,
    evaluate_equi_depth,
)
from repro.apps.load_balance import (
    LoadBalanceReport,
    analyze_load_balance,
    coefficient_of_variation,
    gini_coefficient,
    predict_peer_loads,
    rebalanced_boundaries,
)
from repro.apps.range_query import (
    QueryPlan,
    QueryResult,
    execute_range_query,
    plan_range_query,
    plan_range_queries,
    true_range_counts,
)
from repro.apps.sampling_service import SamplingService
from repro.apps.selectivity import (
    SelectivityReport,
    estimate_selectivities,
    estimate_selectivity,
    evaluate_selectivity,
    true_selectivities,
)

__all__ = [
    "AggregateAnswer",
    "AggregateEngine",
    "EquiDepthHistogram",
    "LoadBalanceReport",
    "QueryPlan",
    "QueryResult",
    "SamplingService",
    "SelectivityReport",
    "analyze_load_balance",
    "build_equi_depth_histogram",
    "coefficient_of_variation",
    "estimate_selectivities",
    "estimate_selectivity",
    "evaluate_aggregates",
    "evaluate_equi_depth",
    "evaluate_selectivity",
    "execute_range_query",
    "gini_coefficient",
    "plan_range_queries",
    "plan_range_query",
    "predict_peer_loads",
    "rebalanced_boundaries",
    "true_range_counts",
    "true_selectivities",
]

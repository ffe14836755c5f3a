"""Range-query execution over the overlay, with estimate-driven planning.

Selectivity estimation (``repro.apps.selectivity``) predicts how expensive
a range query will be; this module actually *executes* one: route to the
peer owning the range's start, then walk successors collecting matching
items until the range's end is passed.  The planner compares the
estimate's prediction (peers to visit, items to fetch) with a budget and
decides whether to run the query at all — the query-optimizer loop the
paper's introduction motivates, end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.estimate import DensityEstimate
from repro.data.workload import RangeQuery, RangeQueryWorkload
from repro.ring.faults import RetryPolicy
from repro.ring.messages import MessageType
from repro.ring.network import RingNetwork
from repro.ring.routing import route_to_value, route_with_policy, successor_walk

__all__ = [
    "QueryResult",
    "QueryPlan",
    "execute_range_query",
    "plan_range_query",
    "plan_range_queries",
    "true_range_counts",
]


@dataclass(frozen=True)
class QueryResult:
    """Outcome of executing one range query against the network.

    ``failure`` is ``None`` on a complete sweep.  Under an active fault
    plane, a query that cannot finish (unroutable range start, stalled
    peer mid-sweep) comes back with whatever it collected so far plus the
    failure reason — partial results instead of an exception.
    """

    values: np.ndarray
    peers_visited: int
    messages: int
    hops: int
    failure: Optional[str] = None

    @property
    def count(self) -> int:
        """Number of matching items fetched."""
        return int(self.values.size)


def execute_range_query(
    network: RingNetwork,
    query: RangeQuery,
    start_peer=None,
    policy: Optional[RetryPolicy] = None,
) -> QueryResult:
    """Run a range query: route to the range start, then sweep successors.

    Each visited peer answers one request/reply pair carrying its matching
    items; the sweep stops at the first peer whose segment starts past the
    range's end.  Exact under order-preserving placement.

    When a fault plane is active on the network (or a ``policy`` is
    passed), routing goes through the bounded-retry path and the sweep
    checks peer responsiveness: instead of raising, the query returns the
    values collected so far with the failure reason attached.
    """
    before = network.stats.snapshot()
    entry = start_peer if start_peer is not None else network.random_peer()
    low = max(query.low, network.domain[0])
    high = min(query.high, network.domain[1])
    if not low < high:
        return QueryResult(np.empty(0), 0, 0, 0)

    faults = network.faults
    plane_active = faults is not None and faults.active
    if plane_active or policy is not None:
        outcome = route_with_policy(
            network, entry, network.data_hash(low), policy=policy
        )
        if not outcome.ok:
            delta = before.delta(network.stats.snapshot())
            return QueryResult(
                np.empty(0), 0, delta.messages, delta.hops, failure=outcome.failure
            )
        first = outcome.owner
    else:
        first = route_to_value(network, entry, low).owner
    current = first
    collected: list[float] = []
    peers_visited = 0

    def partial(reason: str) -> QueryResult:
        delta = before.delta(network.stats.snapshot())
        return QueryResult(
            values=np.sort(np.asarray(collected, dtype=float)),
            peers_visited=peers_visited,
            messages=delta.messages,
            hops=delta.hops,
            failure=reason,
        )

    while True:
        if plane_active and faults.is_stalled(current.ident):
            return partial("owner_unresponsive")
        peers_visited += 1
        matches = current.store.values_in_range(low, high)
        network.record_rpc(
            MessageType.PROBE_REQUEST, MessageType.PROBE_REPLY, reply_payload=len(matches)
        )
        collected.extend(matches)
        # Value coverage of this peer ends at the value of (ident + 1); the
        # sweep is done once that reaches the range end.  Wrap handling: a
        # peer whose arc wraps the ring origin covers the domain's *top*
        # piece too — arriving at it from above (or starting inside its top
        # piece) completes coverage to the domain's high end; starting
        # inside its *bottom* piece does not, and the sweep continues.
        interval = current.interval
        wrapped = interval.start > current.ident
        if wrapped:
            top_piece_start = network.data_hash.to_value(
                network.space.add(interval.start, 1)
            )
            if peers_visited > 1 or low >= top_piece_start:
                break  # the top of the domain is covered
            segment_end = network.data_hash.to_value(
                network.space.add(current.ident, 1)
            )
        else:
            ident_after = network.space.add(current.ident, 1)
            segment_end = (
                network.domain[1]
                if ident_after == 0
                else network.data_hash.to_value(ident_after)
            )
        if segment_end >= high:
            break
        if peers_visited > network.n_peers:
            break  # safety: churned ring with inconsistent pointers
        nxt = successor_walk(network, current, 1)[0]
        if nxt.ident == first.ident:
            break  # full circle: every peer inspected
        if plane_active and not faults.reachable(current.ident, nxt.ident):
            return partial("partitioned")
        current = nxt
    delta = before.delta(network.stats.snapshot())
    return QueryResult(
        values=np.sort(np.asarray(collected, dtype=float)),
        peers_visited=peers_visited,
        messages=delta.messages,
        hops=delta.hops,
    )


@dataclass(frozen=True)
class QueryPlan:
    """The planner's prediction for one range query.

    ``degraded`` marks a plan derived from a degraded estimate — the cost
    prediction stands on partial (or zero) probe evidence, so an admission
    controller may want a safety margin.  Result tables name the fields
    they report, so the flag does not change them.
    """

    expected_items: float
    expected_peers: float
    expected_messages: float
    admitted: bool           # within the caller's budget?
    degraded: bool = False


def plan_range_query(
    network: RingNetwork,
    estimate: DensityEstimate,
    query: RangeQuery,
    max_items: Optional[float] = None,
) -> QueryPlan:
    """Predict a query's cost from the estimate alone (no network traffic).

    ``expected_peers`` combines the data mass inside the range (items per
    peer) with the range's ring-share (even an empty range crosses the
    peers whose segments it spans).  ``max_items`` is the admission
    budget; ``None`` admits everything.
    """
    mass = estimate.selectivity(query.low, query.high)
    expected_items = mass * estimate.n_items
    low, high = network.domain
    ring_share = (min(query.high, high) - max(query.low, low)) / (high - low)
    ring_share = max(ring_share, 0.0)
    expected_peers = max(ring_share * estimate.n_peers, 1.0)
    # One lookup (≈ half log2 N hops) plus one exchange per swept peer.
    lookup = max(np.log2(max(estimate.n_peers, 2.0)) / 2.0, 1.0)
    expected_messages = lookup + 2.0 * expected_peers
    admitted = max_items is None or expected_items <= max_items
    return QueryPlan(
        expected_items=expected_items,
        expected_peers=expected_peers,
        expected_messages=expected_messages,
        admitted=admitted,
        degraded=estimate.degraded,
    )


def plan_range_queries(
    network: RingNetwork,
    estimate: DensityEstimate,
    workload: RangeQueryWorkload | Sequence[RangeQuery],
    max_items: Optional[float] = None,
) -> list[QueryPlan]:
    """Plan a whole workload at once — the planner's batch entry point.

    All query bounds go through two vectorised CDF evaluations, then the
    cost model runs as array arithmetic.  Element ``i`` equals
    ``plan_range_query(network, estimate, queries[i], max_items)``.
    """
    queries = list(workload)
    if not queries:
        return []
    lows = np.asarray([q.low for q in queries], dtype=float)
    highs = np.asarray([q.high for q in queries], dtype=float)
    cdf = estimate.cdf
    masses = cdf(highs) - cdf(lows)
    expected_items = masses * estimate.n_items
    low, high = network.domain
    ring_share = (np.minimum(highs, high) - np.maximum(lows, low)) / (high - low)
    np.maximum(ring_share, 0.0, out=ring_share)
    expected_peers = np.maximum(ring_share * estimate.n_peers, 1.0)
    lookup = max(np.log2(max(estimate.n_peers, 2.0)) / 2.0, 1.0)
    expected_messages = lookup + 2.0 * expected_peers
    return [
        QueryPlan(
            expected_items=float(expected_items[i]),
            expected_peers=float(expected_peers[i]),
            expected_messages=float(expected_messages[i]),
            admitted=max_items is None or float(expected_items[i]) <= max_items,
            degraded=estimate.degraded,
        )
        for i in range(len(queries))
    ]


def true_range_counts(
    network: RingNetwork, workload: RangeQueryWorkload | Sequence[RangeQuery]
) -> np.ndarray:
    """Exact result size of every query, from the snapshot plane.

    Bisects the packed sorted global value array once per bound — the
    oracle the planner's ``expected_items`` is judged against, without
    touching any peer.  Clamping to the domain mirrors
    :func:`execute_range_query`, so element ``i`` equals the ``count`` of
    executing ``queries[i]``.
    """
    queries = list(workload)
    if not queries:
        return np.empty(0, dtype=np.int64)
    values = network.snapshot().sorted_values
    low, high = network.domain
    lows = np.maximum(np.asarray([q.low for q in queries], dtype=float), low)
    highs = np.minimum(np.asarray([q.high for q in queries], dtype=float), high)
    counts = np.searchsorted(values, highs, side="left") - np.searchsorted(
        values, lows, side="left"
    )
    return np.maximum(counts, 0).astype(np.int64)

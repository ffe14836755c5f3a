"""Computing the global CDF exactly — the expensive reference path.

The paper introduces algorithms both for *computing* and for *sampling* the
global CDF.  This module is the computing half: visit **every** live peer,
collect its summary, and combine with exact weights (each peer counted
once, weight proportional to its item count).  Two collection strategies:

* :func:`compute_global_cdf_traversal` — walk the successor ring; O(N)
  messages, O(N) latency.
* :func:`compute_global_cdf_broadcast` — Chord broadcast over fingers, each
  node delegating disjoint sub-arcs; O(N) messages, O(log N) latency depth.

Both cost Θ(N) messages, which is exactly why the sampling path exists;
the cost-accuracy benchmarks quantify the gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.cdf_sampling import assemble_cdf
from repro.core.estimate import DensityEstimate
from repro.core.replies import ProbeReplies
from repro.core.synopsis import summarize_peer
from repro.ring.messages import CostSnapshot, MessageType
from repro.ring.network import RingNetwork
from repro.ring.node import PeerNode
from repro.ring.routing import successor_walk

__all__ = [
    "ExactCdfEstimator",
    "compute_global_cdf_traversal",
    "compute_global_cdf_broadcast",
]


def _combine(
    network: RingNetwork,
    peers: list[PeerNode],
    buckets: int,
    cost: CostSnapshot,
    method: str,
    latency_rounds: float,
) -> DensityEstimate:
    """Exact-weight combination: every peer once, weight ∝ its count."""
    replies = ProbeReplies.from_summaries(
        [summarize_peer(network, peer, buckets) for peer in peers]
    )
    counts = replies.local_count.astype(float)
    total = counts.sum()
    if total <= 0:
        raise ValueError("network holds no data; nothing to estimate")
    cdf = assemble_cdf(replies, counts / total, network.domain, "linear")
    return DensityEstimate(
        cdf=cdf,
        domain=network.domain,
        n_items=float(total),
        n_peers=float(len(replies)),
        probes=len(replies),
        cost=cost,
        method=method,
        latency_rounds=latency_rounds,
    )


def compute_global_cdf_traversal(
    network: RingNetwork,
    buckets: int = 8,
    start: Optional[PeerNode] = None,
) -> DensityEstimate:
    """Exact global CDF by walking the full successor ring.

    Visits each of the N live peers once (N-1 successor hops plus one
    summary exchange per peer) and combines their synopses with exact
    count weights.  The result is the true global CDF at synopsis
    resolution — and exactly the empirical CDF as ``buckets → ∞``.
    """
    before = network.stats.snapshot()
    origin = start if start is not None else network.random_peer()
    peers = [origin]
    for peer in successor_walk(network, origin, max(network.n_peers - 1, 0)):
        if peer.ident == origin.ident:
            break  # ring shrank under us; we're back at the start
        peers.append(peer)
    # One request/reply pair per visited peer, posted in bulk (totals are
    # identical to recording each exchange separately).
    network.record(MessageType.PREFIX_REQUEST, count=len(peers))
    network.record(
        MessageType.PREFIX_REPLY,
        count=len(peers),
        payload=(buckets + 2) * len(peers),
    )
    cost = before.delta(network.stats.snapshot())
    # The walk is strictly sequential: one hop plus one exchange per peer.
    latency = float(3 * len(peers) - 1)
    return _combine(network, peers, buckets, cost, "exact-traversal", latency)


def compute_global_cdf_broadcast(
    network: RingNetwork,
    buckets: int = 8,
    root: Optional[PeerNode] = None,
) -> DensityEstimate:
    """Exact global CDF by Chord broadcast/convergecast over finger tables.

    The root owns the full ring arc and delegates disjoint sub-arcs to its
    fingers; each delegate recurses on its own fingers within its arc.  On a
    stabilized ring every peer is reached exactly once with 2(N-1) messages
    and O(log N) latency depth.  Under churn, stale fingers can duplicate or
    miss peers; duplicates are suppressed (their delegation message is still
    paid for), matching real broadcast behaviour.
    """
    before = network.stats.snapshot()
    origin = root if root is not None else network.random_peer()
    visited: set[int] = set()
    peers: list[PeerNode] = []
    max_depth = 0
    delegations = 0

    def visit(node: PeerNode, arc_end: int, depth: int = 0) -> None:
        """Collect ``node`` and delegate the arc ``(node, arc_end)``."""
        nonlocal max_depth, delegations
        if node.ident in visited:
            return
        visited.add(node.ident)
        max_depth = max(max_depth, depth)
        peers.append(node)
        # Distinct live fingers strictly inside the arc, in ring order.
        children: list[int] = []
        for finger_id in node.fingers:
            if finger_id is None or finger_id == node.ident:
                continue
            if not network.space.in_open(finger_id, node.ident, arc_end):
                continue
            if finger_id not in children:
                children.append(finger_id)
        children.sort(key=lambda f: network.space.distance(node.ident, f))
        boundaries = children[1:] + [arc_end]
        for child_id, boundary in zip(children, boundaries):
            delegations += 1
            child = network.try_node(child_id)
            if child is None or not child.alive:
                continue  # timed-out delegation; that sub-arc is missed
            visit(child, boundary, depth + 1)

    visit(origin, origin.ident)
    # Every delegation (including ones to departed peers — the message was
    # still paid for) is a request/reply pair, posted in bulk.
    if delegations:
        network.record(MessageType.PREFIX_REQUEST, count=delegations)
        network.record(
            MessageType.PREFIX_REPLY,
            count=delegations,
            payload=(buckets + 2) * delegations,
        )
    cost = before.delta(network.stats.snapshot())
    # Down the tree and back up the convergecast: 2 rounds per level.
    latency = float(2 * max_depth + 1)
    return _combine(network, peers, buckets, cost, "exact-broadcast", latency)


@dataclass(frozen=True)
class ExactCdfEstimator:
    """The exact computation wrapped in the estimator protocol.

    Lets experiments place the Θ(N)-message reference on the same
    cost-accuracy axes as the sampling methods.
    """

    buckets: int = 8
    strategy: str = "broadcast"
    name: str = "exact"

    def estimate(
        self, network: RingNetwork, rng: Optional[np.random.Generator] = None
    ) -> DensityEstimate:
        """Run the chosen exact collection strategy."""
        if self.strategy == "broadcast":
            return compute_global_cdf_broadcast(network, self.buckets)
        if self.strategy == "traversal":
            return compute_global_cdf_traversal(network, self.buckets)
        raise ValueError(f"unknown strategy {self.strategy!r}")

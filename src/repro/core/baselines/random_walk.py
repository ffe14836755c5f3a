"""Random-walk peer sampling — unbiased but hop-hungry.

A Metropolis–Hastings random walk over the overlay graph (fingers plus
ring neighbours) converges to the *uniform* distribution over peers, so
after a long enough walk the visited peer is an unbiased uniform peer
sample.  Weighting each sampled peer's local CDF by its item count then
gives an unbiased global estimate — a classically correct alternative to
the paper's method.  The catch is cost: every retained sample pays
``walk_length`` hops of burn-in, versus O(log N) for one routed probe, and
the MH self-loops waste further steps.  The cost-accuracy experiments
quantify exactly this gap.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.cdf_sampling import assemble_cdf
from repro.core.estimate import DensityEstimate, degraded_from_exception
from repro.core.replies import ProbeReplies
from repro.core.synopsis import summarize_peer
from repro.ring.messages import MessageType
from repro.ring.network import NetworkError, RingNetwork
from repro.ring.node import PeerNode

__all__ = ["RandomWalkEstimator", "metropolis_hastings_walk", "overlay_adjacency"]


# Memoized overlay views, keyed by the network's topology_version: the
# adjacency (pure pointer-graph function) and the live-filtered neighbour
# memo the walks consult (ident -> (neighbour ids, resolved nodes)).
# Membership changes and maintenance both advance the token, so a cached
# view is exactly what a rebuild would produce.
_LiveCache = dict[int, tuple[list[int], list[PeerNode]]]
_OVERLAY_CACHE: "weakref.WeakKeyDictionary[RingNetwork, tuple[int, dict[int, list[int]], _LiveCache]]" = (
    weakref.WeakKeyDictionary()
)


def _overlay_views(network: RingNetwork) -> tuple[dict[int, list[int]], _LiveCache]:
    """The (adjacency, live-neighbour memo) pair for the current overlay."""
    token = network.topology_version
    cached = _OVERLAY_CACHE.get(network)
    if cached is not None and cached[0] == token:
        return cached[1], cached[2]
    # The snapshot plane assembles the same symmetrized graph from its
    # successor/predecessor/finger matrices in a handful of vectorized
    # passes; ``_build_adjacency`` below remains the scalar reference.
    adjacency = network.snapshot().adjacency()
    live_cache: _LiveCache = {}
    _OVERLAY_CACHE[network] = (token, adjacency, live_cache)
    return adjacency, live_cache


def overlay_adjacency(network: RingNetwork) -> dict[int, list[int]]:
    """Symmetrized overlay graph: fingers ∪ ring links ∪ their reverses.

    Metropolis–Hastings needs a *reversible* proposal chain, but finger
    pointers are directed; a walk over out-links alone has a stationary
    distribution far from uniform (badly so when peer ids cluster, e.g.
    under load-balanced placement).  Real DHT random-walk samplers
    therefore walk the undirected overlay — every peer also keeps the
    in-links that Chord's notify traffic reveals.  We model that by
    symmetrizing the current pointer graph, memoized until the next
    membership or pointer change.
    """
    return _overlay_views(network)[0]


def _build_adjacency(network: RingNetwork) -> dict[int, list[int]]:
    adjacency: dict[int, set[int]] = {ident: set() for ident in network.peer_ids()}
    for node in network.peers():
        links = set(node.fingers)
        links.discard(None)
        links.add(node.successor_id)
        if node.predecessor_id is not None:
            links.add(node.predecessor_id)
        links.discard(node.ident)
        own = adjacency[node.ident]
        for target in links:
            neighbors = adjacency.get(target)
            if neighbors is not None:
                own.add(target)
                neighbors.add(node.ident)
    return {ident: sorted(neighbors) for ident, neighbors in adjacency.items()}


def metropolis_hastings_walk(
    network: RingNetwork,
    start: PeerNode,
    steps: int,
    rng: np.random.Generator,
    adjacency: dict[int, list[int]] | None = None,
    live_cache: _LiveCache | None = None,
) -> PeerNode:
    """Walk ``steps`` MH steps; the end node is ≈ uniform over peers.

    Each step proposes a uniform neighbour on the symmetrized overlay and
    accepts with probability ``min(1, deg(u)/deg(v))`` — the degree
    correction that makes the uniform distribution stationary.  Every
    proposal costs one counted ``WALK_STEP`` message (the degree query),
    accepted or not, posted to the ledger in bulk at walk end.

    ``live_cache`` memoizes the live-filtered neighbour lists (with their
    resolved nodes); a caller running many walks against unchanging peer
    liveness shares one dict across them to filter each list once.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if adjacency is None:
        adjacency = overlay_adjacency(network)
    cache: _LiveCache = live_cache if live_cache is not None else {}
    cache_get = cache.get
    adjacency_get = adjacency.get
    nodes_get = network._nodes.get
    integers = rng.integers
    uniform = rng.random

    def live_entry(ident: int) -> tuple[list[int], list[PeerNode]]:
        entry = cache_get(ident)
        if entry is None:
            ids: list[int] = []
            nodes: list[PeerNode] = []
            for neighbor_id in adjacency_get(ident, ()):
                node = nodes_get(neighbor_id)
                if node is not None:
                    ids.append(neighbor_id)
                    nodes.append(node)
            entry = (ids, nodes)
            cache[ident] = entry
        return entry

    current = start
    proposals = 0
    try:
        for _ in range(steps):
            # Cache hits are the common case once the first walks have
            # touched a node, so the lookup is inlined and the closure only
            # runs on misses.
            entry = cache_get(current.ident)
            if entry is None:
                entry = live_entry(current.ident)
            neighbor_nodes = entry[1]
            degree = len(neighbor_nodes)
            if not degree:
                break  # isolated node; the walk cannot move
            proposal = neighbor_nodes[integers(0, degree)]
            proposals += 1
            if not proposal.alive:
                continue
            proposal_entry = cache_get(proposal.ident)
            if proposal_entry is None:
                proposal_entry = live_entry(proposal.ident)
            degree_ratio = degree / max(len(proposal_entry[0]), 1)
            # The acceptance draw always happens (it is part of the RNG
            # stream even when the ratio accepts unconditionally); draws
            # are < 1 by construction, so `u < min(1, r)` ⇔ `r >= 1 or u < r`.
            u = uniform()
            if degree_ratio >= 1.0 or u < degree_ratio:
                current = proposal
    finally:
        if proposals:
            network.record(MessageType.WALK_STEP, count=proposals)
    return current


@dataclass(frozen=True)
class RandomWalkEstimator:
    """Uniform peer samples via MH walks, pooled with count weights."""

    probes: int = 64
    walk_length: int = 16
    synopsis_buckets: int = 8
    name: str = "random-walk"

    def __post_init__(self) -> None:
        if self.probes < 1:
            raise ValueError(f"probes must be >= 1, got {self.probes}")
        if self.walk_length < 1:
            raise ValueError(f"walk_length must be >= 1, got {self.walk_length}")
        if self.synopsis_buckets < 1:
            raise ValueError(f"synopsis_buckets must be >= 1, got {self.synopsis_buckets}")

    def estimate(
        self, network: RingNetwork, rng: Optional[np.random.Generator] = None
    ) -> DensityEstimate:
        """Collect ``probes`` walk-end peers and pool count-weighted.

        Failure conditions (empty ring, all-empty replies) come back as a
        zero-evidence degraded estimate rather than an exception.
        """
        generator = rng if rng is not None else network.rng
        before = network.stats.snapshot()
        try:
            summaries = []
            # One symmetrization per overlay state — models peers knowing
            # their in-links.  Liveness can only change together with the
            # overlay token, so the live-neighbour memo is shared across
            # passes too.
            adjacency, live_cache = _overlay_views(network)
            current = network.random_peer()
            for _ in range(self.probes):
                current = metropolis_hastings_walk(
                    network, current, self.walk_length, generator, adjacency, live_cache
                )
                network.record_rpc(
                    MessageType.PROBE_REQUEST,
                    MessageType.PROBE_REPLY,
                    reply_payload=self.synopsis_buckets + 2,
                )
                summaries.append(summarize_peer(network, current, self.synopsis_buckets))
            replies = ProbeReplies.from_summaries(summaries)
            counts = replies.local_count.astype(float)
            if counts.sum() <= 0:
                raise ValueError("all sampled peers were empty; cannot estimate a distribution")
            weights = counts / counts.sum()
            cdf = assemble_cdf(replies, weights, network.domain, "linear")
        except (NetworkError, ValueError) as exc:
            return degraded_from_exception(
                exc, network.domain, before.delta(network.stats.snapshot()), self.name, self.probes
            )
        cost = before.delta(network.stats.snapshot())
        # The walk is one sequential chain: every step and every summary
        # exchange sits on the critical path.
        latency = float(cost.hops + 2 * len(replies))
        # Uniform peer inclusion: mean segment length estimates ring/N,
        # mean count estimates n/N.
        mean_length = float(np.mean(replies.segment_length))
        n_peers = network.space.size / mean_length
        n_items = float(counts.mean()) * n_peers
        return DensityEstimate(
            cdf=cdf,
            domain=network.domain,
            n_items=n_items,
            n_peers=n_peers,
            probes=len(replies),
            cost=cost,
            method=self.name,
            latency_rounds=latency,
        )

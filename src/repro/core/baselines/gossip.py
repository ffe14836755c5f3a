"""Push-sum gossip aggregation — the accurate-but-costly comparator.

Every peer participates: each holds a value vector (its local counts over a
global equi-width histogram, plus an initiator indicator used to recover
``N``) and a push-sum weight.  Each synchronous round, every peer keeps
half of its mass and pushes half to one random overlay neighbour; the
ratio ``value / weight`` at every peer converges geometrically to the
network-wide average, from which the initiator reads off the global
histogram.  Accuracy at convergence is bounded only by the histogram
resolution — but every round costs N messages, so the total is Θ(R·N),
orders of magnitude above the probe-based methods.  That trade-off is the
point of including it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from repro.core.cdf import PiecewiseCDF
from repro.core.estimate import DensityEstimate, degraded_from_exception
from repro.ring.messages import CostSnapshot, MessageType
from repro.ring.network import NetworkError, RingNetwork
from repro.ring.node import PeerNode

__all__ = ["PushSumHistogramEstimator"]


def _gossip_candidates(network: RingNetwork, node: PeerNode) -> list[int]:
    """The node's live overlay neighbours (fingers or ring neighbours).

    Deduplicated in first-seen order — the order the random draw in
    :func:`_gossip_targets` indexes into.
    """
    candidates: list[int] = []
    seen: set[int] = set()
    for ident in [*node.fingers, node.successor_id, node.predecessor_id]:
        if ident is None or ident == node.ident or ident in seen:
            continue
        seen.add(ident)
        if network.try_node(ident) is not None:
            candidates.append(ident)
    return candidates


def _gossip_targets(network: RingNetwork, node: PeerNode, rng: np.random.Generator) -> Optional[int]:
    """One random live overlay neighbour (finger or ring neighbour)."""
    candidates = _gossip_candidates(network, node)
    if not candidates:
        return None
    return candidates[int(rng.integers(0, len(candidates)))]


# Memoized per-pass setup (peer order, initial histogram matrix, candidate
# index lists), keyed by everything it reads: the overlay token (membership
# and pointers) plus the sum of the stores' monotone version counters (any
# data mutation advances it).  A hit reproduces the uncached setup exactly.
_PASS_CACHE: "weakref.WeakKeyDictionary[RingNetwork, tuple]" = weakref.WeakKeyDictionary()


def _pass_setup(
    network: RingNetwork, buckets: int
) -> tuple[list[int], NDArray[np.float64], list[Optional[list[int]]]]:
    low, high = network.domain
    nodes = list(network.peers())
    store_token = sum(node.store.version for node in nodes)
    key = (network.topology_version, store_token, buckets)
    cached = _PASS_CACHE.get(network)
    if cached is not None and cached[0] == key:
        return cached[1], cached[2], cached[3]

    peer_ids = [node.ident for node in nodes]
    n = len(peer_ids)
    base_values = np.zeros((n, buckets + 1), dtype=float)
    # All N local histograms in one pass over the snapshot's packed value
    # array (per-peer segments in sorted-id order): the bin formula is the
    # one from LocalStore.histogram_range applied elementwise, and flat
    # bincount splits the counts per peer.  Rows are permuted back to the
    # iteration order of ``nodes``.
    snap = network.snapshot()
    hi_open = np.nextafter(high, np.inf)
    width = hi_open - low
    vals = snap.values
    inside = (vals >= low) & (vals < hi_open)
    sel = vals[inside] if not inside.all() else vals
    bucket_idx = ((sel - low) / width * buckets).astype(np.int64)
    np.minimum(bucket_idx, buckets - 1, out=bucket_idx)
    peer_idx = np.repeat(np.arange(n, dtype=np.int64), snap.counts)
    if sel is not vals:
        peer_idx = peer_idx[inside]
    hist = np.bincount(
        peer_idx * buckets + bucket_idx, minlength=n * buckets
    ).reshape(n, buckets)
    rows = np.searchsorted(snap.ids, np.asarray(peer_ids, dtype=np.uint64))
    base_values[:, :buckets] = hist[rows]
    index_of = {ident: i for i, ident in enumerate(peer_ids)}
    candidate_indices: list[Optional[list[int]]] = []
    for node in nodes:
        candidates = _gossip_candidates(network, node)
        candidate_indices.append(
            [index_of[c] for c in candidates] if candidates else None
        )
    _PASS_CACHE[network] = (key, peer_ids, base_values, candidate_indices)
    return peer_ids, base_values, candidate_indices


@dataclass(frozen=True)
class PushSumHistogramEstimator:
    """Global histogram by push-sum over the whole network.

    Parameters
    ----------
    buckets:
        Resolution of the global equi-width histogram.
    rounds:
        Push-sum rounds.  Convergence is geometric; ``O(log N + log 1/ε)``
        rounds reach relative error ``ε``.
    """

    buckets: int = 64
    rounds: int = 30
    name: str = "gossip-push-sum"

    def __post_init__(self) -> None:
        if self.buckets < 1:
            raise ValueError(f"buckets must be >= 1, got {self.buckets}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")

    def estimate(
        self, network: RingNetwork, rng: Optional[np.random.Generator] = None
    ) -> DensityEstimate:
        """Run push-sum to convergence and read the initiator's state.

        Failure conditions (empty ring, disconnected push-sum, empty
        histogram) come back as a zero-evidence degraded estimate rather
        than an exception.
        """
        generator = rng if rng is not None else network.rng
        before = network.stats.snapshot()
        low, high = network.domain
        try:
            return self._run_push_sum(network, generator, before, low, high)
        except (NetworkError, ValueError, RuntimeError) as exc:
            return degraded_from_exception(
                exc,
                network.domain,
                before.delta(network.stats.snapshot()),
                self.name,
                network.n_peers,
            )

    def _run_push_sum(
        self,
        network: RingNetwork,
        generator: np.random.Generator,
        before: CostSnapshot,
        low: float,
        high: float,
    ) -> DensityEstimate:

        # State as one (N, B+1) matrix: histogram slots + [indicator], and
        # a weight vector.  Mass movement per round is then two scatter-adds
        # instead of a dict of per-peer arrays.  The initial matrix and each
        # peer's candidate neighbours (liveness is fixed for a synchronous
        # pass) come from the memoized setup.
        peer_ids, base_values, candidate_indices = _pass_setup(network, self.buckets)
        n = len(peer_ids)
        initiator = peer_ids[int(generator.integers(0, n))]
        initiator_index = peer_ids.index(initiator)
        values = base_values.copy()
        weights = np.ones(n, dtype=float)
        values[initiator_index, self.buckets] = 1.0

        # Fault-aware path, taken only when a fault plane or base message
        # loss is configured (the fault-free path below is untouched and
        # byte-identical to its historical behaviour).  Push-sum has no
        # retransmission story: a dropped push destroys the in-flight half
        # of the sender's mass *and weight*, biasing the converged ratio —
        # exactly the failure mode Spectra's atomic exchanges avoid, and
        # the contrast F20 measures.  Stalled peers neither push nor
        # receive; pushes to them, across a partition, or over a lossy
        # link are lost.
        faults = network.faults
        plane = faults if faults is not None and faults.active else None
        loss_rate = network.loss_rate
        lossy = plane is not None or loss_rate > 0.0

        pushes = 0
        targets = np.empty(n, dtype=np.intp)
        inbox_values = np.empty_like(values)
        inbox_weights = np.empty_like(weights)
        integers = generator.integers
        if lossy:
            responsive = [
                plane is None or not plane.is_stalled(ident) for ident in peer_ids
            ]
            lost = np.zeros(n, dtype=bool)
            for _ in range(self.rounds):
                lost[:] = False
                for index, candidates in enumerate(candidate_indices):
                    if candidates is None or not responsive[index]:
                        # No live neighbour, or stalled: keeps both halves
                        # (a free self-push), sends nothing.
                        targets[index] = index
                        continue
                    targets[index] = candidates[int(integers(0, len(candidates)))]
                    pushes += 1
                    dst_index = int(targets[index])
                    delivered = True
                    if plane is not None:
                        src_id, dst_id = peer_ids[index], peer_ids[dst_index]
                        if not responsive[dst_index]:
                            delivered = False
                        elif not plane.reachable(src_id, dst_id):
                            delivered = False
                    if delivered and loss_rate > 0.0:
                        delivered = bool(generator.random() >= loss_rate)
                    lost[index] = not delivered
                values *= 0.5
                weights *= 0.5
                inbox_values.fill(0.0)
                inbox_weights.fill(0.0)
                kept = ~lost
                np.add.at(inbox_values, targets[kept], values[kept])
                np.add.at(inbox_weights, targets[kept], weights[kept])
                values += inbox_values
                weights += inbox_weights
        else:
            for _ in range(self.rounds):
                # Draw each peer's push target in peer order — the exact RNG
                # sequence the per-peer loop consumed (no draw for a peer with
                # no live neighbour: it keeps both halves, modelled as a push
                # to itself that costs no message).
                for index, candidates in enumerate(candidate_indices):
                    if candidates is None:
                        targets[index] = index
                    else:
                        targets[index] = candidates[int(integers(0, len(candidates)))]
                        pushes += 1
                values *= 0.5
                weights *= 0.5
                inbox_values.fill(0.0)
                inbox_weights.fill(0.0)
                np.add.at(inbox_values, targets, values)
                np.add.at(inbox_weights, targets, weights)
                values += inbox_values
                weights += inbox_weights
        if pushes:
            # One ledger update for the whole pass; totals are identical to
            # recording each push separately.
            network.record(
                MessageType.GOSSIP_PUSH,
                count=pushes,
                payload=(self.buckets + 2) * pushes,
            )

        state = values[initiator_index]
        weight = float(weights[initiator_index])
        if weight <= 0:
            raise RuntimeError("push-sum weight collapsed; network disconnected?")
        averaged = state / weight  # ≈ [global_counts / N ..., 1 / N]
        indicator = averaged[self.buckets]
        histogram = np.clip(averaged[: self.buckets], 0.0, None)
        mass = histogram.sum()
        if mass <= 0:
            raise ValueError("gossip converged to an empty histogram; no data in network")

        edges = np.linspace(low, high, self.buckets + 1)
        fs = np.concatenate(([0.0], np.cumsum(histogram) / mass))
        cdf = PiecewiseCDF(edges, fs, kind="linear")
        cost = before.delta(network.stats.snapshot())
        n_peers = 1.0 / indicator if indicator > 0 else float("nan")
        return DensityEstimate(
            cdf=cdf,
            domain=network.domain,
            n_items=float(mass * n_peers) if np.isfinite(n_peers) else float("nan"),
            n_peers=float(n_peers),
            probes=network.n_peers,
            cost=cost,
            method=self.name,
            latency_rounds=float(self.rounds),
        )

"""Spectra-style epidemic CDF estimation — robustness through mass conservation.

*Spectra* (arXiv:1204.1373) estimates distribution functions in networks by
epidemic aggregation designed to survive faults and message loss.  This
module implements that design point as a first-class
:class:`~repro.core.estimator.DensityEstimator` next to the paper's
probe-based sampler:

* **Density-screened synopsis injection.**  Every peer contributes its
  local count histogram on the shared global grid — the item-weighted
  aggregate, which under the repo's order-preserving placement is the
  unbiased global histogram.  Before injection, each contribution passes
  the *neighbourhood density screen*: a peer whose claimed density
  exceeds ``trim_ratio`` times the median density of its ring-nearest
  peers injects nothing (its neighbours, who can verify segment
  geometry, refuse to vouch for the claim).  This is the gossip-time
  analogue of the probe path's
  :func:`~repro.core.byzantine.trim_outlier_replies` — the same
  threshold semantics, applied once at round zero instead of per probe
  batch — so an isolated liar claiming 100× is excluded outright, while
  honest heavy hitters on smoothly skewed data survive (the reference is
  local, not global).  A subtler attacker lying *under* the threshold
  keeps influence bounded by ``trim_ratio × its honest share``, the same
  residual the probe-path trim admits.
* **Atomic, mass-conserving exchanges.**  Each round every responsive
  peer initiates one pairwise averaging exchange with a random
  ring/finger neighbour: the exchange commits only when the request and
  its response both arrive, and on commit *both* endpoints replace their
  state with the pair average.  A timeout on either leg aborts the
  exchange with no state change at either end.  Nothing is ever
  duplicated or destroyed, so under message loss the epidemic average
  stays exactly correct and only converges more slowly.  Plain push-sum
  (:class:`~repro.core.baselines.gossip.PushSumHistogramEstimator` under
  its fault-aware path) destroys in-flight mass on a drop; that contrast
  is the point of running both in F20.
* **FaultPlane + EventEngine integration.**  Every exchange is a
  ``GOSSIP`` delivery on a :class:`~repro.ring.events.EventEngine` clock,
  and delivery consults the attached
  :class:`~repro.ring.faults.FaultPlane` exactly as the probe path does:
  stalled endpoints fail the exchange, cross-partition sends fail, and
  the base loss rate drops messages.  Cost is recorded per attempted exchange
  (``GOSSIP_PUSH``, one synopsis payload each), so the message-cost
  comparison against probing is apples-to-apples.

Degradation contract: the client seeds and reads ``entries`` entry peers,
merging per-component totals (each component reports its own size through
the entry-indicator channels), so a partition costs accuracy only for
arcs no entry landed in and peers that are stalled.  When the reachable,
responsive population falls short of the ring the result is a
:class:`~repro.core.estimate.DegradedEstimate` whose ``coverage`` is that
population's share (``ci_inflation`` follows the probe path's
``1/sqrt(coverage)`` convention, and the failure reasons use
``"partitioned"`` / ``"stalled"``).  Pure message loss degrades nothing —
conserved mass still averages to the true value — which is exactly the
property the estimator exists to demonstrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.typing import NDArray

from repro.core.baselines.gossip import _pass_setup
from repro.core.byzantine import trim_outlier_replies
from repro.core.cdf import PiecewiseCDF
from repro.core.estimate import (
    DegradedEstimate,
    DensityEstimate,
    degraded_from_exception,
    zero_evidence_estimate,
)
from repro.core.replies import ProbeReplies
from repro.core.synopsis import summarize_peer
from repro.ring.events import EventEngine, schedule_gossip_push
from repro.ring.messages import CostSnapshot
from repro.ring.network import NetworkError, RingNetwork

__all__ = ["SpectraEstimator"]


@dataclass(frozen=True)
class SpectraEstimator:
    """Epidemic peer-average CDF: robust to loss and bounded against liars.

    Parameters
    ----------
    buckets:
        Resolution of the global equi-width histogram each peer reports
        into.  One exchange carries ``2 · (buckets + entries + 2)``
        payload units (histogram + count channel + entry indicators +
        averaging weight, in each direction of the push-pull pair).
    rounds:
        Epidemic rounds.  Convergence of the ratio estimate is geometric
        in the fault-free case; loss and stalls stretch it (the mass is
        conserved, so accuracy is recovered by running longer — the
        trade-off F20 quantifies).
    trim_ratio:
        Neighbourhood density-screen threshold (must exceed 1): a peer
        claiming more than this multiple of its ring-neighbourhood's
        median density injects nothing.  Mirrors the probe path's
        ``trim_density_ratio`` default.
    entries:
        Entry points the client seeds and reads.  Each entry peer gets
        its own indicator channel (mass 1 at that peer), so after the
        epidemic every reachable component reports its own size (the
        component holds ``|signature|`` units of indicator mass, so
        ``|C| ≈ |signature| / Σ indicator ratios``) and the client can
        *merge component totals across a partition* — the epidemic
        analogue of probe RPCs landing in every arc.  One entry
        reproduces the classic single-initiator readout and is blind to
        the other side of a partition.
    """

    buckets: int = 64
    rounds: int = 30
    trim_ratio: float = 20.0
    entries: int = 8
    name: str = "spectra"

    def __post_init__(self) -> None:
        if self.buckets < 1:
            raise ValueError(f"buckets must be >= 1, got {self.buckets}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.trim_ratio <= 1.0:
            raise ValueError(f"trim_ratio must be > 1, got {self.trim_ratio}")
        if self.entries < 1:
            raise ValueError(f"entries must be >= 1, got {self.entries}")

    def estimate(
        self, network: RingNetwork, rng: Optional[np.random.Generator] = None
    ) -> DensityEstimate:
        """Run the epidemic to its round budget and read one peer's ratio.

        Terminal no-evidence conditions (empty ring, no data anywhere in
        the readout component) come back as a zero-evidence degraded
        estimate rather than an exception.
        """
        generator = rng if rng is not None else network.rng
        before = network.stats.snapshot()
        if network.n_peers == 0:
            return zero_evidence_estimate(
                network.domain,
                before.delta(network.stats.snapshot()),
                self.name,
                0,
                ("empty_ring",),
            )
        try:
            return self._run_epidemic(network, generator, before)
        except (NetworkError, ValueError, RuntimeError) as exc:
            return degraded_from_exception(
                exc,
                network.domain,
                before.delta(network.stats.snapshot()),
                self.name,
                network.n_peers,
            )

    # ------------------------------------------------------------------
    def _local_states(
        self, network: RingNetwork
    ) -> tuple[list[int], NDArray[np.float64], list[Optional[list[int]]]]:
        """Initial per-peer state: ``[count histogram, count, indicator]``.

        Byzantine peers report the same lie they feed the probe path — the
        fabricated synopsis of :func:`repro.core.synopsis.fabricate_summary`,
        binned onto the global grid — so the attack hits both estimator
        families identically.  Every claim then passes the neighbourhood
        density screen (:func:`~repro.core.byzantine.trim_outlier_replies`
        over the full peer population); screened-out peers inject zeros but
        keep relaying, exactly like an un-vouched-for peer in a deployed
        epidemic.
        """
        low, high = network.domain
        peer_ids, base_values, candidate_indices = _pass_setup(network, self.buckets)
        n = len(peer_ids)
        states = np.zeros((n, self.buckets + 1), dtype=float)
        raw = base_values[:, : self.buckets]
        counts = raw.sum(axis=1)
        states[:, : self.buckets] = raw
        states[:, self.buckets] = counts
        # Every peer's *claimed* summary: fabricated for liars, since
        # summarize_peer applies the behaviour itself.
        claims = ProbeReplies.from_summaries(
            [summarize_peer(network, network.node(ident), self.buckets) for ident in peer_ids]
        )
        liar_rows = [
            index
            for index, ident in enumerate(peer_ids)
            if getattr(network.node(ident), "byzantine", None) is not None
        ]
        if liar_rows:
            lies = np.isin(claims.seg_probe, liar_rows)
            seg_edges = claims.bucket_edges()[lies]
            centers = 0.5 * (seg_edges[:, :-1] + seg_edges[:, 1:])
            edges = np.linspace(low, high, self.buckets + 1)
            bucket_idx = np.clip(
                np.searchsorted(edges, centers, side="right") - 1, 0, self.buckets - 1
            )
            hist = np.zeros((n, self.buckets), dtype=float)
            rows = np.broadcast_to(claims.seg_probe[lies, None], bucket_idx.shape)
            np.add.at(hist, (rows, bucket_idx), claims.seg_counts[lies].astype(float))
            states[liar_rows, : self.buckets] = hist[liar_rows]
            states[liar_rows, self.buckets] = claims.local_count[liar_rows].astype(float)
        # The density screen is iterated to a fixed point: a *cluster* of
        # adjacent liars can vouch for each other's neighbourhood median on
        # the first pass, but once the screened majority of the cluster is
        # removed the stragglers stand isolated against honest neighbours
        # and fall on the next pass.  Honest peers only ever gain honest
        # neighbours as liars are removed, so iteration never grows the
        # false-positive set and terminates in at most n passes.
        kept = claims
        while True:
            survivors = trim_outlier_replies(kept, self.trim_ratio)
            if len(survivors) == len(kept):
                break
            kept = survivors
        kept_ids = set(kept.owner.tolist())
        for index, ident in enumerate(peer_ids):
            if ident not in kept_ids:
                states[index, : self.buckets + 1] = 0.0
        return peer_ids, states, candidate_indices

    def _run_epidemic(
        self,
        network: RingNetwork,
        generator: np.random.Generator,
        before: CostSnapshot,
    ) -> DensityEstimate:
        low, high = network.domain
        peer_ids, local_states, candidate_indices = self._local_states(network)
        n = len(peer_ids)
        faults = network.faults
        plane = faults if faults is not None and faults.active else None
        loss_rate = network.loss_rate
        responsive = [
            plane is None or not plane.is_stalled(ident) for ident in peer_ids
        ]
        responsive_indices = [i for i in range(n) if responsive[i]]
        if not responsive_indices:
            raise RuntimeError("every peer is stalled; no entry point")
        k = min(self.entries, len(responsive_indices))
        picked = generator.choice(len(responsive_indices), size=k, replace=False)
        entry_indices = [responsive_indices[int(i)] for i in picked]
        # State layout: [count histogram (B), local count, k entry
        # indicators]; plus the push weight vector.  Indicator j starts as
        # mass 1 at entry j, so its converged ratio in a component is
        # 1/|component| — the component-size readout.
        states = np.zeros((n, self.buckets + 1 + k), dtype=float)
        states[:, : self.buckets + 1] = local_states
        for j, entry in enumerate(entry_indices):
            states[entry, self.buckets + 1 + j] = 1.0
        weights = np.ones(n, dtype=float)

        engine = EventEngine(network, seed=0)
        # Request and response each carry a full synopsis.
        payload = float(2 * (self.buckets + k + 2))

        def make_exchange(src_index: int, dst_index: int) -> Callable[[], None]:
            src_id, dst_id = peer_ids[src_index], peer_ids[dst_index]

            def exchange() -> None:
                # Push-pull averaging commits only when both legs of the
                # round trip deliver; an aborted exchange leaves both
                # states untouched.  Either way global mass is conserved
                # exactly, no matter what the plane does.
                delivered = True
                if plane is not None:
                    if not responsive[dst_index]:
                        delivered = False
                    elif not plane.reachable(src_id, dst_id):
                        delivered = False
                if delivered and loss_rate > 0.0:
                    delivered = bool(
                        generator.random() >= loss_rate
                        and generator.random() >= loss_rate
                    )
                if not delivered:
                    return
                pair_state = 0.5 * (states[src_index] + states[dst_index])
                pair_weight = 0.5 * (weights[src_index] + weights[dst_index])
                states[src_index] = pair_state
                states[dst_index] = pair_state.copy()
                weights[src_index] = pair_weight
                weights[dst_index] = pair_weight

            return exchange

        for round_index in range(self.rounds):
            for src_index, candidates in enumerate(candidate_indices):
                if not responsive[src_index] or not candidates:
                    continue
                dst_index = candidates[int(generator.integers(0, len(candidates)))]
                schedule_gossip_push(
                    engine,
                    peer_ids[src_index],
                    peer_ids[dst_index],
                    payload_units=payload,
                    tag=round_index,
                    on_deliver=make_exchange(src_index, dst_index),
                )
            engine.run()

        # Readout: each entry peer reports its ratio vector.  Entries in
        # the same connected component share an indicator *signature* (the
        # set of entry indicators with positive mass), so distinct
        # signatures enumerate the distinct reachable components; each
        # component's histogram total is its average ratio scaled by its
        # size estimate, and the client sums component totals — merging
        # evidence across a partition exactly as multi-arc probes do.
        eps = 1e-12
        components: dict[tuple[int, ...], list[NDArray[np.float64]]] = {}
        for j, entry in enumerate(entry_indices):
            weight = float(weights[entry])
            if weight <= 0.0:
                continue
            ratio = states[entry] / weight
            signature = tuple(
                idx
                for idx in range(k)
                if float(ratio[self.buckets + 1 + idx]) > eps
            )
            if not signature:
                continue
            components.setdefault(signature, []).append(ratio)
        if not components:
            raise RuntimeError("no entry peer produced a readable ratio")
        histogram = np.zeros(self.buckets, dtype=float)
        n_items = 0.0
        n_peers_hat = 0.0
        for signature in sorted(components):
            ratios = components[signature]
            mean_ratio = np.mean(np.stack(ratios, axis=0), axis=0)
            # The component holds exactly |signature| units of indicator
            # mass (one per entry seeded inside it), so at convergence
            # the ratios sum to |signature| / |component|.  Summing
            # before inverting averages out the residual imbalance
            # between an entry's own indicator and the ones it received.
            indicator_sum = float(
                sum(mean_ratio[self.buckets + 1 + idx] for idx in signature)
            )
            size = len(signature) / max(indicator_sum, eps)
            size = min(max(size, 1.0), float(n))
            histogram += np.clip(mean_ratio[: self.buckets], 0.0, None) * size
            n_items += float(mean_ratio[self.buckets]) * size
            n_peers_hat += size
        mass = histogram.sum()
        if mass <= 0:
            raise ValueError("epidemic converged to an empty histogram; no data seen")
        edges = np.linspace(low, high, self.buckets + 1)
        fs = np.concatenate(([0.0], np.cumsum(histogram) / mass))
        cdf = PiecewiseCDF(edges, fs, kind="linear")
        cost = before.delta(network.stats.snapshot())

        if plane is not None:
            # Structural coverage: responsive peers reachable from at least
            # one entry point.  Deterministic given the plane state, so the
            # degradation tests can assert monotonicity on it.
            entry_ids = [peer_ids[e] for e in entry_indices]
            reached = sum(
                1
                for i, ident in enumerate(peer_ids)
                if responsive[i]
                and any(plane.reachable(entry, ident) for entry in entry_ids)
            )
            coverage = reached / n
            if coverage < 1.0:
                reasons: list[str] = []
                if plane.partitioned:
                    reasons.append("partitioned")
                if plane.stalled_ids:
                    reasons.append("stalled")
                inflation = float(1.0 / np.sqrt(max(coverage, 1.0 / n)))
                return DegradedEstimate(
                    cdf=cdf,
                    domain=network.domain,
                    n_items=n_items,
                    n_peers=n_peers_hat,
                    probes=reached,
                    cost=cost,
                    method=self.name,
                    latency_rounds=float(self.rounds),
                    coverage=coverage,
                    probes_requested=n,
                    failures=tuple(sorted(reasons)),
                    ci_inflation=inflation,
                )
        return DensityEstimate(
            cdf=cdf,
            domain=network.domain,
            n_items=n_items,
            n_peers=n_peers_hat,
            probes=n,
            cost=cost,
            method=self.name,
            latency_rounds=float(self.rounds),
        )

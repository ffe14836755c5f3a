"""Batch probe collection against the probe-at-a-time oracles.

:func:`collect_probes_resilient` and :func:`collect_probes_at` route a
whole probe batch hop-synchronously and exchange requests and replies in
vector rounds.  Without message loss that is a pure read of the overlay
and the fault plane, so the batch must equal the scalar loops of
``reference_collection`` bit for bit: replies, failures, the ledger and
the generator state afterwards.  Under loss the draws come in another
order, so the two must agree in distribution over a seed ensemble.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from repro.core.cdf_sampling import collect_probes_at, collect_probes_resilient
from repro.ring import routing
from repro.ring.chord import crash
from repro.ring.faults import FaultPlane, RetryPolicy, plane_from_profile
from repro.ring.messages import MessageType
from repro.ring.network import RingNetwork
from repro.ring.routing import _BATCH_TAIL_CUTOFF, route_probes_batch, route_with_policy

from tests.core.reference_collection import collect_at_scalar, collect_resilient_scalar

BUCKETS = 8


def _world(seed, n_peers, crashed=0.0, self_loops=0, stall=0.0, arcs=0, plane=None):
    """A loaded, unmaintained ring with crashed peers, loops and a fault plane."""
    network = RingNetwork.create(n_peers, seed=seed)
    rng = np.random.default_rng(seed + 7)
    network.load_data(rng.normal(0.5, 0.15, 20 * n_peers).clip(0.0, 1.0))
    ids = list(network.peer_ids())
    for index in rng.choice(len(ids), size=int(crashed * n_peers), replace=False).tolist():
        crash(network, ids[index])
    survivors = list(network.peer_ids())
    for index in rng.choice(len(survivors), size=self_loops, replace=False).tolist():
        node = network.node(survivors[index])
        node.successor_id = node.ident
    network.note_overlay_change()
    plane = network.install_faults(plane if plane is not None else FaultPlane(seed=seed))
    if stall:
        picked = rng.choice(len(survivors), size=int(stall * len(survivors)), replace=False)
        plane.stall([survivors[i] for i in picked.tolist()])
    if arcs:
        plane.partition([network.space.size * i // arcs for i in range(arcs)])
    return network


def _observe(network, collect):
    """What a collection returns and leaves behind: ledger and generator."""
    network.reset_stats()
    try:
        result = collect()
    except routing.RoutingError as exc:
        result = ("raised", str(exc))
    return result, dict(network.stats.counts), network.rng.bit_generator.state


def _columns(replies):
    return (
        replies.target.tolist(),
        replies.hops.tolist(),
        replies.owner.tolist(),
        replies.local_count.tolist(),
        replies.seg_counts.tolist(),
    )


POLICIES = [
    RetryPolicy.DEFAULT,
    RetryPolicy.UNBOUNDED,
    RetryPolicy(max_attempts=2).with_hop_budget(4),
    RetryPolicy(max_attempts=1).with_hop_budget(9),
]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_peers=st.integers(min_value=12, max_value=160),
    crashed=st.sampled_from([0.0, 0.1, 0.25]),
    self_loops=st.integers(min_value=0, max_value=3),
    stall=st.sampled_from([0.0, 0.05, 0.2, 0.5]),
    arcs=st.sampled_from([0, 0, 2, 3]),
    policy=st.sampled_from(POLICIES),
    count=st.sampled_from([1, _BATCH_TAIL_CUTOFF, _BATCH_TAIL_CUTOFF + 1, 60]),
)
def test_structural_faults_match_scalar_bit_for_bit(
    seed, n_peers, crashed, self_loops, stall, arcs, policy, count
):
    """Stalls, partitions and crashed peers draw nothing: the batch is exact."""
    world = dict(crashed=crashed, self_loops=self_loops, stall=stall, arcs=arcs)
    batch_net = _world(seed, n_peers, **world)
    scalar_net = _world(seed, n_peers, **world)
    targets = np.random.default_rng(seed).integers(
        0, batch_net.space.size, size=count, dtype=np.uint64
    )

    (replies, failures), ledger, state = _observe(
        batch_net, lambda: collect_probes_resilient(batch_net, targets, BUCKETS, policy=policy)
    )
    (ref_replies, ref_failures), ref_ledger, ref_state = _observe(
        scalar_net,
        lambda: collect_resilient_scalar(scalar_net, targets, BUCKETS, policy=policy),
    )
    assert _columns(replies) == _columns(ref_replies)
    assert failures == ref_failures
    assert ledger == ref_ledger
    assert state == ref_state

    # The unbounded route_to_key law ignores the plane; still exact.
    plain, ledger, state = _observe(
        batch_net, lambda: collect_probes_at(batch_net, targets, BUCKETS)
    )
    ref_plain, ref_ledger, ref_state = _observe(
        scalar_net, lambda: collect_at_scalar(scalar_net, targets, BUCKETS)
    )
    if isinstance(ref_plain, tuple):
        # Raised: the ledgers differ by design (see the raise-path test below).
        assert plain == ref_plain
        return
    assert _columns(plain) == _columns(ref_plain)
    assert ledger == ref_ledger
    assert state == ref_state


def test_link_overrides_draw_in_scalar_order():
    """Per-link loss draws from the plane's generator, probe after probe."""
    worlds = []
    for _ in range(2):
        network = _world(4, 80, stall=0.1)
        for ident in network.peer_ids():
            network.faults.set_link_loss(ident, network.node(ident).successor_id, 0.4)
        worlds.append(network)
    batch_net, scalar_net = worlds
    targets = np.random.default_rng(4).integers(0, 2**64, size=60, dtype=np.uint64)
    (replies, failures), ledger, state = _observe(
        batch_net, lambda: collect_probes_resilient(batch_net, targets, BUCKETS)
    )
    (ref_replies, ref_failures), ref_ledger, ref_state = _observe(
        scalar_net, lambda: collect_resilient_scalar(scalar_net, targets, BUCKETS)
    )
    assert _columns(replies) == _columns(ref_replies)
    assert (failures, ledger, state) == (ref_failures, ref_ledger, ref_state)
    plane_state = batch_net.faults.rng.bit_generator.state
    assert plane_state == scalar_net.faults.rng.bit_generator.state
    assert plane_state != np.random.default_rng(4).bit_generator.state  # drew


def test_structural_property_reaches_every_hand_off(monkeypatch):
    """The worlds above send lookups to every scalar resume path."""
    reference = routing.route_with_policy
    seen = Counter()

    def spy(network, start, key, policy=None, max_hops=None, *, _resume=None):
        if _resume is not None:
            seen["settled" if _resume.settled else "arrival"] += 1
            seen["excluded"] += bool(_resume.excluded)
            seen["blocked"] += _resume.blocked
        return reference(network, start, key, policy, max_hops, _resume=_resume)

    monkeypatch.setattr(routing, "route_with_policy", spy)
    for seed in range(6):
        network = _world(seed, 150, crashed=0.1, self_loops=3, stall=0.2, arcs=2)
        targets = np.random.default_rng(seed).integers(0, network.space.size, size=60, dtype=np.uint64)
        collect_probes_resilient(network, targets, BUCKETS)
    assert seen["settled"] and seen["arrival"] and seen["excluded"] and seen["blocked"]


# -- lossy batches: equal in distribution ----------------------------------

ENSEMBLE = range(40)
PROBES = 64
N_PEERS = 300
#: Two-sided tolerance, in standard errors, for every rate and mean below.
Z = 4.5
#: KS p-value floor for the hop distributions.
P_FLOOR = 1e-3


def _lossy_world(profile, seed):
    if profile == "loss":
        plane = FaultPlane(seed=seed, loss_rate=0.2)
    else:
        plane = plane_from_profile(profile, seed=seed, ring_size=2**64)
    return _world(seed, N_PEERS, plane=plane)


def _ensemble(profile, collect):
    """Pooled per-probe outcomes of one collector over the seed ensemble.

    ``hops`` are the answered probes' route costs, ``failed_hops`` the
    failed ones'.
    """
    hops, failed_hops, reasons, requests, replies = [], [], Counter(), [], []
    for seed in ENSEMBLE:
        network = _lossy_world(profile, seed)
        targets = np.random.default_rng(seed + 99).integers(
            0, network.space.size, size=PROBES, dtype=np.uint64
        )
        network.reset_stats()
        answered, failures = collect(network, targets)
        hops.extend(answered.hops.tolist())
        reasons.update(failure.reason for failure in failures)
        failed_hops.extend(failure.hops for failure in failures)
        requests.append(network.stats.count_of(MessageType.PROBE_REQUEST) / PROBES)
        replies.append(network.stats.count_of(MessageType.PROBE_REPLY) / PROBES)
    return hops, reasons, np.asarray(requests), np.asarray(replies), failed_hops


def _assert_rates_agree(batch, scalar, total):
    for reason in set(batch) | set(scalar):
        p1, p2 = batch[reason] / total, scalar[reason] / total
        pooled = (batch[reason] + scalar[reason]) / (2 * total)
        se = np.sqrt(2 * pooled * (1 - pooled) / total)
        assert abs(p1 - p2) <= Z * se, (reason, p1, p2)


def _assert_means_agree(a, b, what):
    se = np.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
    assert abs(a.mean() - b.mean()) <= Z * se + 1e-12, (what, a.mean(), b.mean())


@pytest.mark.parametrize(
    "profile, policy",
    [
        ("light", RetryPolicy.DEFAULT),
        ("heavy", RetryPolicy.DEFAULT),
        ("loss", RetryPolicy(max_attempts=2)),
        ("heavy", RetryPolicy(max_attempts=2).with_hop_budget(10)),
        # No active plane: the route_to_key law, whose budget is checked
        # before every attempt.
        ("loss", RetryPolicy(max_attempts=2).with_hop_budget(6)),
    ],
)
def test_lossy_resilient_batch_matches_scalar_in_distribution(profile, policy):
    batch = _ensemble(
        profile, lambda net, t: collect_probes_resilient(net, t, BUCKETS, policy=policy)
    )
    scalar = _ensemble(
        profile, lambda net, t: collect_resilient_scalar(net, t, BUCKETS, policy=policy)
    )
    total = len(ENSEMBLE) * PROBES
    _assert_rates_agree(batch[1], scalar[1], total)
    assert ks_2samp(batch[0], scalar[0]).pvalue >= P_FLOOR
    if batch[4] or scalar[4]:
        assert ks_2samp(batch[4], scalar[4]).pvalue >= P_FLOOR
    _assert_means_agree(batch[2], scalar[2], "requests")
    _assert_means_agree(batch[3], scalar[3], "replies")
    if policy.max_hops is not None and policy.max_hops < 10:
        # The tight budget is reached, and so is the attempt cap.
        assert batch[1]["hop_budget"] > 0 and batch[1]["retry_exhausted"] > 0
        # Only the final delivery, which has no budget check, may run past it.
        assert max(batch[4]) <= policy.max_hops + policy.max_attempts


def test_lossy_plain_batch_matches_scalar_in_distribution():
    """collect_probes_at keeps the unbounded law: every probe is answered."""
    batch = _ensemble("loss", lambda net, t: (collect_probes_at(net, t, BUCKETS), []))
    scalar = _ensemble("loss", lambda net, t: (collect_at_scalar(net, t, BUCKETS), []))
    assert len(batch[0]) == len(scalar[0]) == len(ENSEMBLE) * PROBES
    assert ks_2samp(batch[0], scalar[0]).pvalue >= P_FLOOR
    _assert_means_agree(batch[2], scalar[2], "requests")
    _assert_means_agree(batch[3], scalar[3], "replies")
    # Retransmission inflates each leg by 1/(1-p) on average.
    assert batch[2].mean() == pytest.approx(1 / 0.8**2, rel=0.05)


@pytest.mark.parametrize("profile", ["light", "heavy"])
def test_lossy_policy_routes_match_scalar_in_distribution(profile):
    """Per lookup: hops and failure reasons."""
    policy = RetryPolicy.DEFAULT
    batch_hops, batch_reasons = [], Counter()
    ref_hops, ref_reasons = [], Counter()
    for seed in ENSEMBLE:
        network = _lossy_world(profile, seed)
        reference = _lossy_world(profile, seed)
        rng = np.random.default_rng(seed + 5)
        entries = rng.integers(0, network.n_peers, size=PROBES)
        keys = rng.integers(0, network.space.size, size=PROBES, dtype=np.uint64)
        routes = route_probes_batch(network, entries, keys, policy)
        batch_hops.extend(routes.hops.tolist())
        batch_reasons.update(routes.reason(i) for i in np.flatnonzero(routes.failure).tolist())
        ids = reference.sorted_ids_array()
        for entry, key in zip(entries.tolist(), keys.tolist()):
            outcome = route_with_policy(reference, reference.node(int(ids[entry])), key, policy)
            ref_hops.append(outcome.hops)
            if outcome.failure is not None:
                ref_reasons[outcome.failure] += 1
    _assert_rates_agree(batch_reasons, ref_reasons, len(ENSEMBLE) * PROBES)
    assert ks_2samp(batch_hops, ref_hops).pvalue >= P_FLOOR


def test_routing_error_leaves_routed_hops_and_no_exchange(monkeypatch):
    """A raising lookup aborts the batch after routing, before any exchange."""
    reference = routing.route_to_key
    resumed = []

    def counting(network, start, key, max_hops=None, **kwargs):
        result = reference(network, start, key, max_hops, **kwargs)
        resumed.append(result.hops)
        return result

    def raising(network, start, key, max_hops=None, **kwargs):
        raise routing.RoutingError(f"lookup for key {key} stuck at peer {start.ident}")

    targets = np.random.default_rng(3).integers(0, 2**64, size=60, dtype=np.uint64)
    twin = _world(3, 150, crashed=0.1)
    monkeypatch.setattr(routing, "route_to_key", counting)
    twin.reset_stats()
    collect_probes_at(twin, targets, BUCKETS)
    assert resumed  # some lookups finish in the scalar router
    vector_hops = twin.stats.count_of(MessageType.LOOKUP_HOP) - sum(resumed)

    network = _world(3, 150, crashed=0.1)
    monkeypatch.setattr(routing, "route_to_key", raising)
    network.reset_stats()
    with pytest.raises(routing.RoutingError):
        collect_probes_at(network, targets, BUCKETS)
    assert network.stats.count_of(MessageType.LOOKUP_HOP) == vector_hops > 0
    assert network.stats.count_of(MessageType.PROBE_REQUEST) == 0
    assert network.stats.count_of(MessageType.PROBE_REPLY) == 0

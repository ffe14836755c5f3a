"""Batch probe collection and policy routing against the one-at-a-time oracles.

:func:`collect_probes_resilient` and :func:`collect_probes_at` route a
whole probe batch hop-synchronously and exchange requests and replies in
vector rounds; :func:`route_with_policy` routes one lookup as a batch of
one.  Without message loss that is a pure read of the overlay and the
fault plane, so each must equal its scalar oracle (``reference_collection``
and ``reference_routing``) bit for bit: replies, failures, timeouts and
retries, the ledger and the generator state afterwards.  Under loss the
draws come in another order, so the two must agree in distribution over a
seed ensemble.  No lookup of a batch is handed to a scalar router.
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
from repro.ring.lockstep import route_lockstep
from repro.ring.messages import MessageType
from repro.ring.network import RingNetwork
from repro.ring.routing import route_probes_batch, route_with_policy

from tests.core.reference_collection import collect_at_scalar, collect_resilient_scalar
from tests.ring import reference_routing
from tests.ring.reference_routing import route_with_policy_scalar

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
    count=st.sampled_from([1, 16, 17, 60]),
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


def _outcome_row(network, outcome):
    """A policy outcome with its owner as a row of the live ring order."""
    owner = outcome.owner
    row = None if owner is None else network.sorted_ids_array().tolist().index(owner.ident)
    return (row, outcome.hops, outcome.timeouts, outcome.retries, outcome.failure)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_peers=st.integers(min_value=12, max_value=160),
    crashed=st.sampled_from([0.0, 0.1, 0.25]),
    self_loops=st.integers(min_value=0, max_value=3),
    stall=st.sampled_from([0.0, 0.05, 0.2, 0.5]),
    arcs=st.sampled_from([0, 0, 2, 3]),
    policy=st.sampled_from(POLICIES + [None]),
)
def test_policy_wrapper_matches_oracle_bit_for_bit(
    seed, n_peers, crashed, self_loops, stall, arcs, policy
):
    """route_with_policy, a batch of one, is the oracle's lookup exactly."""
    world = dict(crashed=crashed, self_loops=self_loops, stall=stall, arcs=arcs)
    network = _world(seed, n_peers, **world)
    reference = _world(seed, n_peers, **world)
    rng = np.random.default_rng(seed + 1)
    ids = network.sorted_ids_array().tolist()
    entries = rng.integers(len(ids), size=12).tolist()
    keys = rng.integers(0, network.space.size, size=12, dtype=np.uint64).tolist()

    def run(net, route):
        return [
            _outcome_row(net, route(net, net.node(ids[entry]), key, policy))
            for entry, key in zip(entries, keys)
        ]

    rows, ledger, state = _observe(network, lambda: run(network, route_with_policy))
    ref_rows, ref_ledger, ref_state = _observe(
        reference, lambda: run(reference, route_with_policy_scalar)
    )
    assert rows == ref_rows
    assert (ledger, state) == (ref_ledger, ref_state)


def test_structural_property_reaches_every_hand_off(monkeypatch):
    """The worlds above hand lookups to every failover path the kernel runs.

    The successor list (past a departed, self-looped or timed-out primary
    pointer), the next-row repair past the list, a successor the lookup
    timed out earlier on its route, a lookup with nowhere left to go
    (``stuck`` or ``partitioned``) and the hop budget.  The oracle's
    successor consults are spied on; the kernel matches the oracle on
    every one of these lookups.
    """
    reference = reference_routing._live_successor
    paths = Counter()

    def spy(network, node, excluded):
        if reference(network, node, frozenset()) in excluded:
            paths["excluded successor"] += 1
        usable = [
            entry
            for entry in (node.successor_id, *node.successor_list)
            if entry != node.ident and entry not in excluded and network.try_node(entry)
        ]
        if not usable:
            paths["next row"] += 1
        elif usable[0] != node.successor_id:
            paths["list"] += 1
        return reference(network, node, excluded)

    monkeypatch.setattr(reference_routing, "_live_successor", spy)
    reasons = Counter()
    for seed in range(6):
        policy = POLICIES[seed % 3]
        world = dict(crashed=0.1, self_loops=3, stall=0.2, arcs=2 * (seed % 2))
        batch_net = _world(seed, 150, **world)
        scalar_net = _world(seed, 150, **world)
        targets = np.random.default_rng(seed).integers(0, 2**64, size=60, dtype=np.uint64)
        replies, failures = collect_probes_resilient(batch_net, targets, BUCKETS, policy=policy)
        ref_replies, ref_failures = collect_resilient_scalar(
            scalar_net, targets, BUCKETS, policy=policy
        )
        assert _columns(replies) == _columns(ref_replies)
        assert failures == ref_failures
        reasons.update(failure.reason for failure in failures)
    assert paths["list"] and paths["next row"] and paths["excluded successor"]
    assert reasons["stuck"] + reasons["partitioned"] and reasons["hop_budget"]


def _lossy_or_faulted_worlds():
    yield _world(1, 120, crashed=0.15, self_loops=3)
    yield _world(2, 120, stall=0.2, arcs=3)
    yield _world(3, 120, plane=plane_from_profile("heavy", seed=3, ring_size=2**64))
    yield _world(4, 120, crashed=0.1, plane=FaultPlane(seed=4, loss_rate=0.3))


def test_batches_call_no_scalar_router(monkeypatch):
    """Batches never hand a lookup to the scalar rule or to the oracle."""
    calls = Counter()

    def forbidden(name):
        def refuse(*args, **kwargs):
            calls[name] += 1
            raise AssertionError(f"{name} called from a batch")

        return refuse

    monkeypatch.setattr(routing, "iter_route_steps", forbidden("iter_route_steps"))
    monkeypatch.setattr(routing, "_live_successor", forbidden("_live_successor"))
    monkeypatch.setattr(
        reference_routing, "route_with_policy_scalar", forbidden("route_with_policy_scalar")
    )
    routed = 0
    for network in _lossy_or_faulted_worlds():
        targets = np.random.default_rng(5).integers(0, 2**64, size=60, dtype=np.uint64)
        for policy in (RetryPolicy.DEFAULT, RetryPolicy(max_attempts=1).with_hop_budget(6)):
            collect_probes_resilient(network, targets, BUCKETS, policy=policy)
            entries = network.rng.integers(0, network.n_peers, size=targets.size)
            routed += route_probes_batch(network, entries, targets, policy).hops.size
        collect_probes_at(network, targets, BUCKETS)
    assert routed and not calls


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


def _policy_ensemble(profile, policy, route):
    """Per-lookup outcomes of ``route(network, entries, keys)`` over the ensemble.

    ``route`` returns one ``(hops, timeouts, retries, failure)`` tuple per
    lookup; the pooled hops, timeouts, retries and failure counts come back.
    """
    hops, timeouts, retries, reasons = [], [], [], Counter()
    for seed in ENSEMBLE:
        network = _lossy_world(profile, seed)
        rng = np.random.default_rng(seed + 5)
        entries = rng.integers(0, network.n_peers, size=PROBES)
        keys = rng.integers(0, network.space.size, size=PROBES, dtype=np.uint64)
        for hop, timeout, retry, failure in route(network, entries, keys, policy):
            hops.append(hop)
            timeouts.append(timeout)
            retries.append(retry)
            if failure is not None:
                reasons[failure] += 1
    return hops, np.asarray(timeouts), np.asarray(retries), reasons


def _batch_routes(network, entries, keys, policy):
    routes = route_probes_batch(network, entries, keys, policy)
    for index in range(keys.size):
        failure = routes.reason(index) if routes.failure[index] else None
        yield routes.hops[index], routes.timeouts[index], routes.retries[index], failure


def _one_by_one(route):
    def routes(network, entries, keys, policy):
        ids = network.sorted_ids_array()
        for entry, key in zip(entries.tolist(), keys.tolist()):
            outcome = route(network, network.node(int(ids[entry])), key, policy)
            yield outcome.hops, outcome.timeouts, outcome.retries, outcome.failure

    return routes


def _assert_policy_routes_agree(profile, policy, route):
    """``route`` and the oracle agree per lookup: hops, reasons, timeouts, retries."""
    hops, timeouts, retries, reasons = _policy_ensemble(profile, policy, route)
    ref_hops, ref_timeouts, ref_retries, ref_reasons = _policy_ensemble(
        profile, policy, _one_by_one(route_with_policy_scalar)
    )
    _assert_rates_agree(reasons, ref_reasons, len(ENSEMBLE) * PROBES)
    assert ks_2samp(hops, ref_hops).pvalue >= P_FLOOR
    _assert_means_agree(timeouts, ref_timeouts, "timeouts")
    _assert_means_agree(retries, ref_retries, "retries")
    assert retries.sum() > 0 and timeouts.sum() > 0


@pytest.mark.parametrize("profile", ["light", "heavy"])
def test_lossy_policy_routes_match_scalar_in_distribution(profile):
    """Per lookup: hops, failure reasons, timeouts and retries."""
    _assert_policy_routes_agree(profile, RetryPolicy.DEFAULT, _batch_routes)


@pytest.mark.parametrize(
    "profile, policy",
    [
        ("light", RetryPolicy.DEFAULT),
        ("heavy", RetryPolicy.DEFAULT),
        # No active plane: the route_to_key law with a bounded policy.
        ("loss", RetryPolicy(max_attempts=2).with_hop_budget(8)),
    ],
)
def test_lossy_policy_wrapper_matches_oracle_in_distribution(profile, policy):
    """route_with_policy, one lookup at a time, against the oracle."""
    _assert_policy_routes_agree(profile, policy, _one_by_one(route_with_policy))


def test_routing_error_leaves_routed_hops_and_no_exchange(monkeypatch):
    """A lookup over budget raises after routing, with every hop posted.

    On a very lossy ring with unbounded retries some lookups run past the
    hop budget.  The whole batch still routes to the end: the ledger holds
    every lookup's hops (a failed one's is the budget plus one), the error
    names the first failed lookup, and no probe is exchanged.
    """
    seen = []

    def recording(*args, **kwargs):
        seen.append(route_lockstep(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(routing, "route_lockstep", recording)
    network = _world(3, 12, plane=FaultPlane(seed=3, loss_rate=0.95))
    targets = np.random.default_rng(3).integers(0, 2**64, size=60, dtype=np.uint64)
    network.reset_stats()
    with pytest.raises(routing.RoutingError, match="exceeded 88 hops") as raised:
        collect_probes_at(network, targets, BUCKETS)
    (routes,) = seen
    failed = np.flatnonzero(routes.failure)
    assert 0 < failed.size < targets.size
    assert set(routes.hops[failed].tolist()) == {89}
    assert f"key {int(targets[failed[0]])} " in str(raised.value)
    assert network.stats.count_of(MessageType.LOOKUP_HOP) == int(routes.hops.sum())
    assert network.stats.count_of(MessageType.PROBE_REQUEST) == 0
    assert network.stats.count_of(MessageType.PROBE_REPLY) == 0

"""Probe-at-a-time collection: the scalar oracles of the batch collector.

:func:`repro.core.cdf_sampling.collect_probes_at` and
:func:`~repro.core.cdf_sampling.collect_probes_resilient` route and
exchange a whole probe batch in lockstep.  These are the loops they
replaced: one entry draw, one scalar route and one request/reply exchange
per probe, every loss outcome its own ``delivery_succeeds()`` draw.
"""

from __future__ import annotations

from repro.core.cdf_sampling import ProbeFailure, ProbeReplies
from repro.core.synopsis import summarize_peer
from repro.ring.faults import RetryPolicy
from repro.ring.messages import MessageType
from repro.ring.routing import route_to_key

from tests.ring.reference_routing import route_with_policy_scalar


def collect_at_scalar(network, targets, buckets, synopsis_kind="equi-width"):
    """Route with :func:`route_to_key`; retransmit the exchange until it lands."""
    summaries, hops = [], []
    for target in targets:
        entry = network.random_peer()
        route = route_to_key(network, entry, int(target))
        while True:
            network.record(MessageType.PROBE_REQUEST)
            if not network.delivery_succeeds():
                continue
            network.record(MessageType.PROBE_REPLY, payload=buckets + 2)
            if network.delivery_succeeds():
                break
        summaries.append(summarize_peer(network, route.owner, buckets, kind=synopsis_kind))
        hops.append(route.hops)
    return ProbeReplies.from_summaries(summaries, targets, hops)


def collect_resilient_scalar(network, targets, buckets, synopsis_kind="equi-width", policy=None):
    """Route with the policy router's oracle; bound the exchange by the policy."""
    if policy is None:
        policy = RetryPolicy.DEFAULT
    summaries, answered, hops, failures = [], [], [], []
    for target in targets:
        if network.n_peers == 0:
            failures.append(ProbeFailure(target=int(target), reason="empty_ring", hops=0))
            continue
        entry = network.random_peer()
        outcome = route_with_policy_scalar(network, entry, int(target), policy=policy)
        if not outcome.ok:
            failures.append(ProbeFailure(int(target), outcome.failure, outcome.hops))
            continue
        delivered = False
        attempts = 0
        while True:
            attempts += 1
            network.record(MessageType.PROBE_REQUEST)
            if network.delivery_succeeds():
                network.record(MessageType.PROBE_REPLY, payload=buckets + 2)
                if network.delivery_succeeds():
                    delivered = True
                    break
            if policy.max_attempts is not None and attempts >= policy.max_attempts:
                break
        if not delivered:
            failures.append(ProbeFailure(int(target), "reply_lost", outcome.hops))
            continue
        summaries.append(summarize_peer(network, outcome.owner, buckets, kind=synopsis_kind))
        answered.append(int(target))
        hops.append(outcome.hops)
    return ProbeReplies.from_summaries(summaries, answered, hops), failures

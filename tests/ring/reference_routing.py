"""The policy router, one lookup at a time: the oracle of the batch kernel.

:func:`repro.ring.routing.route_with_policy` routes its lookup as a
one-lookup batch of :func:`~repro.ring.lockstep.route_lockstep`.  This is
the loop that kernel follows hop for hop: with no active fault plane the
scalar lookup rule of :func:`~repro.ring.routing.iter_route_steps`, else
a walk over node pointers that consults the plane's stalls and partition
on every send.  Without loss the two agree bit for bit; under loss each
attempt here is its own :meth:`RingNetwork.delivery_succeeds` draw, so
they agree in distribution.
"""

from __future__ import annotations

from repro.ring.faults import RetryPolicy
from repro.ring.messages import MessageType
from repro.ring.routing import RouteOutcome, _last_step, _live_successor, iter_route_steps


def route_with_policy_scalar(network, start, key, policy=None, max_hops=None):
    """Route to the owner of ``key`` under ``policy``; never raises.

    Every timed-out probe and retransmission is charged as a hop in the
    ledger and counted in the returned :class:`RouteOutcome`.
    ``policy=None`` selects :data:`RetryPolicy.DEFAULT` when structural
    faults are active and :data:`RetryPolicy.UNBOUNDED` otherwise.
    """
    faults = network.faults
    if faults is not None and not faults.active:
        faults = None
    if policy is None:
        policy = RetryPolicy.UNBOUNDED if faults is None else RetryPolicy.DEFAULT
    if network.n_peers == 0:
        return RouteOutcome(None, 0, 0, 0, "empty_ring")
    if faults is None:
        # Fault-free ring: the scalar lookup rule is the reference; its
        # lost steps are the retries.
        steps = iter_route_steps(network, start, key, max_hops, policy=policy)
        step, retries = _last_step(network, steps)
        kind, owner_id, hops, timeouts, reason, _ = step
        if kind == "fail":
            return RouteOutcome(None, hops, timeouts, retries, reason)
        return RouteOutcome(network.node(owner_id), hops, timeouts, retries, None)

    space = network.space
    space.validate(key)
    if max_hops is None:
        max_hops = policy.max_hops
    if max_hops is None:
        max_hops = 2 * network.n_peers + space.bits
    if faults.is_stalled(start.ident):
        return RouteOutcome(None, 0, 0, 0, "entry_stalled")
    mask = space.mask
    loss_free = network.loss_rate <= 0.0
    attempt_cap = policy.max_attempts
    hops = 0
    timeouts = 0
    retries = 0
    partition_blocked = False
    excluded = set()

    def transmit(src_id, dst_id):
        """One message send with retransmission; None means delivered.

        A cross-partition send is one deterministic timed-out probe; a
        lossy link is retried up to the policy's attempt budget.  Every
        attempt costs a counted hop.
        """
        nonlocal hops, timeouts, retries, partition_blocked
        if not faults.reachable(src_id, dst_id):
            hops += 1
            timeouts += 1
            partition_blocked = True
            return "unreachable"
        attempts = 0
        while True:
            hops += 1
            attempts += 1
            if loss_free or network.delivery_succeeds():
                return None
            if attempt_cap is not None and attempts >= attempt_cap:
                timeouts += 1
                return "retry_exhausted"
            if hops > max_hops:
                timeouts += 1
                return "hop_budget"
            retries += 1

    current = start
    try:
        if key == current.ident:
            return RouteOutcome(current, 0, 0, 0, None)
        if current.predecessor_id is not None and network.try_node(current.predecessor_id):
            if space.in_half_open(key, current.predecessor_id, current.ident):
                return RouteOutcome(current, 0, 0, 0, None)
        while True:
            ident = current.ident
            successor_id = _live_successor(network, current, excluded)
            reach = (key - ident) & mask
            if successor_id == ident or 0 < reach <= (successor_id - ident) & mask:
                owner = network.node(successor_id)
                if owner.ident != ident:
                    if faults.is_stalled(owner.ident):
                        # The owner receives but never replies.
                        hops += 1
                        timeouts += 1
                        return RouteOutcome(None, hops, timeouts, retries, "owner_unresponsive")
                    verdict = transmit(ident, owner.ident)
                    if verdict == "unreachable":
                        return RouteOutcome(None, hops, timeouts, retries, "partitioned")
                    if verdict is not None:
                        return RouteOutcome(None, hops, timeouts, retries, verdict)
                return RouteOutcome(owner, hops, timeouts, retries, None)
            next_node = None
            while next_node is None:
                if hops > max_hops:
                    return RouteOutcome(None, hops, timeouts, retries, "hop_budget")
                candidate = current.closest_preceding_finger(key, excluded)
                if candidate == ident:
                    # No usable finger: fall to the successor-list failover.
                    candidate = _live_successor(network, current, excluded)
                if candidate == ident or candidate in excluded:
                    reason = "partitioned" if partition_blocked or faults.partitioned else "stuck"
                    return RouteOutcome(None, hops, timeouts, retries, reason)
                resolved = network.try_node(candidate)
                if resolved is None or not resolved.alive or faults.is_stalled(candidate):
                    # Departed or unresponsive: one timed-out probe, then
                    # fail over with the peer excluded.
                    hops += 1
                    timeouts += 1
                    excluded.add(candidate)
                    continue
                verdict = transmit(ident, candidate)
                if verdict == "hop_budget":
                    return RouteOutcome(None, hops, timeouts, retries, "hop_budget")
                if verdict is not None:
                    excluded.add(candidate)
                    continue
                next_node = resolved
            if next_node.ident == ident:
                return RouteOutcome(None, hops, timeouts, retries, "stuck")
            current = next_node
    finally:
        if hops:
            network.record(MessageType.LOOKUP_HOP, count=hops)

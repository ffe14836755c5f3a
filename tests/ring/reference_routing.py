"""The policy router, one lookup at a time: the oracle of the batch kernel.

:func:`repro.ring.routing.route_with_policy` routes its lookup as a
one-lookup batch of :func:`~repro.ring.lockstep.route_lockstep`.  This is
the loop that kernel follows hop for hop: with no active fault plane the
scalar lookup rule of :func:`~repro.ring.routing.iter_route_steps`, else
a walk over node pointers that consults the plane's stalls and partition
on every send.  Without loss the two agree bit for bit; under loss each
attempt here is its own :meth:`RingNetwork.delivery_succeeds` draw, so
they agree in distribution.

:func:`reference_fingers` is the finger-table oracle of
:func:`~repro.ring.lockstep.exact_fingers`: one binary search per finger.
:func:`reference_compress_scan` is the compressor's oracle: it collects
every block's kept entries and scatters them into a fresh padded matrix.
:func:`reference_segment_bounds` computes the compact ring's synopsis
segment bounds for every peer at once, as eager columns.
"""

from __future__ import annotations

import numpy as np

from repro.ring.faults import RetryPolicy
from repro.ring.messages import MessageType
from repro.ring.routing import RouteOutcome, _last_step, _live_successor, iter_route_steps


def reference_fingers(ids, rows, bits):
    """Stabilized finger tables of the peers ``ids[rows]`` as rows of ``ids``.

    The result has shape ``(rows, bits)``.  Finger ``k`` of peer ``p`` is
    the owner of ``(p + 2^k) mod 2^bits``: one ``searchsorted`` into the
    sorted ids.
    """
    powers = np.uint64(1) << np.arange(bits, dtype=np.uint64)
    targets = (ids[rows, None] + powers) & np.uint64((1 << bits) - 1)
    indices = np.searchsorted(ids, targets)
    indices[indices == ids.size] = 0
    return indices


def reference_compress_scan(own, blocks):
    """The compressed finger-scan matrix, as :func:`~repro.ring.lockstep.compress_scan` defines it.

    Every block's kept entries (each run of equal valid fingers collapsed
    to its highest column, invalid fingers dropped) are collected first;
    then each row's entries are scattered, highest column first, into the
    right end of a fresh ``(n, W)`` matrix padded with ``own``.
    """
    kept_blocks = []
    width = 1
    for fingers, valid in blocks:
        keep = np.ones(fingers.shape, dtype=bool) if valid is None else valid.copy()
        repeats = fingers[:, :-1] == fingers[:, 1:]
        if valid is not None:
            repeats &= valid[:, 1:]
        keep[:, :-1] &= ~repeats
        widths = keep.sum(axis=1)
        width = max(width, int(widths.max(initial=0)))
        kept_blocks.append((fingers[keep].astype(own.dtype, copy=False), widths))
    scan = np.repeat(own[:, None], width, axis=1)
    row = 0
    for kept, widths in kept_blocks:
        rows = np.repeat(np.arange(widths.size, dtype=np.int64), widths)
        starts = np.cumsum(widths) - widths
        scan[row + rows, width - 1 - (np.arange(kept.size, dtype=np.int64) - starts[rows])] = kept
        row += widths.size
    return scan


def reference_segment_bounds(ring):
    """``(seg_low, seg_high, wrap_bounds)`` of every peer of a :class:`CompactRing`.

    Peer ``i``'s primary segment is ``[to_value(ids[i-1]+1),
    to_value(ids[i]+1))``, computed for all peers in one pass: peer 0
    starts at the domain low, a top identifier equal to the mask ends at
    the domain high (and leaves no wrap segment), and float-degenerate
    ranges widen by one ulp.
    """
    low = ring.data_hash.low
    high = ring.data_hash.high
    ids = ring.ids
    n = ids.size
    if n == 1:
        return np.array([low]), np.array([high]), None
    after = ids + np.uint64(1)
    u = after.astype(np.float64) / float(ring.space.size)
    edges = low + u * (high - low)
    seg_high = edges.copy()
    top_wraps = bool(ids[-1] == np.uint64(ring.space.mask))
    if top_wraps:
        seg_high[-1] = high
    seg_low = np.empty(n, dtype=np.float64)
    seg_low[0] = low
    seg_low[1:] = edges[:-1]
    degenerate = ~(seg_low < seg_high)
    if degenerate.any():
        seg_high[degenerate] = np.nextafter(seg_low[degenerate], np.inf)
    if top_wraps:
        return seg_low, seg_high, None
    w_low = float(edges[-1])
    w_high = high
    if not w_low < w_high:
        w_high = float(np.nextafter(w_low, np.inf))
    return seg_low, seg_high, (w_low, w_high)


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

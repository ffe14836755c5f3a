"""Cost-counted routing over the overlay.

These functions implement Chord's iterative ``find_successor`` and plain
successor walks using only node-local pointers, recording every hop in the
network's message ledger.  They tolerate the stale pointers churn leaves
behind: a hop to a departed peer costs a (counted) timeout and the router
retries from the same node with that peer excluded.

:func:`iter_route_steps` is the one scalar implementation of the lookup
rule: :func:`route_to_key`, joins, finger repair and the event engine
consume its steps.  Lookup batches — probe collection, and the
policy-aware :func:`route_with_policy` as a batch of one — run in the
lockstep kernel of :mod:`repro.ring.lockstep`, which finishes every
lookup it is given.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

import numpy as np
from numpy.typing import NDArray

from repro.ring.faults import RetryPolicy
from repro.ring.lockstep import Lockstep, SendModel, route_lockstep
from repro.ring.messages import MessageType
from repro.ring.network import NetworkError, RingNetwork
from repro.ring.node import PeerNode

__all__ = [
    "RouteResult",
    "RouteOutcome",
    "RouteStep",
    "route_to_key",
    "route_probes_batch",
    "route_to_value",
    "route_with_policy",
    "iter_route_steps",
    "successor_walk",
    "RoutingError",
]


class RoutingError(NetworkError):
    """Raised when a lookup cannot make progress (partitioned overlay)."""


_EMPTY_EXCLUSIONS: frozenset[int] = frozenset()


class RouteResult(NamedTuple):
    """Outcome of one lookup: the owning peer and what it cost.

    A named tuple: lookups run hundreds of thousands of times per
    experiment and tuple construction skips the frozen-dataclass
    ``__setattr__`` round-trip.
    """

    owner: PeerNode
    hops: int
    timeouts: int


class RouteOutcome(NamedTuple):
    """Outcome of a policy-aware lookup: possibly partial, never raised.

    The graceful-degradation counterpart of :class:`RouteResult`: instead
    of raising on a disconnected or faulty overlay, the router reports what
    happened.  ``owner is None`` iff ``failure`` is set.
    """

    owner: Optional[PeerNode]
    hops: int
    timeouts: int
    #: Retransmissions performed (lost sends that were retried).
    retries: int
    #: Why the lookup gave up, or ``None`` on success.  One of
    #: ``"empty_ring"``, ``"entry_stalled"``, ``"hop_budget"``,
    #: ``"retry_exhausted"``, ``"owner_unresponsive"``, ``"partitioned"``,
    #: ``"stuck"``.
    failure: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Did the lookup reach the owner?"""
        return self.failure is None


#: One routing decision of :func:`iter_route_steps`: ``(kind, ident, hops,
#: timeouts, reason, message)``, a plain tuple because a lookup yields one
#: per hop.  ``hops`` and ``timeouts`` are the route's running totals
#: including this step, so the last step carries the lookup's cost.
#: ``kind`` is one of
#:
#: * ``"forward"`` — one counted hop to the live peer ``ident``;
#: * ``"lost"`` — one counted send to ``ident`` lost in transit (the
#:   sender retransmits);
#: * ``"timeout"`` — one counted hop towards ``ident`` that never answers:
#:   the peer has departed, or a bounded policy ran out of attempts on the
#:   link.  The sender rescans at the same node with ``ident`` excluded;
#: * ``"deliver"`` — the final counted delivery hop to the owner ``ident``;
#: * ``"done"`` — termination without a message: ``ident`` is the owner
#:   (the entry shortcuts, or the current node owns the key itself);
#: * ``"fail"`` — one counted hop that ends the lookup: ``reason`` is
#:   ``"hop_budget"``, ``"retry_exhausted"`` or ``"stuck"`` and ``message``
#:   the :class:`RoutingError` text.  Both are empty on every other kind.
RouteStep = tuple[str, int, int, int, str, str]


def iter_route_steps(
    network: RingNetwork,
    start: PeerNode,
    key: int,
    max_hops: int | None = None,
    *,
    policy: RetryPolicy | None = None,
) -> Iterator[RouteStep]:
    """Chord's iterative lookup from ``start`` to ``key`` as a lazy step sequence.

    This is the lookup rule itself: :func:`route_to_key` runs it to its
    last step, and the event engine (:mod:`repro.ring.events`) lays each
    hop out on the simulated clock.  The generator writes nothing to the
    ledger; every step but ``"done"`` is one counted ``LOOKUP_HOP``.
    Parameters are those of :func:`route_to_key`.  Under loss each send draws
    :meth:`RingNetwork.delivery_succeeds` before its step is produced, so
    the network RNG advances in step order.
    """
    network.space.validate(key)
    attempt_cap = policy.max_attempts if policy is not None else None
    if max_hops is None and policy is not None:
        max_hops = policy.max_hops
    if max_hops is None:
        # Generous default: stabilized Chord needs O(log N); churned rings
        # may degenerate towards successor walking, so allow up to N + slack.
        max_hops = 2 * network.n_peers + network.space.bits
    current = start
    hops = 0
    timeouts = 0
    if key == current.ident:
        yield ("done", current.ident, 0, 0, "", "")
        return
    # Local shortcut: a node whose *live* predecessor precedes the key
    # can answer immediately.  (If the predecessor has departed,
    # ownership is uncertain until stabilization, so fall through to
    # standard routing.)
    if current.predecessor_id is not None and network.try_node(current.predecessor_id):
        if network.space.in_half_open(key, current.predecessor_id, current.ident):
            yield ("done", current.ident, 0, 0, "", "")
            return
    # Ring membership tests are inlined modular arithmetic on the hot loop
    # (key ∈ (current, successor] ⇔ 0 < (key−current) < ∞ mod-distance at
    # or under the successor's; mod 2**m is a mask AND), and the loss model
    # is hoisted: at loss_rate 0 every delivery succeeds, so the
    # retransmission loops collapse to single counted hops.
    mask = network.space.mask
    size = network.space.size
    loss_free = network.loss_rate <= 0.0
    nodes_get = network._nodes.get
    while True:
        # Standard Chord termination: once key ∈ (current, successor],
        # the successor is the owner.  Predecessor pointers are never
        # consulted — they may be stale after a crash, but successor
        # pointers define ownership and are what stabilization keeps
        # correct.
        excluded: set[int] | None = None
        ident = current.ident
        # Inlined `_live_successor` fast path: the primary successor
        # pointer is almost always live; only fall back to the full
        # successor-list consult when it is not.
        successor_id = current.successor_id
        if successor_id == ident:
            successor_id = _live_successor(network, current, _EMPTY_EXCLUSIONS)
        else:
            succ = nodes_get(successor_id)
            if succ is None or not succ.alive:
                successor_id = _live_successor(network, current, _EMPTY_EXCLUSIONS)
        if successor_id == ident:
            yield ("done", ident, hops, timeouts, "", "")
            return
        if 0 < (key - ident) & mask <= (successor_id - ident) & mask:
            # Final delivery hop, retransmitted until it arrives (or a
            # bounded policy runs out of attempts).
            attempts = 1
            hops += 1
            while not (loss_free or network.delivery_succeeds()):
                if attempt_cap is not None and attempts >= attempt_cap:
                    yield (
                        "fail",
                        successor_id,
                        hops,
                        timeouts,
                        "retry_exhausted",
                        f"delivery of key {key} to owner {successor_id} "
                        f"failed after {attempts} attempts",
                    )
                    return
                yield ("lost", successor_id, hops, timeouts, "", "")
                attempts += 1
                hops += 1
            yield ("deliver", successor_id, hops, timeouts, "", "")
            return
        send_attempts = 0
        last_sent = -1
        while True:
            if excluded is None:
                # Inlined timeout-free fast path of
                # PeerNode.closest_preceding_finger (the reference
                # implementation, kept there for the excluded case):
                # scan the memoized finger order for the farthest
                # finger inside (ident, key), then successor, then self.
                scan = current._finger_scan_order()
                reach = (key - ident) & mask or size
                candidate = ident
                for finger_id in scan:
                    if 0 < (finger_id - ident) & mask < reach:
                        candidate = finger_id
                        break
                if candidate == ident:
                    successor_id = current.successor_id
                    if successor_id != ident and 0 < (successor_id - ident) & mask < reach:
                        candidate = successor_id
            else:
                # A plain set works for the membership tests; building
                # a frozenset per hop was measurable on churned rings.
                candidate = current.closest_preceding_finger(key, excluded)
            if candidate == ident:
                # No live finger precedes the key: fall to successor.
                candidate = _live_successor(
                    network, current, _EMPTY_EXCLUSIONS if excluded is None else excluded
                )
            resolved = nodes_get(candidate)
            hops += 1
            if hops > max_hops:
                yield (
                    "fail",
                    candidate,
                    hops,
                    timeouts,
                    "hop_budget",
                    f"lookup for key {key} exceeded {max_hops} hops from {start.ident}",
                )
                return
            if not loss_free and not network.delivery_succeeds():
                if attempt_cap is not None:
                    # Bounded policy: after max_attempts lost sends to one
                    # candidate, declare the link down and fail over to the
                    # next route (successor-list / alternate finger).
                    send_attempts = send_attempts + 1 if candidate == last_sent else 1
                    last_sent = candidate
                    if send_attempts >= attempt_cap:
                        timeouts += 1
                        yield ("timeout", candidate, hops, timeouts, "", "")
                        if excluded is None:
                            excluded = set()
                        excluded.add(candidate)
                        send_attempts = 0
                        last_sent = -1
                        continue
                yield ("lost", candidate, hops, timeouts, "", "")
                continue  # lost in transit: retransmit to same candidate
            if resolved is not None and resolved.alive:
                if candidate == ident:
                    message = f"lookup for key {key} stuck at peer {ident}"
                    yield ("fail", ident, hops, timeouts, "stuck", message)
                    return
                yield ("forward", candidate, hops, timeouts, "", "")
                current = resolved
                break
            timeouts += 1
            yield ("timeout", candidate, hops, timeouts, "", "")
            if excluded is None:
                excluded = set()
            excluded.add(candidate)


def _last_step(network: RingNetwork, steps: Iterator[RouteStep]) -> tuple[RouteStep, int]:
    """Run a lookup to its last step, which carries its cost and outcome.

    Also returns how many of its steps were ``lost`` sends, i.e. the
    retransmissions the lookup performed.  The hops are posted to the
    ledger in one bulk ``LOOKUP_HOP`` record per lookup (including the
    error paths): final totals are identical to per-hop recording at a
    fraction of the ledger calls.
    """
    step: Optional[RouteStep] = None
    lost = 0
    try:
        for step in steps:
            if step[0] == "lost":
                lost += 1
    finally:
        if step is not None and step[2]:
            network.record(MessageType.LOOKUP_HOP, count=step[2])
    assert step is not None  # every lookup ends with a done, deliver or fail step
    return step, lost


def route_to_key(
    network: RingNetwork,
    start: PeerNode,
    key: int,
    max_hops: int | None = None,
    *,
    policy: RetryPolicy | None = None,
) -> RouteResult:
    """Route from ``start`` to the live peer owning ring position ``key``.

    Every forwarding step costs one ``LOOKUP_HOP`` message; a step towards a
    departed peer costs one hop (the timed-out probe) and is retried with
    that peer excluded.  Raises :class:`RoutingError` if the hop budget is
    exhausted, which only happens when churn has disconnected the overlay.

    ``policy`` bounds the lossy-delivery retransmission loops: with a
    bounded :class:`RetryPolicy` a link whose every attempt is lost raises
    :class:`RoutingError` instead of retrying forever, and the policy's
    ``max_hops`` supplies the hop budget when the argument is omitted.
    ``None`` (the default) is the historical unbounded-retry model,
    bit-identical to before the policy existed.  Callers that want partial
    results instead of exceptions use :func:`route_with_policy`.

    The rule itself is :func:`iter_route_steps`; this runs it to its last step.
    """
    steps = iter_route_steps(network, start, key, max_hops, policy=policy)
    kind, owner_id, hops, timeouts, _, message = _last_step(network, steps)[0]
    if kind == "fail":
        raise RoutingError(message)
    return RouteResult(network.node(owner_id), hops, timeouts)


def route_probes_batch(
    network: RingNetwork,
    entries: NDArray[np.int64],
    keys: NDArray[np.uint64],
    policy: RetryPolicy | None = None,
) -> Lockstep:
    """Route many lookups in vectorized lockstep, hop-synchronously.

    ``entries`` and the returned owners are rows of the live ring order
    (:meth:`RingNetwork.sorted_ids_array`).  The batch runs
    :func:`~repro.ring.lockstep.route_lockstep` over the network's
    :meth:`~RingNetwork.routing_view`, whose rows also rank departed
    fingers: entries are mapped into those rows and owners back out.
    Every lookup's hops post to the
    ledger as one ``LOOKUP_HOP`` record.  With ``policy=None`` every
    lookup follows :func:`route_to_key`, and a lookup over its hop budget
    then raises :class:`RoutingError` (after the whole batch's hops are
    posted) with the message :func:`route_to_key` would raise.  With a
    policy the batch is the policy router :func:`route_with_policy` runs:
    it honours the policy's budgets, reads an active fault plane's per-row
    stalls and partition arcs, and reports failures in the ``failure``
    column instead of raising.

    Without loss (structural faults only, or none) no draw is made and
    owners, hops, timeouts, failures and the ``LOOKUP_HOP`` total are
    exactly the scalar reference's.  Under loss, each round draws every
    send's attempt count in one vector from ``network.rng``: equal in
    distribution to the reference, not in stream order.
    """
    ids, scan, pointers = network.routing_view()
    entries = pointers.live_rows[np.asarray(entries, dtype=np.int64)]
    keys = np.asarray(keys, dtype=np.uint64)
    max_hops = 2 * int(pointers.live_rows.size) + network.space.bits
    if policy is not None and policy.max_hops is not None:
        max_hops = policy.max_hops
    sends = None
    if network.loss_rate > 0.0:
        sends = SendModel(
            network.rng, network.loss_rate, None if policy is None else policy.max_attempts
        )
    plane = network.faults
    faults = None
    if policy is not None and plane is not None and plane.active:
        faults = plane.row_view(ids)
    routes = route_lockstep(
        ids,
        scan,
        entries,
        keys,
        max_hops,
        pointers=pointers,
        sends=sends,
        faults=faults,
    )
    total_hops = int(routes.hops.sum())
    if total_hops:
        network.record(MessageType.LOOKUP_HOP, count=total_hops)
    if policy is None and routes.failure.any():
        # Unbounded sends fail only on the hop budget.
        index = int(np.flatnonzero(routes.failure)[0])
        raise RoutingError(
            f"lookup for key {int(keys[index])} exceeded {max_hops} hops "
            f"from {int(ids[entries[index]])}"
        )
    answered = routes.owner_idx >= 0
    owner_idx = np.full(entries.size, -1, dtype=np.int64)
    owner_idx[answered] = np.searchsorted(pointers.live_rows, routes.owner_idx[answered])
    return routes._replace(owner_idx=owner_idx)


def route_with_policy(
    network: RingNetwork,
    start: PeerNode,
    key: int,
    policy: RetryPolicy | None = None,
    max_hops: int | None = None,
) -> RouteOutcome:
    """Route to the owner of ``key`` under an explicit retry policy,
    returning a partial result with a failure reason instead of raising.

    The graceful-degradation entry point: it consults the network's
    :class:`~repro.ring.faults.FaultPlane` (peer stalls, ring partitions)
    in addition to the overlay state, honours the policy's attempt and hop
    budgets (``max_hops`` overrides the latter), and accounts every
    timed-out probe and retransmission — in the returned
    :class:`RouteOutcome` and, as hops, in the message ledger.  It never
    raises on network conditions.  ``policy=None`` selects
    :data:`RetryPolicy.DEFAULT` when structural faults are active and
    :data:`RetryPolicy.UNBOUNDED` otherwise.

    The lookup is a one-lookup :func:`route_probes_batch` from the live
    peer ``start``.
    """
    plane = network.faults
    if policy is None:
        active = plane is not None and plane.active
        policy = RetryPolicy.DEFAULT if active else RetryPolicy.UNBOUNDED
    if network.n_peers == 0:
        return RouteOutcome(None, 0, 0, 0, "empty_ring")
    network.space.validate(key)
    if max_hops is not None:
        policy = policy.with_hop_budget(max_hops)
    ids = network.sorted_ids_array()
    entry = np.searchsorted(ids, np.array([start.ident], dtype=np.uint64)).astype(np.int64)
    routes = route_probes_batch(network, entry, np.array([key], dtype=np.uint64), policy)
    hops, timeouts, retries = int(routes.hops[0]), int(routes.timeouts[0]), int(routes.retries[0])
    if routes.failure[0]:
        return RouteOutcome(None, hops, timeouts, retries, routes.reason(0))
    owner = network.node(int(ids[routes.owner_idx[0]]))
    return RouteOutcome(owner, hops, timeouts, retries, None)


def _live_successor(
    network: RingNetwork, node: PeerNode, excluded: set[int] | frozenset[int]
) -> int:
    """The node's first live successor: primary pointer, then the list.

    Chord's successor list is exactly this fallback: when the primary
    successor has failed (and is in ``excluded`` after its timeout), the
    node tries the next list entry.  Only if the *entire* list is dead —
    which needs ``len(list)`` simultaneous adjacent failures between two
    maintenance rounds — do we repair through the oracle, modelling the
    out-of-band rejoin a real deployment would perform.
    """
    # Fast path: the primary successor pointer is almost always live.
    primary = node.successor_id
    if primary != node.ident and primary not in excluded:
        resolved = network.try_node(primary)
        if resolved is not None and resolved.alive:
            return primary
    for candidate in node.successor_list:
        if candidate in excluded or candidate == node.ident:
            continue
        resolved = network.try_node(candidate)
        if resolved is not None and resolved.alive:
            return candidate
    return network._oracle_successor(network.space.add(node.ident, 1))


def route_to_value(
    network: RingNetwork,
    start: PeerNode,
    value: float,
    max_hops: int | None = None,
) -> RouteResult:
    """Route to the peer owning a *data value* (order-preserving position)."""
    return route_to_key(network, start, network.data_hash(value), max_hops=max_hops)


def successor_walk(
    network: RingNetwork,
    start: PeerNode,
    steps: int,
) -> list[PeerNode]:
    """Walk ``steps`` successor pointers from ``start``, counting each hop.

    Returns the peers visited after each step (length ``steps``).  Departed
    successors are skipped through the same repair path routing uses.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    visited: list[PeerNode] = []
    current = start
    taken = 0
    try:
        for _ in range(steps):
            taken += 1
            succ = network.try_node(current.successor_id)
            if succ is None or not succ.alive:
                succ = network.node(_live_successor(network, current, set()))
            current = succ
            visited.append(current)
    finally:
        if taken:
            network.record(MessageType.SUCCESSOR_WALK, count=taken)
    return visited

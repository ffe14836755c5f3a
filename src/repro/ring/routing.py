"""Cost-counted routing over the overlay.

These functions implement Chord's iterative ``find_successor`` and plain
successor walks using only node-local pointers, recording every hop in the
network's message ledger.  They tolerate the stale pointers churn leaves
behind: a hop to a departed peer costs a (counted) timeout and the router
retries from the same node with that peer excluded.

:func:`iter_route_steps` is the one scalar implementation of the lookup
rule.  :func:`route_to_key`, the fault-free branch of
:func:`route_with_policy` and the event engine consume its steps; the
fault-plane loop of :func:`route_with_policy` and the lockstep batch
kernel follow their own rules.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np
from numpy.typing import NDArray

from repro.ring.faults import FaultPlane, RetryPolicy
from repro.ring.lockstep import FAILURES, SendModel, route_lockstep
from repro.ring.messages import MessageType
from repro.ring.network import NetworkError, RingNetwork
from repro.ring.node import PeerNode

__all__ = [
    "BatchRoutes",
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

#: Below this many still-advancing probes the batch router hands the
#: stragglers to the scalar loop: a vectorized step costs the same
#: whether it moves sixty probes or three, while a scalar hop is a few
#: microseconds, so the crossover sits well above a handful of probes.
_BATCH_TAIL_CUTOFF = 16


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
    _initial_hops: int = 0,
    _excluded: Iterable[int] = (),
) -> Iterator[RouteStep]:
    """Chord's iterative lookup from ``start`` to ``key`` as a lazy step sequence.

    This is the lookup rule itself: :func:`route_to_key` and the fault-free
    branch of :func:`route_with_policy` run it to its last step, and the
    event engine (:mod:`repro.ring.events`) lays each hop out on the
    simulated clock.  The generator writes nothing to the ledger; every step
    but ``"done"`` is one counted ``LOOKUP_HOP``.  Parameters are those of
    :func:`route_to_key`.  Under loss each send draws
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
    hops = _initial_hops
    timeouts = 0
    seeded: set[int] | None = set(_excluded) or None
    if _initial_hops == 0:
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
        excluded, seeded = seeded, None
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
                scan = current._finger_scan
                if scan is None:
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
    _initial_hops: int = 0,
    _excluded: Iterable[int] = (),
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

    ``_initial_hops`` resumes a lookup mid-route for the batch router: the
    hops its vectorized prefix already took seed the counter (and the final
    bulk ledger record), and the entry shortcuts are skipped — a mid-route
    node answers through the standard termination test only, exactly as the
    sequential loop would have.  ``_excluded`` seeds the peers that already
    timed out at the node it resumes from.

    The rule itself is :func:`iter_route_steps`; this runs it to its last step.
    """
    steps = iter_route_steps(
        network, start, key, max_hops, policy=policy,
        _initial_hops=_initial_hops, _excluded=_excluded,
    )
    kind, owner_id, hops, timeouts, _, message = _last_step(network, steps)[0]
    if kind == "fail":
        raise RoutingError(message)
    return RouteResult(network.node(owner_id), hops, timeouts)


class BatchRoutes(NamedTuple):
    """Per-lookup columns of :func:`route_probes_batch`.

    ``owner_idx`` is the owner's row of the live ring order, -1 where the
    lookup failed; ``failure`` is then its code in
    :data:`~repro.ring.lockstep.FAILURES` (0: answered).  ``hops`` is
    every lookup's cost, failures included.
    """

    owner_idx: NDArray[np.int64]
    hops: NDArray[np.int64]
    failure: NDArray[np.int8]

    def reason(self, index: int) -> str:
        """Why lookup ``index`` failed."""
        return FAILURES[int(self.failure[index]) - 1]


class _Resume(NamedTuple):
    """Where a lookup the batch router hands to :func:`route_with_policy` stands."""

    hops: int
    excluded: list[int]
    #: Past this node's termination test, inside its retry loop.
    settled: bool
    #: A send already hit the partition (reported as ``"partitioned"``).
    blocked: bool


def route_probes_batch(
    network: RingNetwork,
    entries: NDArray[np.int64],
    keys: NDArray[np.uint64],
    policy: RetryPolicy | None = None,
) -> BatchRoutes:
    """Route many lookups in vectorized lockstep, hop-synchronously.

    ``entries`` and the returned owners are rows of the live ring order
    (:meth:`RingNetwork.sorted_ids_array`).  With ``policy=None`` every
    lookup follows :func:`route_to_key`; with a policy it follows
    :func:`route_with_policy`, which consults an active fault plane and
    reports failures instead of raising.  The batch runs
    :func:`~repro.ring.lockstep.route_lockstep` over the network's
    :meth:`~RingNetwork.routing_view` (and the plane's cached per-row
    stalls and partition arcs); the lookups it hands back (a successor
    that is not plain or timed out, an exhausted unfaulted budget, the
    last few stragglers) resume in the scalar reference from the node
    where they stopped, seeded with their hops and exclusions so far.  A plane with per-link loss overrides sends every lookup that
    leaves its entry to the scalar reference, whose sends draw the
    override outcomes from the plane's own generator.  With
    ``policy=None`` a resumed lookup's :class:`RoutingError` propagates
    with the hops of every lookup routed so far in the ledger.

    Without loss (structural faults only, or none) no draw is made and
    owners, hops, failures and the ``LOOKUP_HOP`` total are exactly the
    scalar reference's.  Under loss, each round draws every send's attempt
    count in one vector from ``network.rng``: equal in distribution to the
    reference, not in stream order.
    """
    ids, scan, pointers = network.routing_view()
    keys = np.asarray(keys, dtype=np.uint64)
    plane = network.faults if policy is not None else None
    max_hops = 2 * int(ids.size) + network.space.bits
    if policy is not None and policy.max_hops is not None:
        max_hops = policy.max_hops
    sends = None
    if network.loss_rate > 0.0:
        sends = SendModel(
            network.rng, network.loss_rate, None if policy is None else policy.max_attempts
        )
    faults = None
    tail_cutoff = _BATCH_TAIL_CUTOFF
    if plane is not None and plane.active:
        faults = plane.row_view(ids)
        if plane.overrides_links:
            # A link with its own loss rate draws from the plane's generator
            # as the scalar router sends over it: every lookup goes there.
            tail_cutoff = keys.size
    routes = route_lockstep(
        ids,
        scan,
        network.space.mask,
        np.asarray(entries, dtype=np.int64),
        keys,
        max_hops,
        pointers=pointers,
        tail_cutoff=tail_cutoff,
        sends=sends,
        faults=faults,
    )
    owner_idx, hops, failure = routes.owner_idx, routes.hops, routes.failure
    vector_hops = int(hops[~routes.fallback].sum())
    if vector_hops:
        network.record(MessageType.LOOKUP_HOP, count=vector_hops)
    for index in np.flatnonzero(routes.fallback).tolist():
        # The lockstep prefix equals the sequential loop's own first steps,
        # so seeding its state reproduces the rest of the scalar route.
        start = network.node(int(ids[routes.cur[index]]))
        excluded = routes.excluded[index, : routes.n_excluded[index]].tolist()
        if policy is None:
            route = route_to_key(
                network,
                start,
                int(keys[index]),
                _initial_hops=int(hops[index]),
                _excluded=excluded,
            )
            owner: Optional[PeerNode] = route.owner
            hops[index] = route.hops
        else:
            resume = _Resume(
                int(hops[index]),
                excluded,
                bool(routes.settled[index]),
                bool(routes.blocked[index]),
            )
            outcome = route_with_policy(network, start, int(keys[index]), policy, _resume=resume)
            owner = outcome.owner
            hops[index] = outcome.hops
            if outcome.failure is not None:
                failure[index] = FAILURES.index(outcome.failure) + 1
        if owner is not None:
            owner_idx[index] = np.searchsorted(ids, np.uint64(owner.ident))
    return BatchRoutes(owner_idx, hops, failure)


def route_with_policy(
    network: RingNetwork,
    start: PeerNode,
    key: int,
    policy: RetryPolicy | None = None,
    max_hops: int | None = None,
    *,
    _resume: Optional[_Resume] = None,
) -> RouteOutcome:
    """Route to the owner of ``key`` under an explicit retry policy,
    returning a partial result with a failure reason instead of raising.

    The graceful-degradation entry point: it consults the network's
    :class:`~repro.ring.faults.FaultPlane` (peer stalls, ring partitions,
    per-link loss) in addition to the overlay state, honours the policy's
    attempt and hop budgets, and accounts every timed-out probe and
    retransmission — in the returned :class:`RouteOutcome` and, as hops, in
    the message ledger.  It never raises on network conditions.

    ``policy=None`` selects :data:`RetryPolicy.DEFAULT` when structural
    faults are active and :data:`RetryPolicy.UNBOUNDED` otherwise.  With no
    active fault plane the lookup follows :func:`iter_route_steps` — the
    cost and RNG stream of :func:`route_to_key` — and a failing step's
    reason becomes the outcome's; the outcome's timeouts are the last
    step's and every ``lost`` step counts as one retry, as in the
    fault-plane loop.

    ``_resume`` continues a lookup :func:`route_probes_batch` handed over at
    ``start``: its hops, exclusions and partition flag so far seed the
    route (its timeouts and retries are not carried over), and the
    entry checks (and, when ``settled``, the node's termination test) are
    not repeated.
    """
    faults: FaultPlane | None = network.faults
    if faults is not None and not faults.active:
        faults = None
    if policy is None:
        policy = RetryPolicy.UNBOUNDED if faults is None else RetryPolicy.DEFAULT
    if network.n_peers == 0:
        return RouteOutcome(None, 0, 0, 0, "empty_ring")
    if faults is None:
        # Fault-free ring: the scalar lookup rule is the reference.
        steps = iter_route_steps(
            network, start, key, max_hops, policy=policy,
            _initial_hops=0 if _resume is None else _resume.hops,
            _excluded=() if _resume is None else _resume.excluded,
        )
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
    if _resume is None and faults.is_stalled(start.ident):
        return RouteOutcome(None, 0, 0, 0, "entry_stalled")
    mask = space.mask
    loss_free = network.loss_rate <= 0.0
    attempt_cap = policy.max_attempts
    nodes_get = network._nodes.get
    hops = 0
    timeouts = 0
    retries = 0
    partition_blocked = False
    excluded: set[int] = set()
    settled = False
    if _resume is not None:
        hops = _resume.hops
        excluded.update(_resume.excluded)
        settled, partition_blocked = _resume.settled, _resume.blocked

    def transmit(src_id: int, dst_id: int) -> Optional[str]:
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
            if (loss_free or network.delivery_succeeds()) and faults.link_delivers(
                src_id, dst_id
            ):
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
        if _resume is None:
            if key == current.ident:
                return RouteOutcome(current, 0, 0, 0, None)
            if current.predecessor_id is not None and network.try_node(current.predecessor_id):
                if space.in_half_open(key, current.predecessor_id, current.ident):
                    return RouteOutcome(current, 0, 0, 0, None)
        while True:
            ident = current.ident
            if settled:
                # Resumed inside this node's retry loop: its termination
                # test already ran.
                settled = False
            else:
                successor_id = _live_successor(network, current, excluded)
                reach = (key - ident) & mask
                if successor_id == ident or 0 < reach <= (successor_id - ident) & mask:
                    owner = network.node(successor_id)
                    if owner.ident != ident:
                        if faults.is_stalled(owner.ident):
                            # The owner receives but never replies.
                            hops += 1
                            timeouts += 1
                            return RouteOutcome(
                                None, hops, timeouts, retries, "owner_unresponsive"
                            )
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
                resolved = nodes_get(candidate)
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

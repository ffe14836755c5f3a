"""Chord protocol dynamics: join, leave, crash, and maintenance.

The construction path (:meth:`RingNetwork.create` + ``rebuild_overlay``)
gives a perfectly stabilized ring for static experiments.  This module
provides the *incremental* protocol the churn experiments exercise: peers
join through a routed lookup, take over part of their successor's interval
(with data handoff), depart gracefully or by crashing, and background
maintenance rounds repair the pointer state — all with honest message
accounting.

Each operation is written once.  :func:`_splice` links a joiner in before
its successor, whether the successor was routed (:func:`join`) or resolved
by rank (:func:`repro.ring.mutation.apply_joins`).  :func:`_maintenance_sweep`
is the one scalar maintenance round, for lossy and loss-free rings alike;
the matrix kernel in :mod:`repro.ring.mutation` computes the same round
over the whole ring when the state allows it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ring.messages import MessageType
from repro.ring.network import NetworkError, RingNetwork
from repro.ring.node import PeerNode
from repro.ring.storage import LocalStore
from repro.ring.routing import _EMPTY_EXCLUSIONS, _live_successor, route_to_key

__all__ = [
    "join",
    "leave_gracefully",
    "crash",
    "stabilize",
    "maintenance_round",
    "random_unused_identifier",
]


#: Attempt budget multiplier for identifier rejection sampling.  Expected
#: draws per success is ``size / free``; going this far past it means the
#: space is effectively saturated and the caller gets an error, not a spin.
_SATURATION_ATTEMPT_FACTOR = 32

#: Escalating batch sizes for the (rare) collision path.
_REJECTION_BATCHES = (8, 32, 128)


def random_unused_identifier(network: RingNetwork, rng: Optional[np.random.Generator] = None) -> int:
    """Draw a uniform identifier not currently claimed by a live peer.

    Sparse spaces draw one identifier at a time — bit-stream identical to
    the historical rejection loop, so callers whose generator is correlated
    with the construction draws see exactly the identifiers they always
    did.  Only a dense space (at least half taken) escalates to batch draws
    checked against the sorted-id array in one vectorized membership pass,
    and raises :class:`NetworkError` instead of spinning forever when the
    identifier space is (nearly) saturated.
    """
    generator = rng if rng is not None else network.rng
    return _draw_unused_identifier(network, generator, None)


def _draw_unused_identifier(
    network: RingNetwork,
    generator: np.random.Generator,
    reserved: Optional[set[int]],
) -> int:
    """Rejection-sampling core shared with the churn round-planner.

    ``reserved`` holds identifiers claimed by the caller but not yet
    registered (the planner's already-drawn joins); membership is the union
    of the live registry and that set, so the planner consumes draws in
    exactly the pattern the sequential join loop would.
    """
    space = network.space
    size = space.size
    nodes = network._nodes
    taken_count = len(nodes) + (len(reserved) if reserved else 0)
    free = size - taken_count
    if free <= 0:
        raise NetworkError(
            f"identifier space saturated: {taken_count} of {size} identifiers taken"
        )
    ident = int(generator.integers(0, size, dtype=np.uint64))
    if ident not in nodes and (reserved is None or ident not in reserved):
        return ident
    attempts = 1
    # Repeated collisions in a sparse space are astronomically unlikely
    # under an independent stream but entirely possible under a correlated
    # one (a caller reusing the construction seed replays the very draws
    # that placed the peers).  Such callers depend on consuming the stream
    # one value per attempt — a batch draw would hand later joins different
    # identifiers and hence a different (but equally legal) topology — so
    # the sparse path stays scalar and unbounded, exactly the historical
    # loop.  Expected draws per success is size/free, i.e. barely above 1.
    dense = taken_count >= free
    if not dense:
        while True:
            ident = int(generator.integers(0, size, dtype=np.uint64))
            if ident not in nodes and (reserved is None or ident not in reserved):
                return ident
    # Dense space: exhaustion is the plausible explanation for collisions,
    # so escalate to vectorized batch draws under a give-up limit.
    limit = _SATURATION_ATTEMPT_FACTOR * max(1, size // free)
    sorted_ids = network.sorted_ids_array()
    batch_index = 0
    while attempts < limit:
        batch = _REJECTION_BATCHES[batch_index]
        batch_index = min(batch_index + 1, len(_REJECTION_BATCHES) - 1)
        candidates = generator.integers(0, size, size=batch, dtype=np.uint64)
        attempts += batch
        if sorted_ids.size:
            pos = np.searchsorted(sorted_ids, candidates)
            np.minimum(pos, sorted_ids.size - 1, out=pos)
            live = sorted_ids[pos] == candidates
        else:
            live = np.zeros(batch, dtype=bool)
        for candidate, taken in zip(candidates.tolist(), live.tolist()):
            if not taken and (reserved is None or candidate not in reserved):
                return int(candidate)
    raise NetworkError(
        f"no unused identifier found after {attempts} draws; identifier "
        f"space nearly saturated ({taken_count} of {size} taken)"
    )


def join(network: RingNetwork, new_ident: int, via: Optional[PeerNode] = None) -> PeerNode:
    """A new peer with identifier ``new_ident`` joins through peer ``via``.

    The join routes a lookup for its own identifier to find its successor
    and then splices itself in before it (:func:`_splice`): it takes the
    data items of the interval it now owns and links itself between
    predecessor and successor.  Its finger table starts as a copy of the
    successor's (the standard practical bootstrap) and is repaired
    incrementally by maintenance rounds.
    """
    network.space.validate(new_ident)
    if new_ident in network:
        raise ValueError(f"identifier {new_ident} already in use")
    if network.n_peers == 0:
        raise NetworkError("cannot join an empty network; create it first")
    entry = via if via is not None else network.random_peer()

    network.record(MessageType.JOIN)
    successor = route_to_key(network, entry, new_ident).owner
    new_node, relinked = _splice(network, new_ident, successor)
    network.record(MessageType.DATA_TRANSFER, payload=new_node.store.count)
    if relinked:
        network.record(MessageType.NOTIFY)
    return new_node


def _splice(network: RingNetwork, new_ident: int, successor: PeerNode) -> tuple[PeerNode, bool]:
    """Link a new peer in just before ``successor``; the one join splice.

    The new peer bootstraps its predecessor pointer, fingers (finger 0 is
    the successor) and successor list from ``successor``, takes over the
    interval ``(pred, new]`` of the successor's store — ``pred`` being the
    successor's predecessor pointer, or the successor itself while that is
    unknown — and is linked in as the successor's predecessor and its
    predecessor's successor.  Both :func:`join` (routed successor) and
    :func:`repro.ring.mutation.apply_joins` (rank-resolved successor) run
    it; the caller posts the ledger records.  Returns the registered peer
    and whether a live predecessor was relinked (one ``NOTIFY``).
    """
    succ_ident = successor.ident
    predecessor_id = successor.predecessor_id
    new_node = PeerNode(new_ident, network.space)
    new_node.predecessor_id = predecessor_id
    new_node.successor_id = succ_ident
    fingers = list(successor.fingers)
    fingers[0] = succ_ident
    new_node.fingers = fingers
    new_node.successor_list = [succ_ident, *successor.successor_list][
        : network.SUCCESSOR_LIST_LENGTH
    ]
    start = predecessor_id if predecessor_id is not None else succ_ident
    new_node.store.adopt_sorted(_take_interval(network, successor.store, start, new_ident))

    successor.predecessor_id = new_ident
    relinked = False
    if predecessor_id is not None:
        predecessor = network.try_node(predecessor_id)
        if predecessor is not None:
            predecessor.successor_id = new_ident
            relinked = True
    network._register(new_node)
    return new_node, relinked


def _take_interval(network: RingNetwork, store: LocalStore, start: int, end: int) -> list[float]:
    """Pop the values of ``store`` whose ring position lies in ``(start, end]``.

    The data hash is order-preserving, so these values form one contiguous
    slab of the sorted store — or, when the interval wraps the origin, a
    low head plus a high tail, which concatenate head-first in value order
    (``start == end`` is the full ring).  One ``searchsorted`` of each
    boundary into the hashed keys finds the slabs, so the result is every
    value ``v`` with ``data_hash(v)`` in the interval, in store order.
    """
    keys = network.data_hash.map_values(store.as_array())
    lo = int(np.searchsorted(keys, np.uint64(start), side="right"))
    hi = int(np.searchsorted(keys, np.uint64(end), side="right"))
    if start < end:
        return store.pop_slice(lo, hi)
    tail = store.pop_slice(lo, int(keys.size))
    return store.pop_slice(0, hi) + tail


def leave_gracefully(network: RingNetwork, ident: int) -> None:
    """Peer departs politely: ships its data to its successor and relinks.

    The last peer of the network may not leave (the data would have no home).
    """
    node = network.node(ident)
    if network.n_peers == 1:
        raise NetworkError("the last peer cannot leave the network")
    network.record(MessageType.LEAVE)

    successor = _live_neighbor(network, node.successor_id, node.ident)
    moved = node.store.pop_all()
    successor.store.insert_many(moved)
    network.record(MessageType.DATA_TRANSFER, payload=len(moved))

    # Relink neighbours around the departing peer.
    successor.predecessor_id = node.predecessor_id
    if node.predecessor_id is not None:
        predecessor = network.try_node(node.predecessor_id)
        if predecessor is not None:
            predecessor.successor_id = successor.ident
            network.record(MessageType.NOTIFY)

    node.alive = False
    network._unregister(ident)


def crash(network: RingNetwork, ident: int) -> int:
    """Peer fails abruptly; its data is lost (no replication in this model).

    Returns the number of items lost.  Neighbour pointers are left stale on
    purpose — only subsequent :func:`maintenance_round` calls repair the ring,
    which is what makes churn genuinely stress the estimators.
    """
    node = network.node(ident)
    if network.n_peers == 1:
        raise NetworkError("the last peer cannot crash away the whole network")
    lost = node.store.count
    node.store.pop_all()
    node.alive = False
    network._unregister(ident)
    return lost


def stabilize(network: RingNetwork, node: PeerNode) -> None:
    """One recorded Chord stabilization step for ``node`` on its own.

    The step a maintenance round runs for every peer
    (:func:`_stabilize_step`), plus its ``STABILIZE`` and ``NOTIFY``
    records and one overlay-version bump.
    """
    _stabilize_step(network, node)
    network.record(MessageType.STABILIZE)
    network.record(MessageType.NOTIFY)
    network.note_overlay_change()


def _stabilize_step(network: RingNetwork, node: PeerNode) -> None:
    """Chord ``stabilize`` plus ``notify`` for ``node``: pointer writes only.

    Ask the successor for its predecessor and adopt it if it sits between;
    refresh the successor list from the (now live) successor; then notify
    the successor, which adopts ``node`` as predecessor if its own is gone
    or ``node`` is closer.  A dead successor pointer is repaired through the
    successor-list fallback (modelled by one oracle repair at the cost of
    the timed-out probe).  Nothing is sent that can be lost, so the step
    draws no randomness; the caller posts the records and bumps the
    overlay version.
    """
    nodes_get = network._nodes.get
    mask = network.space.mask
    size = network.space.size
    self_id = node.ident
    successor = nodes_get(node.successor_id)
    if successor is None or not successor.alive:
        repaired = network._oracle_successor((self_id + 1) & mask)
        node.successor_id = repaired  # repro-lint: disable=VER001 (callers bump once via note_overlay_change: stabilize() per step, _maintenance_sweep per round)
        successor = network.node(repaired)
    succ_id = successor.ident
    # Modular membership tests are inlined (in_open(x, a, b) ⇔
    # 0 < (x−a)&mask < reach with reach = (b−a)&mask or size): this runs
    # once per peer per round, where method calls would dominate.
    candidate_id = successor.predecessor_id
    if candidate_id is not None and candidate_id != self_id:
        candidate = nodes_get(candidate_id)
        if candidate is not None and 0 < (candidate_id - self_id) & mask < (
            (succ_id - self_id) & mask or size
        ):
            node.successor_id = candidate_id
            successor = candidate
            succ_id = candidate_id
    node.successor_list = _refreshed_list(
        self_id, succ_id, successor.successor_list, network.SUCCESSOR_LIST_LENGTH
    )
    current = successor.predecessor_id
    if (
        current is None
        or nodes_get(current) is None
        or 0 < (self_id - current) & mask < ((succ_id - current) & mask or size)
    ):
        successor.predecessor_id = self_id


def _refreshed_list(self_id: int, succ_id: int, source: list[int], length: int) -> list[int]:
    """Peer ``self_id``'s successor list refreshed from its successor's.

    The successor's identity followed by the head of ``source`` (the
    successor's list), skipping ``self_id`` and repeats, up to ``length``
    entries.  When neither ``self_id`` nor ``succ_id`` occurs in
    ``source`` — the common case — the refresh is a plain
    prepend-and-truncate, the row the matrix kernel's recurrence computes;
    the two agree because stabilize, join and rebuild keep lists free of
    repeats.  The scalar sweep and the matrix kernel's irregular and wrap rows
    all refresh through here.
    """
    if self_id not in source and succ_id not in source:
        return [succ_id, *source[: length - 1]]
    refreshed = [succ_id]
    for entry in source:
        if len(refreshed) >= length:
            break
        if entry != self_id and entry not in refreshed:
            refreshed.append(entry)
    return refreshed


def maintenance_round(network: RingNetwork, fingers_per_peer: int = 1) -> None:
    """One background maintenance round across all live peers.

    Every peer runs one stabilize step and repairs ``fingers_per_peer``
    fingers, in ring order over the peers alive at the start of the round.

    At ``loss_rate == 0`` the round first tries the whole-ring matrix
    kernel (:func:`repro.ring.mutation.matrix_maintenance_round`), which
    applies when the ring is in the "true-or-dead" pointer state churn
    rounds leave behind and every finger fix terminates within one hop of
    its owner.  Every other round — lossy rings, mid-join pointers, finger
    fixes needing multi-hop routing — runs the scalar sweep
    (:func:`_maintenance_sweep`).  Pointers, finger contents and message
    totals are identical on both paths, and either advances
    :attr:`~repro.ring.network.RingNetwork.topology_version` by at most one.
    """
    if network.loss_rate <= 0.0:
        from repro.ring import mutation  # local: mutation imports this module

        if mutation.matrix_maintenance_round(network, fingers_per_peer):
            return
    _maintenance_sweep(network, fingers_per_peer)


def _maintenance_sweep(network: RingNetwork, fingers_per_peer: int) -> None:
    """The scalar maintenance round: one sweep in ring order, bulk records.

    Per peer: :func:`_stabilize_step`, then ``fingers_per_peer`` finger
    fixes, each advancing the node's round-robin cursor and installing the
    owner of the finger's target (``None`` when the lookup fails).  A fix
    the node owns itself — the entry shortcuts of
    :func:`~repro.ring.routing.route_to_key` — is answered locally: nothing
    is sent and nothing is drawn.  On a loss-free ring a fix its successor
    owns is answered locally too, at the one delivery hop the router would
    count.  Every other fix, and under loss every fix that leaves the node,
    runs the full router, which records its own hops and draws delivery
    outcomes from the network RNG in sweep order.

    STABILIZE and NOTIFY (once per peer), FIX_FINGER (per fix) and the
    local delivery hops are posted in one bulk record each — the totals of
    per-step records — and the overlay version is bumped once.
    """
    mask = network.space.mask
    bits = network.space.bits
    nodes = network._nodes
    nodes_get = nodes.get
    lossy = network.loss_rate > 0.0
    ids = network.peer_ids()
    bulk_hops = 0
    for ident in ids:
        node = nodes[ident]
        _stabilize_step(network, node)
        for _ in range(fingers_per_peer):
            k = node.next_finger_index
            node.next_finger_index = (k + 1) % bits
            target = (ident + (1 << k)) & mask
            pred = node.predecessor_id
            if target == ident or (
                pred is not None
                and nodes_get(pred) is not None
                # in_half_open(target, pred, self): (pred, pred] is the
                # full ring, else 0 < (t−p)&mask ≤ (s−p)&mask.
                and (pred == ident or 0 < (target - pred) & mask <= (ident - pred) & mask)
            ):
                node.set_finger(k, ident)
                continue
            if not lossy:
                # The stabilize step just made the successor pointer live;
                # a self-pointer falls back to the list, as the router's does.
                successor_id = node.successor_id
                if successor_id == ident:
                    successor_id = _live_successor(network, node, _EMPTY_EXCLUSIONS)
                if (
                    successor_id == ident
                    or 0 < (target - ident) & mask <= (successor_id - ident) & mask
                ):
                    if successor_id != ident:
                        bulk_hops += 1  # the final delivery hop
                    node.set_finger(k, successor_id)
                    continue
            try:
                owner: Optional[int] = route_to_key(network, node, target).owner.ident
            except NetworkError:
                owner = None
            node.set_finger(k, owner)
    if ids:
        network.record(MessageType.STABILIZE, count=len(ids))
        network.record(MessageType.NOTIFY, count=len(ids))
        network.record(MessageType.FIX_FINGER, count=len(ids) * fingers_per_peer)
    if bulk_hops:
        network.record(MessageType.LOOKUP_HOP, count=bulk_hops)
    network.note_overlay_change()


def _live_neighbor(network: RingNetwork, pointer: Optional[int], self_ident: int) -> PeerNode:
    """Resolve a neighbour pointer, repairing through the oracle if stale."""
    if pointer is not None:
        node = network.try_node(pointer)
        if node is not None and node.alive:
            return node
    return network.node(network._oracle_successor(network.space.add(self_ident, 1)))

"""Batched churn-mutation kernel: whole-round joins and matrix maintenance.

The sequential churn loop applies each join as an independent protocol
action — a routed lookup and the join splice — and repairs the overlay with
the scalar maintenance sweep, one peer at a time.  On a loss-free ring both
are deterministic functions of the round's random draws and the ring state,
so an entire round can instead be *planned* up front (consuming the RNG
streams in exactly the sequential per-stream order) and *applied* with the
routing and the per-peer sweep taken out:

* :func:`plan_round` draws all joins, graceful leaves, and crashes for the
  round against a simulated membership list, so the churn RNG and the
  network RNG advance exactly as the scalar loop would advance them.
* :func:`apply_joins` splices the planned identifiers into the ring.  The
  successor of each joiner is resolved by rank over the sorted membership
  (on a clean ring the routed lookup's owner is exactly the oracle
  successor); the splice itself is the scalar join's
  (:func:`repro.ring.chord._splice`).
* :func:`matrix_maintenance_round` replaces the scalar maintenance sweep
  (:func:`repro.ring.chord._maintenance_sweep`) with whole-ring vector
  computation: true successors and predecessors come from one roll of the
  sorted-id vector, successor lists from one matrix recurrence, and finger
  fixes from a vectorized owner classification.  It applies only when the
  ring is in the "true-or-dead" pointer state loss-free churn rounds leave
  behind and every finger fix terminates at the node or its direct
  successor; anything else falls back to the sweep.

Equivalence contract
--------------------
For a round the kernel accepts, the resulting ring state — membership,
stores, predecessor/successor pointers, successor lists, finger tables,
``next_finger_index`` cursors — and the message ledger's STABILIZE /
NOTIFY / FIX_FINGER / JOIN / LEAVE / DATA_TRANSFER totals (counts *and*
payloads) are identical to the sequential loop's, and both RNG streams end
in identical states.  The one accepted divergence: the sequential join
routes a lookup for the joiner's own identifier and records its
``LOOKUP_HOP`` cost, while the kernel resolves the successor by rank and
records none.  No experiment table or estimate reads churn-phase lookup
hops (estimation costs are measured as per-estimate ledger deltas), so the
tables are unaffected; the property tests in
``tests/ring/test_mutation_kernel.py`` pin the full state equivalence.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from numpy.typing import NDArray

from repro.ring.chord import _draw_unused_identifier, _refreshed_list, _splice
from repro.ring.messages import MessageType
from repro.ring.network import RingNetwork
from repro.ring.node import SUCCESSOR_LIST_LENGTH

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (churn -> chord)
    from repro.ring.churn import ChurnConfig

__all__ = [
    "KERNEL_MIN_PEERS",
    "RoundPlan",
    "plan_round",
    "apply_joins",
    "matrix_maintenance_round",
    "ring_is_clean",
]

#: Below this size the scalar sweep is already cheap and ring edge cases
#: (wrap-heavy successor lists, near-full finger arcs) start to matter;
#: the kernel declines and the sweep runs.
KERNEL_MIN_PEERS = 8


@dataclass(frozen=True)
class RoundPlan:
    """One churn round drawn up front: arrival-ordered joins/departures."""

    #: New peer identifiers in arrival order.
    joins: list[int] = field(default_factory=list)
    #: ``(identifier, is_crash)`` per departure, in departure order.
    departures: list[tuple[int, bool]] = field(default_factory=list)


def ring_is_clean(network: RingNetwork) -> bool:
    """Is every neighbour pointer live and exactly true?

    This is the state a loss-free maintenance round leaves behind, and the
    precondition for rank-based successor resolution in :func:`apply_joins`
    to match the sequential routed lookups: with live true pointers every
    join's routed owner is the oracle successor and every relink touches a
    live peer.  A fault-plane crash burst (or any externally perturbed
    state) fails this check and the round runs sequentially.
    """
    if network.n_peers < KERNEL_MIN_PEERS:
        return False
    table = network._overlay
    slots = network.sorted_slots_array()
    ids = network.sorted_ids_array()
    return bool(
        table.predecessor_known[slots].all()
        and np.array_equal(table.predecessor[slots], np.roll(ids, 1))
        and np.array_equal(table.successor[slots], np.roll(ids, -1))
    )


def plan_round(
    network: RingNetwork, config: "ChurnConfig", rng: np.random.Generator
) -> RoundPlan:
    """Draw one round's joins and departures without touching the ring.

    Consumes the churn RNG (Poisson counts, identifier draws, crash coins)
    and the network RNG (join entry peers, victim picks) in exactly the
    per-stream order of the sequential loop, simulating membership growth
    so every bounded draw sees the same range the scalar code would see.
    The entry-peer draws are consumed and discarded: they only select where
    a join's lookup *starts*, which the kernel does not route.
    """
    n = network.n_peers
    net_rng = network.rng
    joins: list[int] = []
    reserved: set[int] = set()
    n_joins = int(rng.poisson(config.join_rate * n))
    sim_size = n
    for _ in range(n_joins):
        ident = _draw_unused_identifier(network, rng, reserved)
        net_rng.integers(0, sim_size)  # the sequential join's entry pick
        reserved.add(ident)
        joins.append(ident)
        sim_size += 1

    departures: list[tuple[int, bool]] = []
    n_leaves = int(rng.poisson(config.leave_rate * n))
    if n_leaves:
        sim_ids = list(network._sorted_ids)
        for ident in joins:
            bisect.insort(sim_ids, ident)
        for _ in range(n_leaves):
            if len(sim_ids) <= config.min_peers:
                break
            index = int(net_rng.integers(0, len(sim_ids)))
            victim = sim_ids.pop(index)
            is_crash = bool(rng.random() < config.crash_fraction)
            departures.append((victim, is_crash))
    return RoundPlan(joins=joins, departures=departures)


def apply_joins(network: RingNetwork, idents: list[int]) -> int:
    """Splice the planned joiners into a clean ring; returns values moved.

    Per joiner, in arrival order: resolve the true successor by rank over
    the sorted membership (on a clean ring the routed lookup's owner is
    exactly that peer) and run the join splice
    (:func:`repro.ring.chord._splice`), which bootstraps the peer, hands off
    ``(pred, new]`` as slab slices and links it in.  Ledger totals — JOIN,
    DATA_TRANSFER (count and payload), NOTIFY — are posted in bulk and
    equal the sequential per-join records.
    """
    if not idents:
        return 0
    nodes = network._nodes
    sorted_ids = network._sorted_ids
    notifies = 0
    moved_total = 0
    for new_ident in idents:
        pos = bisect.bisect_left(sorted_ids, new_ident)
        succ_ident = sorted_ids[pos] if pos < len(sorted_ids) else sorted_ids[0]
        new_node, relinked = _splice(network, new_ident, nodes[succ_ident])
        moved_total += new_node.store.count
        notifies += relinked

    count = len(idents)
    network.record(MessageType.JOIN, count=count)
    network.record(MessageType.DATA_TRANSFER, count=count, payload=moved_total)
    if notifies:
        network.record(MessageType.NOTIFY, count=notifies)
    return moved_total


def matrix_maintenance_round(network: RingNetwork, fingers_per_peer: int) -> bool:
    """One loss-free maintenance round as whole-ring vector operations.

    Returns ``False`` (having mutated nothing) when the state is not
    batchable, in which case the caller runs the scalar sweep.  The
    batchable state is the one loss-free churn rounds produce: every
    successor pointer either names the true successor or a departed peer,
    successor lists are regular (full length), and — checked per finger
    sub-round — every finger fix classifies as owner-self or owner-successor
    (a multi-hop fix would consult mid-round pointer state that only the
    interleaved scalar sweep reproduces).

    On the batchable state the final pointers are provably those of the
    scalar sweep: stabilization repairs every successor to the true one
    (candidate adoption never fires because no live peer sits strictly
    between true neighbours), every notify installs the true predecessor,
    and the successor-list recurrence ``new[i] = [succ_i, *old[i+1][:L-1]]``
    (with the wrap row reading row 0's *new* list, exactly as ring-order
    iteration does) reproduces the per-peer refresh.  Ledger totals match
    the sweep's: STABILIZE and NOTIFY once per peer, FIX_FINGER per fix,
    LOOKUP_HOP once per owner-successor fix.

    Two token-based shortcuts keep quiet rounds cheap without weakening the
    contract (version counters are cache keys, not ring state):

    * A successful round whose successor-list refresh changed no list
      stores the post-round :attr:`topology_version` in
      ``network._exact_ring_token``.  While the token still matches,
      nothing has touched the overlay since — every pointer-mutating path
      bumps the version — so every pointer is exactly true by this
      function's own postcondition, the lists are the recurrence's fixed
      point (the true next ``L`` successors), and the gates plus all
      stabilize writes (which would be no-ops) are skipped wholesale.  A
      round that did change a list leaves no token: lists settle one ring
      step per round, so the next round may still change them.
    * The pointer columns are written, and
      :meth:`~repro.ring.network.RingNetwork.note_overlay_change` is
      called, only when some pointer actually changed value.  A round
      that changes nothing leaves every overlay-derived cache (snapshots,
      finger views) valid, so invalidating them — as the scalar sweep
      does unconditionally — would only force identical rebuilds.
    """
    n = network.n_peers
    if n < KERNEL_MIN_PEERS:
        return False
    space = network.space
    mask = np.uint64(space.mask)
    zero = np.uint64(0)
    bits = space.bits
    table = network._overlay
    slots = network.sorted_slots_array()
    ids = network.sorted_ids_array()
    true_succ = np.roll(ids, -1)
    true_pred = np.roll(ids, 1)
    list_length = SUCCESSOR_LIST_LENGTH
    exact = network._exact_ring_token == network.topology_version

    if exact:
        preds_fix = true_pred
        pred_live = None  # all neighbours live and true by the token
    else:
        # --- gate: successor pointers true-or-dead ----------------------
        succs = table.successor[slots]
        stale = succs != true_succ
        if stale.any():
            wrong = succs[stale]
            where = np.searchsorted(ids, wrong)
            np.minimum(where, n - 1, out=where)
            if (ids[where] == wrong).any():
                return False  # a live-but-wrong pointer: not a churn-round state
        # --- gate: regular successor lists ------------------------------
        if (table.list_lengths[slots] != list_length).any():
            return False
        lists = table.successor_lists[slots]
        # The finger classification reads only final stabilized neighbours
        # (true successors; true predecessors for all but the first peer,
        # whose notifier runs last in ring order and therefore fixes
        # against its pre-round predecessor), so it is computable before
        # any mutation.
        first = slots[0]
        preds_fix = true_pred.copy()
        pred_live = np.ones(n, dtype=bool)
        if not table.predecessor_known[first] or int(table.predecessor[first]) not in network:
            pred_live[0] = False
        else:
            preds_fix[0] = table.predecessor[first]

    # --- gate: every finger fix single-hop ------------------------------
    ks = table.cursor[slots].astype(np.uint64)
    d_sp = (ids - preds_fix) & mask
    d_ss = (true_succ - ids) & mask
    self_owned: list[NDArray[np.bool_]] = []
    succ_owned: list[NDArray[np.bool_]] = []
    for sub in range(fingers_per_peer):
        kf = (ks + np.uint64(sub)) % np.uint64(bits)
        targets = (ids + (np.uint64(1) << kf)) & mask
        d_tp = (targets - preds_fix) & mask
        self_own = (d_tp > zero) & (d_tp <= d_sp)
        if pred_live is not None:
            self_own &= pred_live
            if pred_live[0] and preds_fix[0] == ids[0]:
                self_own[0] = True  # pred == self: the full-ring interval
        d_ts = (targets - ids) & mask
        succ_own = ~self_own & (d_ts > zero) & (d_ts <= d_ss)
        if not (self_own | succ_own).all():
            return False  # a multi-hop fix: only the scalar sweep is exact
        self_owned.append(self_own)
        succ_owned.append(succ_own)

    mutated = False
    lists_settled = exact
    if not exact:
        # --- stabilize: successors, successor lists, predecessors -------
        new_lists = np.empty_like(lists)
        new_lists[:, 0] = true_succ
        new_lists[:-1, 1:] = lists[1:, : list_length - 1]
        new_lengths = np.full(n, list_length, dtype=np.int64)

        def refresh(index: int, source: list[int]) -> None:
            """Row ``index`` refreshed from ``source`` by the scalar rule."""
            row = _refreshed_list(int(ids[index]), int(true_succ[index]), source, list_length)
            new_lists[index, : len(row)] = row
            new_lengths[index] = len(row)

        irregular = (
            (lists[1:] == ids[:-1, None]) | (lists[1:] == true_succ[:-1, None])
        ).any(axis=1)
        for index in np.flatnonzero(irregular).tolist():
            refresh(index, lists[index + 1].tolist())
        # The wrap peer reads its successor's *refreshed* list.
        refresh(n - 1, new_lists[0, : new_lengths[0]].tolist())
        lists_changed = (new_lengths != list_length) | (new_lists != lists).any(axis=1)
        lists_settled = not lists_changed.any()
        mutated = (
            bool(stale.any())
            or not lists_settled
            or not table.predecessor_known[slots].all()
            or not np.array_equal(table.predecessor[slots], true_pred)
        )

    # --- fix fingers: the cells whose owner is new ------------------------
    bulk_hops = 0
    ubits = np.uint64(bits)
    fixed: list[tuple[NDArray[np.int64], NDArray[np.int64], NDArray[np.uint64]]] = []
    for sub in range(fingers_per_peer):
        owners = np.where(self_owned[sub], ids, true_succ)
        bulk_hops += int(succ_owned[sub].sum())
        kf = ((ks + np.uint64(sub)) % ubits).astype(np.int64)
        new = ~table.finger_known[slots, kf] | (table.fingers[slots, kf] != owners)
        if new.any():
            fixed.append((slots[new], kf[new], owners[new]))
    mutated = mutated or bool(fixed)

    if mutated:
        if not exact:
            table.successor[slots] = true_succ
            table.successor_lists[slots] = new_lists
            table.list_lengths[slots] = new_lengths
            table.predecessor[slots] = true_pred
            table.predecessor_known[slots] = True
        for rows, cols, owners in fixed:
            table.fingers[rows, cols] = owners
            table.finger_known[rows, cols] = True
            for slot in rows.tolist():
                table.scans.pop(slot, None)
        network.note_overlay_change()
    table.cursor[slots] = (ks + np.uint64(fingers_per_peer)) % ubits

    network.record(MessageType.STABILIZE, count=n)
    network.record(MessageType.NOTIFY, count=n)
    network.record(MessageType.FIX_FINGER, count=n * fingers_per_peer)
    if bulk_hops:
        network.record(MessageType.LOOKUP_HOP, count=bulk_hops)
    # Successor lists take up to L rounds to settle after churn: only a
    # round whose refresh changed no list leaves the fixed point that the
    # next round would reproduce.
    network._exact_ring_token = network.topology_version if lists_settled else None
    return True

"""Columnar Chord routing shared by both ring backends.

Both backends hold the overlay as ring-ordered peer identifiers plus a
compressed finger-scan matrix: :class:`~repro.ring.snapshot.RingSnapshot`
derives them from node pointers churn may leave stale,
:class:`~repro.ring.compact.CompactRing` builds them for the stabilized
ring.  :func:`compress_scan` builds that matrix and :func:`route_lockstep`
routes lookup batches over it, hop for hop as
:func:`repro.ring.routing.route_to_key` does — or, given a fault plane's
rows, as :func:`repro.ring.routing.route_with_policy` does.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "FAILURES",
    "FaultRows",
    "Lockstep",
    "RingPointers",
    "SendModel",
    "compress_scan",
    "exact_fingers",
    "route_lockstep",
]


def exact_fingers(ids: NDArray[np.uint64], rows: slice, bits: int) -> NDArray[np.uint64]:
    """Stabilized finger tables of the peers ``ids[rows]``, shape ``(rows, bits)``.

    Finger ``k`` of peer ``p`` is the owner of ``(p + 2^k) mod 2^bits``: one
    ``searchsorted`` into the sorted ids, the scalar oracle's bisection.
    """
    powers = np.uint64(1) << np.arange(bits, dtype=np.uint64)
    targets = (ids[rows, None] + powers) & np.uint64((1 << bits) - 1)
    indices = np.searchsorted(ids, targets)
    indices[indices == ids.size] = 0
    return ids[indices]


def compress_scan(
    own_ids: NDArray[np.uint64],
    blocks: Iterable[tuple[NDArray[np.uint64], Optional[NDArray[np.bool_]]]],
) -> NDArray[np.uint64]:
    """The compressed finger-scan matrix of ``own_ids``' finger tables.

    ``blocks`` yields consecutive row blocks of the ``(rows, bits)`` finger
    matrix with their validity mask (``None``: all valid).  A row holds
    ~log2(n) distinct fingers in consecutive runs, and routing only asks
    "highest column inside an arc", so each run collapses to its highest
    column: an entry is dropped when the next column is valid and equal
    (stale tables under churn at worst keep duplicates, never lose a
    value).  Invalid fingers are dropped, and rows pad to the common width
    with the peer's own identifier, which fails every strict in-arc test.
    """
    kept_blocks: list[tuple[NDArray[np.uint64], NDArray[np.int64]]] = []
    width = 1
    for fingers, valid in blocks:
        keep = np.ones(fingers.shape, dtype=bool) if valid is None else valid.copy()
        repeats = fingers[:, :-1] == fingers[:, 1:]
        if valid is not None:
            repeats &= valid[:, 1:]
        keep[:, :-1] &= ~repeats
        widths = keep.sum(axis=1)
        width = max(width, int(widths.max(initial=0)))
        kept_blocks.append((fingers[keep], widths))
    scan = np.repeat(own_ids[:, None], width, axis=1)
    row = 0
    for kept, widths in kept_blocks:
        rows = np.repeat(np.arange(widths.size, dtype=np.int64), widths)
        starts = np.cumsum(widths) - widths
        scan[row + rows, np.arange(kept.size, dtype=np.int64) - starts[rows]] = kept
        row += widths.size
    return scan


class RingPointers(NamedTuple):
    """Per-peer neighbour pointers of a possibly unmaintained ring.

    ``succ_idx`` is the row of each primary successor; ``succ_plain`` marks
    those that are live and no self-loop.  ``pred_ids`` are the
    predecessor pointers; ``pred_live`` marks those set and live.
    """

    succ_idx: NDArray[np.int64]
    succ_plain: NDArray[np.bool_]
    pred_ids: NDArray[np.uint64]
    pred_live: NDArray[np.bool_]


class SendModel(NamedTuple):
    """Lossy delivery: a send is retransmitted until one attempt arrives.

    Each attempt is lost with probability ``loss_rate``, so a send's
    attempt count is one geometric draw from ``rng``; ``max_attempts``
    caps it (``None``: retry forever).
    """

    rng: np.random.Generator
    loss_rate: float
    max_attempts: Optional[int] = None


class FaultRows(NamedTuple):
    """A fault plane's structural state per ring row.

    ``stalled`` marks unresponsive peers and ``arc`` gives each row's
    partition arc (``None``: no partition).
    """

    stalled: NDArray[np.bool_]
    arc: Optional[NDArray[np.int64]]


#: Why a lookup failed: ``failure == k`` means ``FAILURES[k - 1]``, and 0
#: that it did not.  The kernel reports the first five; ``"stuck"`` comes
#: only from the scalar router a lookup is handed to.
FAILURES = (
    "entry_stalled",
    "owner_unresponsive",
    "partitioned",
    "retry_exhausted",
    "hop_budget",
    "stuck",
)
_ENTRY_STALLED, _OWNER_UNRESPONSIVE, _PARTITIONED, _RETRY_EXHAUSTED, _HOP_BUDGET = range(1, 6)


class Lockstep(NamedTuple):
    """Per-lookup result columns of :func:`route_lockstep`.

    A lookup ends answered (``owner_idx`` >= 0), failed (``failure`` > 0)
    or handed off (``fallback``).  ``hops`` is its cost.  A handed-off
    lookup stopped at row ``cur``, the first ``n_excluded`` entries of
    ``excluded`` timed out, ``settled`` if it already passed that node's
    termination test, and ``blocked`` if a send hit the partition.
    """

    owner_idx: NDArray[np.int64]
    hops: NDArray[np.int64]
    fallback: NDArray[np.bool_]
    cur: NDArray[np.int64]
    failure: NDArray[np.int8]
    excluded: NDArray[np.uint64]
    n_excluded: NDArray[np.int64]
    settled: NDArray[np.bool_]
    blocked: NDArray[np.bool_]


def _either(
    a: Optional[NDArray[np.bool_]], b: Optional[NDArray[np.bool_]]
) -> Optional[NDArray[np.bool_]]:
    """``a | b`` for masks where ``None`` means all false."""
    if a is None:
        return b
    if b is None:
        return a
    return a | b


def route_lockstep(
    ids: NDArray[np.uint64],
    scan: NDArray[np.uint64],
    mask: int,
    entries: NDArray[np.int64],
    keys: NDArray[np.uint64],
    max_hops: int,
    *,
    pointers: Optional[RingPointers] = None,
    tail_cutoff: int = 0,
    traffic: Optional[NDArray[np.int64]] = None,
    sends: Optional[SendModel] = None,
    faults: Optional[FaultRows] = None,
) -> Lockstep:
    """Route lookups from the peers at rows ``entries`` to ``keys`` in lockstep.

    Per lookup: the entry shortcuts (own id, or a live predecessor
    preceding the key), then per round either the termination test against
    the successor and the final delivery, or a send to the highest-column
    in-arc finger, else the successor.

    Without ``faults`` this is :func:`repro.ring.routing.route_to_key`: a
    send to a departed finger (absent from ``ids``) costs its attempts and
    one timeout, and the lookup rescans at the same node without it.
    Exclusions last while the lookup stays at that node.  With ``faults``
    it is :func:`repro.ring.routing.route_with_policy`: a stalled entry
    fails the lookup, a stalled owner fails it after one hop, and a
    stalled, departed or cross-partition finger costs one timed-out hop
    and stays excluded for the rest of the route.

    ``sends`` makes delivery lossy: each round draws every send's attempt
    count in one vector, and a send that runs out of ``max_attempts``
    excludes its finger (or fails the lookup at the owner).  ``max_hops``
    bounds each lookup as its reference router does.

    ``pointers=None`` is the stabilized ring: neighbours are index rolls
    and every pointer is live.  A lookup that meets a successor that is not
    plain (or, with ``faults``, excluded), exhausts its budget without
    ``faults``, or is among the last ``tail_cutoff`` stops: ``fallback``
    marks it for the scalar reference to resume (see :class:`Lockstep`).
    ``traffic``, when given, counts every hop to a live peer.
    """
    count = keys.size
    n = ids.size
    umask = np.uint64(mask)
    zero = np.uint64(0)
    cur = entries.astype(np.int64, copy=True)
    hops = np.zeros(count, dtype=np.int64)
    owner_idx = np.full(count, -1, dtype=np.int64)
    fallback = np.zeros(count, dtype=bool)
    failure = np.zeros(count, dtype=np.int8)
    settled = np.zeros(count, dtype=bool)
    blocked = np.zeros(count, dtype=bool)
    excluded = np.zeros((count, 1), dtype=np.uint64)
    n_excluded = np.zeros(count, dtype=np.int64)
    lossy = sends is not None and sends.loss_rate > 0.0
    cap = None if sends is None else sends.max_attempts
    # Only a lost send or a fault can time out the (live) successor.
    excluding_succ = sends is not None or faults is not None
    excluding = False

    def exclusions(
        probes: NDArray[np.int64], rows: NDArray[np.uint64]
    ) -> NDArray[np.bool_]:
        """Which entries of each probe's ``rows`` it has excluded."""
        out = np.zeros(rows.shape, dtype=bool)
        sub = np.flatnonzero(n_excluded[probes])
        if sub.size:
            counts = n_excluded[probes[sub]]
            lists = excluded[probes[sub], : int(counts.max())]
            valid = np.arange(lists.shape[1]) < counts[:, None]
            out[sub] = ((rows[sub, :, None] == lists[:, None, :]) & valid[:, None, :]).any(axis=2)
        return out

    def exclude(probes: NDArray[np.int64], values: NDArray[np.uint64]) -> None:
        """Time out ``values`` for ``probes``: skip them from now on."""
        nonlocal excluded, excluding
        if not probes.size:
            return
        slot = n_excluded[probes]
        if int(slot.max()) >= excluded.shape[1]:
            excluded = np.concatenate((excluded, np.zeros_like(excluded)), axis=1)
        excluded[probes, slot] = values
        n_excluded[probes] += 1
        excluding = True

    def send(
        probes: NDArray[np.int64], attempts: NDArray[np.int64]
    ) -> tuple[NDArray[np.bool_], NDArray[np.int8]]:
        """Charge sends that need ``attempts`` tries; which arrived, and why not.

        A send gives up after ``max_attempts`` tries and, under ``faults``
        (the policy router), after the first lost try past ``max_hops``.
        """
        assert sends is not None
        limit = np.full(probes.size, np.iinfo(np.int64).max if cap is None else cap)
        if faults is not None:
            np.minimum(limit, np.maximum(max_hops - hops[probes] + 1, 1), out=limit)
        arrived = attempts <= limit
        used = np.where(arrived, attempts, limit)
        hops[probes] += used
        if cap is None:
            return arrived, np.full(probes.size, _HOP_BUDGET, dtype=np.int8)
        return arrived, np.where(limit >= cap, _RETRY_EXHAUSTED, _HOP_BUDGET).astype(np.int8)

    entry_ids = ids[cur]
    preds_here = ids[(cur - 1) % n] if pointers is None else pointers.pred_ids[cur]
    done = keys == entry_ids
    dk = (keys - preds_here) & umask
    shortcut = ~done & (
        (preds_here == entry_ids) | ((dk > zero) & (dk <= (entry_ids - preds_here) & umask))
    )
    if pointers is not None:
        shortcut &= pointers.pred_live[cur]
    done |= shortcut
    if faults is not None:
        mute = faults.stalled[cur]
        failure[mute] = _ENTRY_STALLED
        owner_idx[done & ~mute] = cur[done & ~mute]
        done |= mute
    else:
        owner_idx[done] = cur[done]

    active = np.flatnonzero(~done)
    rounds = 0
    # A settled lookup is still at the node whose termination test it
    # passed: it only looks for the next finger.  Only timeouts settle one,
    # so the stabilized loss-free ring never does.
    settling = False
    while active.size:
        rounds += 1
        if active.size <= tail_cutoff:
            # A vectorized step costs the same whether it advances sixty
            # lookups or three, so the few stragglers go to the scalar loop.
            fallback[active] = True
            break
        ci = cur[active]
        fresh = ~settled[active] if settling else None
        if pointers is None:
            si = (ci + 1) % n
        else:
            si = pointers.succ_idx[ci]
            # A successor that is not plain (or, per route, timed out) is
            # the scalar reference's successor-list failover.
            irregular = ~pointers.succ_plain[ci]
            if faults is not None and excluding:
                irregular |= exclusions(active, ids[si][:, None])[:, 0]
            if fresh is not None:
                irregular &= fresh
            if irregular.any():
                fallback[active[irregular]] = True
                keep = ~irregular
                active, ci, si = active[keep], ci[keep], si[keep]
                fresh = None if fresh is None else fresh[keep]
                if not active.size:
                    break
        ci_ids = ids[ci]
        terminal = ((keys[active] - ci_ids) & umask) <= ((ids[si] - ci_ids) & umask)
        if fresh is not None:
            terminal &= fresh
        finished = active[terminal]
        owners = si[terminal]
        if faults is not None and finished.size:
            # The owner receives but never replies, or sits across the cut.
            lose = faults.stalled[owners]
            failure[finished[lose]] = _OWNER_UNRESPONSIVE
            if faults.arc is not None:
                cut = ~lose & (faults.arc[ci[terminal]] != faults.arc[owners])
                failure[finished[cut]] = _PARTITIONED
                blocked[finished[cut]] = True
                lose |= cut
            hops[finished[lose]] += 1
            finished, owners = finished[~lose], owners[~lose]

        # Forwarding: the highest in-arc finger not timed out, else the successor.
        going = ~terminal
        advancing = active[going]
        ca = ci[going]
        sa = si[going]
        if faults is not None:
            over = hops[advancing] > max_hops
            if over.any():
                failure[advancing[over]] = _HOP_BUDGET
                advancing, ca, sa = advancing[~over], ca[~over], sa[~over]
        ca_ids = ids[ca]
        rows = scan[ca]
        finger_dist = (rows - ca_ids[:, None]) & umask
        in_arc = (finger_dist > zero) & (
            finger_dist < ((keys[advancing] - ca_ids) & umask)[:, None]
        )
        succ_gone: Optional[NDArray[np.bool_]] = None
        if excluding:
            # The successor rides along as one more column.
            skipped = exclusions(advancing, np.concatenate((rows, ids[sa][:, None]), axis=1))
            in_arc &= ~skipped[:, :-1]
            succ_gone = skipped[:, -1]
        hit = in_arc.any(axis=1)
        first_rev = in_arc.shape[1] - 1 - np.argmax(in_arc[:, ::-1], axis=1)
        candidate = scan[ca, first_rev]
        dest = np.where(hit, np.searchsorted(ids, candidate), sa)
        # What a timeout excludes: the finger, or (no finger hit) the successor.
        target = candidate if not excluding_succ else np.where(hit, candidate, ids[sa])
        # Lookups that leave the batch, and those that time out and rescan
        # at the same node (None: none this round).
        stop: Optional[NDArray[np.bool_]] = None
        stay: Optional[NDArray[np.bool_]] = None
        if succ_gone is not None:
            # Every finger and the successor timed out: the successor
            # list's turn.
            lost_all = ~hit & succ_gone
            stop = lost_all if lost_all.any() else None
        dead: Optional[NDArray[np.bool_]] = None
        if pointers is not None:
            np.minimum(dest, n - 1, out=dest)
            dead = hit & (ids[dest] != candidate)
            if not dead.any():
                dead = None
        if faults is not None:
            # Stalled, departed or across the cut: one timed-out hop.
            quiet = _either(faults.stalled[dest], dead)
            assert quiet is not None
            if stop is not None:
                quiet &= ~stop
            if faults.arc is not None:
                cut = ~quiet & (faults.arc[ca] != faults.arc[dest])
                if stop is not None:
                    cut &= ~stop
                blocked[advancing[cut]] = True
                quiet |= cut
            if quiet.any():
                stay = quiet
                hops[advancing[stay]] += 1
        leaving = _either(stop, stay)
        sending = None if leaving is None else ~leaving  # None: every lookup
        outgoing = advancing if sending is None else advancing[sending]
        landed = sending
        if lossy:
            assert sends is not None
            # One attempt-count draw for every send of the round.
            tries = sends.rng.geometric(1.0 - sends.loss_rate, size=finished.size + outgoing.size)
            sent = np.ones(advancing.size, dtype=bool) if sending is None else sending
            if faults is None:
                # route_to_key checks the budget before every attempt: a
                # lookup whose send would cross it stops there, for the
                # scalar reference to raise where it would have.
                ahead = tries[finished.size :]
                crossing = hops[outgoing] + (ahead if cap is None else np.minimum(ahead, cap))
                crossing = crossing > max_hops
                if crossing.any():
                    hops[outgoing[crossing]] = max_hops
                    late = np.zeros(advancing.size, dtype=bool)
                    late[sent] = crossing
                    stop = _either(stop, late)
                    sent = sent & ~late
                    outgoing = outgoing[~crossing]
                    tries = np.concatenate((tries[: finished.size], ahead[~crossing]))
            head = finished.size
            probes = np.concatenate((finished, outgoing))
            arrived, reason = send(probes, tries)
            # Failed lookups: an undelivered reply or, for the policy
            # router, a send that ran out of hops.
            lost = ~arrived
            if faults is None:
                lost[head:] = False
            else:
                lost[head:] &= reason[head:] == _HOP_BUDGET
            failure[probes[lost]] = reason[lost]
            finished, owners = finished[arrived[:head]], owners[arrived[:head]]
            landed = np.zeros(advancing.size, dtype=bool)
            landed[sent] = arrived[head:]
            sending = sent.copy()
            sending[sent] = ~lost[head:]
        else:
            hops[finished] += 1
            if faults is None and rounds > max_hops:
                # Each round adds at most one hop per lookup, so no budget
                # can run out before the round counter passes it.
                late = hops[advancing] >= max_hops
                if sending is not None:
                    late &= sending
                if late.any():
                    stop = _either(stop, late)
                    sending = landed = ~late if leaving is None else ~(leaving | late)
                    outgoing = advancing[sending]
            hops[outgoing] += 1
        owner_idx[finished] = owners
        if traffic is not None:
            np.add.at(traffic, owners, 1)
        if dead is not None and faults is None:
            landed = ~dead if landed is None else landed & ~dead
        if landed is not None:
            # Sent but not moved on: out of attempts or, without faults,
            # arrived at a departed finger.
            stuck = ~landed if sending is None else sending & ~landed
            if stuck.any():
                stay = _either(stay, stuck)
        if stop is not None:
            settled[advancing[stop]] = True
            fallback[advancing[stop]] = True
        if landed is None:
            moved = advancing
            cur[moved] = dest
        else:
            moved = advancing[landed]
            cur[moved] = dest[landed]
        if stay is not None:
            exclude(advancing[stay], target[stay])
            settled[advancing[stay]] = True
            settling = True
            assert landed is not None
            active = advancing[landed | stay]
        else:
            active = moved
        if settling:
            settled[moved] = False
            if faults is None:
                n_excluded[moved] = 0  # route_to_key forgets exclusions per node
        if traffic is not None:
            np.add.at(traffic, cur[moved], 1)
    return Lockstep(
        owner_idx,
        hops,
        fallback,
        cur,
        failure,
        excluded,
        n_excluded,
        settled,
        blocked,
    )

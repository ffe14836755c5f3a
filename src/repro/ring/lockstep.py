"""Columnar Chord routing shared by both ring backends.

Both backends hold the overlay as ring-ordered peer identifiers plus a
compressed finger-scan matrix: :class:`~repro.ring.snapshot.RingSnapshot`
derives them from node pointers churn may leave stale,
:class:`~repro.ring.compact.CompactRing` builds them for the stabilized
ring.  :func:`compress_scan` builds that matrix and :func:`route_lockstep`
routes lookup batches over it, hop for hop as
:func:`repro.ring.routing.route_to_key` does — or, given a fault plane's
rows, as the policy router behind
:func:`repro.ring.routing.route_with_policy` does, successor-list
failover included.  The kernel finishes every lookup it is given.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Optional

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

    ``succ_idx`` is each row's resolved live successor: the primary
    pointer if it is live and no self-loop, else the first such entry of
    the successor list, else the next row (the oracle repair).
    ``succ_rows`` holds the rows of the primary pointer followed by the
    successor list, -1 where an entry is departed, absent or the peer
    itself: the failover order for a lookup that timed out the resolved
    successor.  ``pred_ids`` are the predecessor pointers; ``pred_live``
    marks those set and live.
    """

    succ_idx: NDArray[np.int64]
    succ_rows: NDArray[np.int64]
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
#: that it did not.
FAILURES = (
    "entry_stalled",
    "owner_unresponsive",
    "partitioned",
    "retry_exhausted",
    "hop_budget",
    "stuck",
)
(
    _ENTRY_STALLED,
    _OWNER_UNRESPONSIVE,
    _PARTITIONED,
    _RETRY_EXHAUSTED,
    _HOP_BUDGET,
    _STUCK,
) = range(1, 7)

#: The attempt limit of a send without ``max_attempts``.
_NO_CAP = np.iinfo(np.int64).max


class Lockstep(NamedTuple):
    """Per-lookup result columns of :func:`route_lockstep`.

    A lookup ends answered (``owner_idx`` >= 0) or failed (``failure`` > 0,
    a code in :data:`FAILURES`).  ``hops`` is its cost, failures included.
    ``timeouts`` counts its timed-out sends and ``retries`` its
    retransmissions, as its reference router reports them.
    """

    owner_idx: NDArray[np.int64]
    hops: NDArray[np.int64]
    failure: NDArray[np.int8]
    timeouts: NDArray[np.int64]
    retries: NDArray[np.int64]

    def reason(self, index: int) -> str:
        """Why lookup ``index`` failed."""
        return FAILURES[int(self.failure[index]) - 1]


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
    traffic: Optional[NDArray[np.int64]] = None,
    sends: Optional[SendModel] = None,
    faults: Optional[FaultRows] = None,
) -> Lockstep:
    """Route lookups from the peers at rows ``entries`` to ``keys`` in lockstep.

    Per lookup: the entry shortcuts (own id, or a live predecessor
    preceding the key), then per round either the termination test against
    the successor and the final delivery, or a send to the highest-column
    in-arc finger, else the successor.  Every lookup ends answered or
    failed.

    Without ``faults`` this is :func:`repro.ring.routing.route_to_key`: a
    send to a departed finger (absent from ``ids``) costs its attempts and
    one timeout, and the lookup rescans at the same node without it.
    Exclusions last while the lookup stays at that node.  With ``faults``
    it is the policy router behind
    :func:`repro.ring.routing.route_with_policy`: a stalled entry fails
    the lookup, a stalled owner fails it after one hop, a stalled,
    departed or cross-partition finger costs one timed-out hop and stays
    excluded for the rest of the route, and a lookup left with no finger
    and no successor it has not timed out fails ``"stuck"`` (under a
    partition, ``"partitioned"``).

    The successor is each row's resolved live successor
    (:class:`RingPointers`) until the lookup times it out; then the
    successor list is its failover, in order, and past the list the next
    row.  ``sends`` makes delivery lossy: each round draws every send's
    attempt count in one vector, and a send that runs out of
    ``max_attempts`` excludes its finger (or fails the lookup at the
    owner).  ``max_hops`` bounds each lookup as its reference router
    does; a lookup over it fails ``"hop_budget"``.

    ``pointers=None`` is the stabilized ring: neighbours are index rolls,
    every pointer is live, and there is no successor list to fail over
    to.  ``traffic``, when given, counts every hop to a live peer.
    """
    count = keys.size
    n = ids.size
    umask = np.uint64(mask)
    zero = np.uint64(0)
    cur = entries.astype(np.int64, copy=True)
    hops = np.zeros(count, dtype=np.int64)
    timeouts = np.zeros(count, dtype=np.int64)
    retries = np.zeros(count, dtype=np.int64)
    owner_idx = np.full(count, -1, dtype=np.int64)
    failure = np.zeros(count, dtype=np.int8)
    settled = np.zeros(count, dtype=bool)
    excluded = np.zeros((count, 1), dtype=np.uint64)
    n_excluded = np.zeros(count, dtype=np.int64)
    lossy = sends is not None and sends.loss_rate > 0.0
    cap = None if sends is None else sends.max_attempts
    # Only a lost send or a fault can time out a live peer.
    excluding_live = sends is not None or faults is not None
    excluding = False
    stranded_code = _STUCK if faults is None or faults.arc is None else _PARTITIONED

    def exclusions(
        probes: NDArray[np.int64],
        rows_of: Callable[[NDArray[np.int64]], NDArray[np.uint64]],
        width: int,
    ) -> NDArray[np.bool_]:
        """Which of ``width`` values per probe it has excluded.

        ``rows_of(sub)`` gives the values of the probes at positions
        ``sub``; it is only asked for probes with exclusions.
        """
        out = np.zeros((probes.size, width), dtype=bool)
        sub = np.flatnonzero(n_excluded[probes])
        if sub.size:
            lists = excluded[probes[sub]]
            out[sub] = (rows_of(sub)[:, :, None] == lists[:, None, :]).any(axis=2)
        return out

    def exclude(probes: NDArray[np.int64], values: NDArray[np.uint64]) -> None:
        """Time out ``values`` for ``probes``: one timeout each, skipped from now on.

        A probe's unused slots repeat an excluded value, so membership
        tests need no count mask.
        """
        nonlocal excluded, excluding
        if not probes.size:
            return
        slot = n_excluded[probes]
        if int(slot.max()) >= excluded.shape[1]:
            excluded = np.concatenate((excluded, excluded), axis=1)
        first = slot == 0
        excluded[probes[first]] = values[first, None]
        excluded[probes, slot] = values
        n_excluded[probes] += 1
        timeouts[probes] += 1
        excluding = True

    def failover(
        probes: NDArray[np.int64], rows: NDArray[np.int64]
    ) -> tuple[NDArray[np.int64], NDArray[np.bool_]]:
        """Successors for lookups that timed out the resolved one at ``rows``.

        The first successor-list entry each has not timed out, else the
        next row; the mask marks those that timed that out too.
        """
        listed = ((rows + 1) % n)[:, None]  # the next row, after the list
        if pointers is not None:
            listed = np.concatenate((pointers.succ_rows[rows], listed), axis=1)
        usable = (listed >= 0) & ~exclusions(probes, lambda sub: ids[listed[sub]], listed.shape[1])
        first = listed[np.arange(rows.size), np.argmax(usable, axis=1)]
        stranded = ~usable.any(axis=1)
        return np.where(stranded, listed[:, -1], first), stranded

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
    if n == 1:
        done[:] = True  # a lone peer is its own successor: it owns every key
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
        ci = cur[active]
        si = (ci + 1) % n if pointers is None else pointers.succ_idx[ci]
        # Which fingers, and whether the successor, each lookup timed out.
        hidden: Optional[NDArray[np.bool_]] = None
        stranded: Optional[NDArray[np.bool_]] = None
        if excluding:
            hidden = exclusions(
                active,
                lambda sub: np.concatenate((scan[ci[sub]], ids[si[sub], None]), axis=1),
                scan.shape[1] + 1,
            )
            gone = hidden[:, -1]
            if excluding_live and gone.any():
                si[gone], stranded_gone = failover(active[gone], ci[gone])
                stranded = np.zeros(active.size, dtype=bool)
                stranded[gone] = stranded_gone
        ci_ids = ids[ci]
        reach = (keys[active] - ci_ids) & umask
        terminal = (reach > zero) & (reach <= ((ids[si] - ci_ids) & umask))
        if settling:
            terminal &= ~settled[active]
        finished = active[terminal]
        owners = si[terminal]
        if faults is not None and finished.size:
            # The owner receives but never replies, or sits across the cut.
            lose = faults.stalled[owners]
            if faults.arc is not None:
                lose |= faults.arc[ci[terminal]] != faults.arc[owners]
            if lose.any():
                failure[finished[lose]] = np.where(
                    faults.stalled[owners[lose]], _OWNER_UNRESPONSIVE, _PARTITIONED
                )
                hops[finished[lose]] += 1
                timeouts[finished[lose]] += 1
                finished, owners = finished[~lose], owners[~lose]

        # Forwarding: the highest in-arc finger not timed out, else the successor.
        going = ~terminal
        advancing = active[going]
        ca = ci[going]
        sa = si[going]
        nowhere = None if stranded is None else stranded[going]
        skipped = None if hidden is None else hidden[going, :-1]
        if faults is not None:
            over = hops[advancing] > max_hops
            if over.any():
                failure[advancing[over]] = _HOP_BUDGET
                advancing, ca, sa = advancing[~over], ca[~over], sa[~over]
                nowhere = None if nowhere is None else nowhere[~over]
                skipped = None if skipped is None else skipped[~over]
        # In the open arc (current, key), the whole ring but the current
        # node when the key is its own id: both distances shifted down by
        # one, so that 0 wraps to the top.
        after = ids[ca] + np.uint64(1)
        rows = scan[ca]
        in_arc = ((rows - after[:, None]) & umask) < ((keys[advancing] - after) & umask)[:, None]
        if skipped is not None:
            in_arc &= ~skipped
        hit = in_arc.any(axis=1)
        first_rev = in_arc.shape[1] - 1 - np.argmax(in_arc[:, ::-1], axis=1)
        candidate = scan[ca, first_rev]
        dest = np.where(hit, np.searchsorted(ids, candidate), sa)
        # Lookups that leave the batch, and those that time out and rescan
        # at the same node (None: none this round).
        stop: Optional[NDArray[np.bool_]] = None
        stay: Optional[NDArray[np.bool_]] = None
        if faults is not None and nowhere is not None:
            # No finger and every successor timed out: the lookup gives up.
            stop = ~hit & nowhere
            failure[advancing[stop]] = stranded_code
            if not stop.any():
                stop = None
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
                # route_to_key checks the budget before every attempt: the
                # attempt that crosses it fails the lookup.
                ahead = tries[finished.size :]
                crossing = hops[outgoing] + (ahead if cap is None else np.minimum(ahead, cap))
                crossing = crossing > max_hops
                if crossing.any():
                    over_budget = outgoing[crossing]
                    retries[over_budget] += max_hops - hops[over_budget]
                    hops[over_budget] = max_hops + 1
                    failure[over_budget] = _HOP_BUDGET
                    late = np.zeros(advancing.size, dtype=bool)
                    late[sent] = crossing
                    sent = sent & ~late
                    outgoing = outgoing[~crossing]
                    tries = np.concatenate((tries[: finished.size], ahead[~crossing]))
            # A send gives up after max_attempts tries and, for the policy
            # router, after the first lost try past max_hops.  Every try but
            # a send's last is a retransmission.
            head = finished.size
            probes = np.concatenate((finished, outgoing))
            limit = np.full(probes.size, _NO_CAP if cap is None else cap)
            if faults is not None:
                np.minimum(limit, np.maximum(max_hops - hops[probes] + 1, 1), out=limit)
            used = np.minimum(tries, limit)
            hops[probes] += used
            retries[probes] += used - 1
            arrived = tries <= limit
            landed = sent
            if not arrived.all():
                reason = np.full(probes.size, _HOP_BUDGET, dtype=np.int8)
                if cap is not None:
                    reason[limit >= cap] = _RETRY_EXHAUSTED
                # Failed lookups: an undelivered reply or, for the policy
                # router, a send that ran out of hops.
                lost = ~arrived
                if faults is None:
                    lost[head:] = False
                else:
                    lost[head:] &= reason[head:] == _HOP_BUDGET
                    timeouts[probes[lost]] += 1
                failure[probes[lost]] = reason[lost]
                finished, owners = finished[arrived[:head]], owners[arrived[:head]]
                landed = np.zeros(advancing.size, dtype=bool)
                landed[sent] = arrived[head:]
                sent = sent.copy()
                sent[sent] = ~lost[head:]
            sending = sent
        else:
            hops[finished] += 1
            if faults is None and rounds > max_hops:
                # Each round adds at most one hop per lookup, so no budget
                # can run out before the round counter passes it.
                late = hops[advancing] >= max_hops
                if sending is not None:
                    late &= sending
                if late.any():
                    failure[advancing[late]] = _HOP_BUDGET
                    hops[advancing[late]] += 1
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
        if landed is None:
            moved = advancing
            cur[moved] = dest
        else:
            moved = advancing[landed]
            cur[moved] = dest[landed]
        if stay is not None:
            # A timeout excludes the finger, or (no finger hit) the successor.
            exclude(advancing[stay], np.where(hit, candidate, ids[sa])[stay])
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
    return Lockstep(owner_idx, hops, failure, timeouts, retries)

"""Columnar Chord routing shared by both ring backends.

Both backends hold the overlay as ring-ordered peer identifiers plus a
compressed finger-scan matrix whose entries are *rows* of that order, not
identifiers: :class:`~repro.ring.snapshot.RingSnapshot` derives them from
node pointers churn may leave stale (its rows also rank the departed peers
a finger still names), :class:`~repro.ring.compact.CompactRing` builds
them for the stabilized ring.  :func:`compress_scan` builds that matrix
and :func:`route_lockstep` routes lookup batches over it, hop for hop as
:func:`repro.ring.routing.route_to_key` does — or, given a fault plane's
rows, as the policy router behind
:func:`repro.ring.routing.route_with_policy` does, successor-list
failover included.  The kernel finishes every lookup it is given.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Optional, TypeVar

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

_Entry = TypeVar("_Entry", np.uint64, np.int32)
_Sortable = TypeVar("_Sortable", np.uint64, np.int64)


def exact_fingers(
    ids: NDArray[np.uint64], rows: slice, bits: int, first: int = 0
) -> NDArray[np.int64]:
    """Stabilized fingers ``first..bits-1`` of the peers ``ids[rows]`` as rows of ``ids``.

    The result has shape ``(rows, bits - first)``.  Finger ``k`` of peer
    ``p`` is the owner of ``(p + 2^k) mod 2^bits``, which is ``p``'s
    successor whenever ``2^k`` is at most the gap from ``p`` to it.  So
    every finger starts as the successor, and level ``k`` searches the
    sorted ids only for the rows whose gap is below ``2^k``: on a random
    ring of n peers the levels below ``log2(2^bits / n)`` search almost
    nothing.  A lone peer's gap wraps to 0, so it searches every level.
    """
    n = ids.size
    own = np.arange(*rows.indices(n))
    succ = own + 1
    succ[succ == n] = 0
    mask = np.uint64((1 << bits) - 1)
    base = ids[own]
    gap = (ids[succ] - base) & mask
    # Level-major, so that each level writes one contiguous row.
    fingers = np.empty((bits - first, own.size), dtype=np.int64)
    for k, level in zip(range(first, bits), fingers):
        power = np.uint64(1 << k)
        far = np.flatnonzero(gap < power)
        level[:] = succ
        found = np.searchsorted(ids, (base[far] + power) & mask)
        found[found == n] = 0
        level[far] = found
    return fingers.T


def _sorted_unique(values: NDArray[_Sortable]) -> NDArray[_Sortable]:
    """``np.unique`` of a 1-D integer array, by sorting and masking repeats.

    The result equals ``np.unique``'s, whose hash path is tens of times
    slower than a sort on ``int64``/``uint64`` keys.
    """
    ordered = np.sort(values)
    if ordered.size < 2:
        return ordered
    fresh = np.empty(ordered.size, dtype=bool)
    fresh[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
    return ordered[fresh]


def compress_scan(
    own: NDArray[_Entry],
    blocks: Iterable[tuple[NDArray[np.generic], Optional[NDArray[np.bool_]]]],
) -> NDArray[_Entry]:
    """The compressed finger-scan matrix of finger tables, in ``own``'s dtype.

    ``own`` holds each row's own entry (its row, or its identifier), and
    ``blocks`` yields consecutive row blocks of the ``(rows, bits)`` finger
    matrix in the same terms with their validity mask (``None``: all
    valid).  A row holds ~log2(n) distinct fingers in consecutive runs, and
    routing only asks "highest column inside an arc", so each run collapses
    to its highest column: an entry is dropped when the next column is
    valid and equal (stale tables under churn at worst keep duplicates,
    never lose a value).  Invalid fingers are dropped.  Rows are stored
    highest column first, so the highest in-arc column is the first
    in-arc entry: the kept entries are right-aligned in reverse column
    order, and rows pad on the left to the common width with the row's
    own entry, which fails every strict in-arc test.
    """
    kept_blocks: list[tuple[NDArray[_Entry], NDArray[np.int64]]] = []
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


class RingPointers(NamedTuple):
    """Per-row neighbour pointers of a possibly unmaintained ring.

    Rows are those of the routing view's identifiers: every live peer and
    every departed peer a finger still names, in ring order, so that each
    arc test on rows orders departed fingers exactly as their identifiers.
    ``live`` marks the live rows and ``live_rows`` lists them in ring
    order (row ``live_rows[i]`` is the ``i``-th live peer).

    ``succ_idx`` is each live row's resolved live successor: the primary
    pointer if it is live and no self-loop, else the first such entry of
    the successor list, else the next live row (the oracle repair).
    ``succ_rows`` holds the rows of the primary pointer followed by the
    successor list, -1 where an entry is departed, absent or the peer
    itself, and last the next live row: the failover order for a lookup
    that timed out the resolved successor.  ``pred_idx`` is the row of
    each predecessor pointer; ``pred_live`` marks those set and live.
    """

    live: NDArray[np.bool_]
    live_rows: NDArray[np.int64]
    succ_idx: NDArray[np.int64]
    succ_rows: NDArray[np.int64]
    pred_idx: NDArray[np.int64]
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
    """A fault plane's structural state per routing-view row.

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
    scan: NDArray[np.int32],
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

    ``ids`` are the sorted identifiers the rows of ``scan``, ``entries``,
    ``pointers``, ``faults`` and the returned owners index.  Per lookup:
    the entry shortcuts (own id, or a live predecessor preceding the key),
    then per round either the termination test against the successor and
    the final delivery, or a send to the highest-column in-arc finger,
    else the successor.  Every lookup ends answered or failed.

    Every arc test compares clockwise row offsets from the current row,
    ``off(r) = (r - cur - 1) mod len(ids)``: each key's position, the first
    row at or after it, is found once per batch; a finger is in the arc
    iff ``off(finger) < off(position)``, and the lookup ends iff
    ``off(position) <= off(successor)``.  A row stands for its identifier
    exactly, so these are the identifier tests of the reference routers.

    Without ``faults`` this is :func:`repro.ring.routing.route_to_key`: a
    send to a departed finger (a row ``pointers.live`` does not mark)
    costs its attempts and one timeout, and the lookup rescans at the same
    node without it.  Exclusions last while the lookup stays at that node.
    With ``faults`` it is the policy router behind
    :func:`repro.ring.routing.route_with_policy`: a stalled entry fails
    the lookup, a stalled owner fails it after one hop, a stalled,
    departed or cross-partition finger costs one timed-out hop and stays
    excluded for the rest of the route, and a lookup left with no finger
    and no successor it has not timed out fails ``"stuck"`` (under a
    partition, ``"partitioned"``).

    The successor is each row's resolved live successor
    (:class:`RingPointers`) until the lookup times it out; then the
    successor list is its failover, in order, and past the list the next
    live row.  ``sends`` makes delivery lossy: each round draws every
    send's attempt count in one vector, and a send that runs out of
    ``max_attempts`` excludes its finger (or fails the lookup at the
    owner).  ``max_hops`` bounds each lookup as its reference router
    does; a lookup over it fails ``"hop_budget"``.

    ``pointers=None`` is the stabilized ring: neighbours are row rolls,
    every row is a live peer, and there is no successor list to fail over
    to.  ``traffic``, when given, counts every hop to a live peer.
    """
    count = keys.size
    m = ids.size
    cur = entries.astype(np.int64, copy=True)
    position = np.searchsorted(ids, keys) % m
    hops = np.zeros(count, dtype=np.int64)
    timeouts = np.zeros(count, dtype=np.int64)
    retries = np.zeros(count, dtype=np.int64)
    owner_idx = np.full(count, -1, dtype=np.int64)
    failure = np.zeros(count, dtype=np.int8)
    settled = np.zeros(count, dtype=bool)
    excluded = np.zeros((count, 1), dtype=np.int64)
    n_excluded = np.zeros(count, dtype=np.int64)
    lossy = sends is not None and sends.loss_rate > 0.0
    cap = None if sends is None else sends.max_attempts
    # Only a lost send or a fault can time out a live peer.
    excluding_live = sends is not None or faults is not None
    excluding = False
    stranded_code = _STUCK if faults is None or faults.arc is None else _PARTITIONED

    def successors(rows: NDArray[np.int64]) -> NDArray[np.int64]:
        """The resolved live successors of ``rows``."""
        return (rows + 1) % m if pointers is None else pointers.succ_idx[rows]

    def exclusions(
        probes: NDArray[np.int64],
        rows_of: Callable[[NDArray[np.int64]], NDArray[np.int64]],
        width: int,
    ) -> NDArray[np.bool_]:
        """Which of ``width`` rows per probe it has excluded.

        ``rows_of(sub)`` gives the rows of the probes at positions ``sub``;
        it is only asked for probes with exclusions.
        """
        out = np.zeros((probes.size, width), dtype=bool)
        sub = np.flatnonzero(n_excluded[probes])
        if sub.size:
            lists = excluded[probes[sub]]
            out[sub] = (rows_of(sub)[:, :, None] == lists[:, None, :]).any(axis=2)
        return out

    def exclude(probes: NDArray[np.int64], rows: NDArray[np.int64]) -> None:
        """Time out ``rows`` for ``probes``: one timeout each, skipped from now on.

        A probe's unused slots repeat an excluded row, so membership
        tests need no count mask.
        """
        nonlocal excluded, excluding
        if not probes.size:
            return
        slot = n_excluded[probes]
        if int(slot.max()) >= excluded.shape[1]:
            excluded = np.concatenate((excluded, excluded), axis=1)
        first = slot == 0
        excluded[probes[first]] = rows[first, None]
        excluded[probes, slot] = rows
        n_excluded[probes] += 1
        timeouts[probes] += 1
        excluding = True

    def failover(
        probes: NDArray[np.int64], rows: NDArray[np.int64]
    ) -> tuple[NDArray[np.int64], NDArray[np.bool_]]:
        """Successors for lookups that timed out the resolved one at ``rows``.

        The first successor-list entry each has not timed out, else the
        next live row; the mask marks those that timed that out too.
        """
        listed = ((rows + 1) % m)[:, None] if pointers is None else pointers.succ_rows[rows]
        usable = (listed >= 0) & ~exclusions(probes, lambda sub: listed[sub], listed.shape[1])
        first = listed[np.arange(rows.size), np.argmax(usable, axis=1)]
        stranded = ~usable.any(axis=1)
        return np.where(stranded, listed[:, -1], first), stranded

    # The entry owns the key if it is the key, or if its live predecessor
    # precedes the key: the key in (pred, entry], the whole ring when the
    # predecessor is the entry itself.
    done = keys == ids[cur]
    pred = (cur - 1) % m if pointers is None else pointers.pred_idx[cur]
    shortcut = ~done & ((position - pred - 1) % m <= (cur - pred - 1) % m)
    if pointers is not None:
        shortcut &= pointers.pred_live[cur]
    done |= shortcut
    # A lone live peer is its own successor: it owns every key.
    done |= successors(cur) == cur
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
        si = successors(ci)
        # Which fingers, and whether the successor, each lookup timed out.
        hidden: Optional[NDArray[np.bool_]] = None
        stranded: Optional[NDArray[np.bool_]] = None
        if excluding:
            hidden = exclusions(
                active,
                lambda sub: np.concatenate((scan[ci[sub]], si[sub, None]), axis=1),
                scan.shape[1] + 1,
            )
            gone = hidden[:, -1]
            if excluding_live and gone.any():
                si[gone], stranded_gone = failover(active[gone], ci[gone])
                stranded = np.zeros(active.size, dtype=bool)
                stranded[gone] = stranded_gone
        after = ci + 1
        reach = (position[active] - after) % m  # off(position)
        terminal = reach <= (si - after) % m
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
        span = reach[going]
        nowhere = None if stranded is None else stranded[going]
        skipped = None if hidden is None else hidden[going, :-1]
        if faults is not None:
            over = hops[advancing] > max_hops
            if over.any():
                failure[advancing[over]] = _HOP_BUDGET
                advancing, ca, sa, span = advancing[~over], ca[~over], sa[~over], span[~over]
                nowhere = None if nowhere is None else nowhere[~over]
                skipped = None if skipped is None else skipped[~over]
        # In the open arc (current, key), the whole ring but the current
        # node when the key is its own id: off(finger) < off(position),
        # tested without a modulo as rows [after, after + span) and, past
        # the top row, [0, after + span - m).
        fingers = scan[ca]
        after = (ca + 1).astype(np.int32)
        in_arc = (fingers - after[:, None]).view(np.uint32) < span.astype(np.uint32)[:, None]
        in_arc |= fingers < (after + span - m).astype(np.int32)[:, None]
        if skipped is not None:
            in_arc &= ~skipped
        first = np.argmax(in_arc, axis=1)
        lanes = np.arange(ca.size)
        hit = in_arc[lanes, first]
        dest = np.where(hit, fingers[lanes, first], sa)
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
        # A departed finger (the successor is live).
        dead: Optional[NDArray[np.bool_]] = None
        if pointers is not None:
            dead = ~pointers.live[dest]
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
            exclude(advancing[stay], dest[stay])
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

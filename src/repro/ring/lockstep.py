"""Columnar Chord routing shared by both ring backends.

Both backends hold the overlay as ring-ordered peer identifiers plus a
compressed finger-scan matrix: :class:`~repro.ring.snapshot.RingSnapshot`
derives them from node pointers churn may leave stale,
:class:`~repro.ring.compact.CompactRing` builds them for the stabilized
ring.  :func:`compress_scan` builds that matrix and :func:`route_lockstep`
routes lookup batches over it, hop for hop as
:func:`repro.ring.routing.route_to_key` does.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

import numpy as np
from numpy.typing import NDArray

__all__ = ["RingPointers", "compress_scan", "exact_fingers", "route_lockstep"]


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
) -> tuple[NDArray[np.int64], NDArray[np.int64], NDArray[np.bool_], NDArray[np.int64]]:
    """Route lookups from the peers at rows ``entries`` to ``keys`` in lockstep.

    Returns ``(owner_idx, hops, fallback, cur)``.  Per lookup: the entry
    shortcuts (own id, or a live predecessor preceding the key), then per
    hop the termination test against the successor, the highest-column
    in-arc finger, else the successor.  A step towards a departed finger
    (absent from ``ids``) costs one hop and rescans at the same node
    without it — the reference's per-node ``excluded`` set.

    ``pointers=None`` is the stabilized ring: neighbours are index rolls
    and every pointer is live.  A lookup that meets a successor that is not
    plain, exhausts ``max_hops`` or is among the last ``tail_cutoff``
    stops: ``fallback`` marks it (``owner_idx`` -1), ``cur`` is its row and
    ``hops`` its cost before the stay there, for the scalar reference to
    resume.  ``traffic``, when given, counts every hop to a live peer.
    """
    count = keys.size
    n = ids.size
    umask = np.uint64(mask)
    zero = np.uint64(0)
    cur = entries.astype(np.int64, copy=True)
    hops = np.zeros(count, dtype=np.int64)
    owner_idx = np.full(count, -1, dtype=np.int64)
    fallback = np.zeros(count, dtype=bool)
    # Timed-out fingers per stuck lookup at its current node; the reference
    # rebuilds its exclusion set at every node, so an entry is dropped the
    # moment its lookup advances.
    excl_map: dict[int, list[int]] = {}

    def hand_off(rows: NDArray[np.int64]) -> None:
        for probe in rows.tolist():
            hops[probe] -= len(excl_map.pop(probe, ()))
        fallback[rows] = True

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
    owner_idx[done] = cur[done]

    active = np.flatnonzero(~done)
    rounds = 0
    while active.size:
        rounds += 1
        if active.size <= tail_cutoff:
            # A vectorized step costs the same whether it advances sixty
            # lookups or three, so the few stragglers go to the scalar loop.
            hand_off(active)
            break
        if rounds > max_hops:
            # Each round adds at most one hop per lookup, so no budget can
            # run out before the round counter passes it.
            over = hops[active] >= max_hops
            hand_off(active[over])
            active = active[~over]
        ci = cur[active]
        if pointers is None:
            si = (ci + 1) % n
        else:
            plain = pointers.succ_plain[ci]
            if not plain.all():
                fallback[active[~plain]] = True
                active = active[plain]
                ci = ci[plain]
                if not active.size:
                    break
            si = pointers.succ_idx[ci]
        ci_ids = ids[ci]
        terminal = ((keys[active] - ci_ids) & umask) <= ((ids[si] - ci_ids) & umask)
        finished = active[terminal]
        if finished.size:
            owner_idx[finished] = si[terminal]
            hops[finished] += 1  # the final delivery hop
            if traffic is not None:
                np.add.at(traffic, si[terminal], 1)
        going = ~terminal
        advancing = active[going]
        if not advancing.size:
            break
        ca = ci[going]
        ca_ids = ci_ids[going]
        rows = scan[ca]
        finger_dist = (rows - ca_ids[:, None]) & umask
        in_arc = (finger_dist > zero) & (
            finger_dist < ((keys[advancing] - ca_ids) & umask)[:, None]
        )
        if excl_map:
            # ``advancing`` stays sorted through every boolean filter, so a
            # stuck lookup's row is one bisection away.
            for probe, excluded_ids in excl_map.items():
                row = int(np.searchsorted(advancing, probe))
                if row < advancing.size and advancing[row] == probe:
                    for excluded in excluded_ids:
                        in_arc[row] &= rows[row] != excluded
        hit = in_arc.any(axis=1)
        first_rev = in_arc.shape[1] - 1 - np.argmax(in_arc[:, ::-1], axis=1)
        candidate = scan[ca, first_rev]
        cand_idx = np.where(hit, np.searchsorted(ids, candidate), si[going])
        moved = advancing
        if pointers is not None:
            # A departed finger is absent from ``ids``: one timed-out hop,
            # then a rescan at the same node without it.
            np.minimum(cand_idx, n - 1, out=cand_idx)
            dead = hit & (ids[cand_idx] != candidate)
            if dead.any():
                stuck = advancing[dead]
                hops[stuck] += 1
                for probe, excluded in zip(stuck.tolist(), candidate[dead].tolist()):
                    excl_map.setdefault(probe, []).append(excluded)
                moved = advancing[~dead]
                cand_idx = cand_idx[~dead]
        hops[moved] += 1
        cur[moved] = cand_idx
        if traffic is not None:
            np.add.at(traffic, cand_idx, 1)
        if excl_map:
            for probe in moved.tolist():
                excl_map.pop(probe, None)
        active = advancing
    return owner_idx, hops, fallback, cur

"""The ring snapshot plane: structure-of-arrays views of the live network.

Estimation-side consumers (ground-truth CDFs, gossip base synopses, the
random-walk overlay graph, the batch app APIs) repeatedly ask the network
global questions — "all values, sorted", "per-peer loads", "who owns these
keys" — that the object graph answers only by walking every peer.  Under
churn those walks dominate wall time: every round invalidates the caches
and the next estimate rebuilds identical arrays from scratch.

:class:`RingSnapshot` fixes this by maintaining *one* frozen columnar view
of the network:

* ``ids`` — sorted live peer identifiers (``uint64``),
* ``counts`` / ``cum_counts`` — per-peer item counts and their prefix sums,
* ``values`` — every stored item packed per peer in ring order (peer
  ``i`` owns ``values[cum_counts[i]:cum_counts[i+1]]``),
* ``sorted_values`` — the same multiset globally sorted (the ground truth
  dataset),
* the routing view — the compressed finger-scan matrix of rows plus
  successor and predecessor rows, over the live ids and the departed ids
  fingers still name, with a liveness mask — gathered from the network's
  overlay-table columns at the live peers' slots in ring order (lazy;
  keyed on the overlay token).

The snapshot is keyed on ``(topology_version, data_version)`` and is
**updated incrementally**: the network records which stores mutated
(``RingNetwork._dirty_stores``) and the refresh diffs membership against
the previous snapshot, so a churn round that touched ``k`` peers costs
O(k · chunk + n) instead of a full O(total · log total) rebuild.  Equal
floats are indistinguishable, so the incrementally maintained
``sorted_values`` is byte-identical to a from-scratch sort — the snapshot
is a pure view and never a second source of truth.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, TypeVar

import numpy as np
from numpy.typing import NDArray

from repro.ring.lockstep import RingPointers, _sorted_unique, compress_scan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (network imports us)
    from repro.ring.network import RingNetwork

__all__ = ["RingSnapshot"]

_EMPTY_F = np.empty(0, dtype=float)
_EMPTY_U = np.empty(0, dtype=np.uint64)
_EMPTY_I = np.empty(0, dtype=np.int64)

# Above this fraction of churned items per refresh the incremental
# delete-and-merge stops paying off and one full sort of the packed pool
# is cheaper (and trivially equal, since both produce the sorted multiset).
_FULL_REBUILD_FRACTION = 0.5

# Peers per block when the routing view compresses the finger columns, so
# no second full ``(n, bits)`` matrix is held to build it.
_FINGER_BLOCK = 2048


_Cell = TypeVar("_Cell", bound=np.generic)


def _spread(
    values: NDArray[_Cell], rows: NDArray[np.int64], size: int, fill: object
) -> NDArray[_Cell]:
    """``values`` placed at ``rows`` of a ``size``-row array, ``fill`` elsewhere."""
    out = np.empty((size,) + values.shape[1:], dtype=values.dtype)
    out[...] = fill
    out[rows] = values
    return out


class RingSnapshot:
    """Incrementally maintained structure-of-arrays view of a network.

    Obtain via :meth:`RingNetwork.snapshot`, which refreshes lazily; all
    exposed arrays are caches shared across callers — treat them as
    read-only.
    """

    def __init__(self, network: "RingNetwork") -> None:
        self._network = network
        self._token: Optional[tuple[int, int]] = None
        self._ids: NDArray[np.uint64] = _EMPTY_U
        # Per-peer value chunk as of the last refresh.  Store arrays are
        # never mutated in place (mutations rebind a fresh array), so
        # holding the old object preserves the pre-delta contents needed to
        # subtract a changed peer's items from the sorted pool.
        self._chunks: dict[int, NDArray[np.float64]] = {}
        self._counts: NDArray[np.int64] = _EMPTY_I
        self._cum_counts: NDArray[np.int64] = np.zeros(1, dtype=np.int64)
        self._values: NDArray[np.float64] = _EMPTY_F
        self._sorted_values: NDArray[np.float64] = _EMPTY_F
        # Overlay-pointer views, keyed on topology_version alone (pointer
        # maintenance advances it without touching the data plane).
        self._overlay_token: Optional[int] = None
        self._successors: NDArray[np.uint64] = _EMPTY_U
        self._predecessors: NDArray[np.uint64] = _EMPTY_U
        self._predecessor_valid: NDArray[np.bool_] = np.empty(0, dtype=bool)
        self._adjacency: Optional[dict[int, list[int]]] = None
        self._overlay_ids: NDArray[np.uint64] = _EMPTY_U
        self._overlay_slots: NDArray[np.int64] = _EMPTY_I
        # Routing view (row identifiers, scan matrix, resolved pointers),
        # derived lazily.
        self._routing: Optional[
            tuple[NDArray[np.uint64], NDArray[np.int32], RingPointers]
        ] = None

    # ------------------------------------------------------------------
    # Data-plane views
    # ------------------------------------------------------------------
    @property
    def version_token(self) -> Optional[tuple[int, int]]:
        """The ``(topology_version, data_version)`` this view reflects.

        ``None`` before the first refresh.  Downstream epoch-keyed caches
        (the serving layer's result cache, app-level model caches) compare
        this against :attr:`RingNetwork.version_token` to decide whether
        derived state built from the snapshot is still current.
        """
        return self._token

    @property
    def ids(self) -> NDArray[np.uint64]:
        """Sorted live peer identifiers (``uint64``)."""
        return self._ids

    @property
    def counts(self) -> NDArray[np.int64]:
        """Per-peer item counts in ring order (``int64``)."""
        return self._counts

    @property
    def cum_counts(self) -> NDArray[np.int64]:
        """Prefix sums of :attr:`counts`, length ``n_peers + 1``: peer ``i``
        owns ``values[cum_counts[i]:cum_counts[i+1]]``."""
        return self._cum_counts

    @property
    def values(self) -> NDArray[np.float64]:
        """All stored items packed per peer in ring order."""
        return self._values

    @property
    def sorted_values(self) -> NDArray[np.float64]:
        """Every stored value globally sorted (the ground-truth dataset)."""
        return self._sorted_values

    @property
    def total_count(self) -> int:
        """Total items across all live peers."""
        return int(self._cum_counts[-1])

    def chunk(self, ident: int) -> NDArray[np.float64]:
        """One peer's sorted values as of this snapshot."""
        return self._chunks[ident]

    # ------------------------------------------------------------------
    # Refresh machinery
    # ------------------------------------------------------------------
    def refresh(self) -> "RingSnapshot":
        """Bring the view up to date with the live network (lazy, cheap).

        A clean token is a tuple compare; a dirty one applies the recorded
        churn delta, falling back to a full rebuild only on first use or
        bulk turnover.
        """
        network = self._network
        token = (network.topology_version, network.data_version)
        if token == self._token:
            return self
        if self._token is None:
            self._rebuild()
        else:
            self._apply_delta()
        self._token = token
        network._dirty_stores.clear()
        return self

    def _rebuild(self) -> None:
        """Construct every data-plane array from scratch."""
        network = self._network
        ids = network.sorted_ids_array()
        nodes = network._nodes
        chunks: dict[int, NDArray[np.float64]] = {}
        for ident in ids.tolist():
            store = nodes[ident].store
            chunks[ident] = store.as_array()
            store._armed = True
        self._ids = ids
        self._chunks = chunks
        self._repack()
        self._sorted_values = np.sort(self._values) if self._values.size else _EMPTY_F

    def _repack(self) -> None:
        """Rebuild counts/prefix sums/packed values from the chunk table.

        This is pure memcpy over the cached per-peer arrays — O(total
        items) with a tiny constant — so it runs on every refresh; only the
        global *sort* is worth maintaining incrementally.
        """
        ids = self._ids
        chunk_list = [self._chunks[int(ident)] for ident in ids]
        counts = np.fromiter((c.size for c in chunk_list), dtype=np.int64, count=len(chunk_list))
        self._counts = counts
        self._cum_counts = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(counts)))
        self._values = np.concatenate(chunk_list) if chunk_list else _EMPTY_F

    def _apply_delta(self) -> None:
        """Update the view from the churn delta since the last refresh.

        Membership changes come from diffing the previous id array against
        the registry; content changes come from the network's dirty-store
        set.  Removed items are deleted from the sorted pool by position
        (searchsorted plus per-value occurrence rank handles duplicates);
        incoming items are merged in with one vectorized ``insert``.
        """
        network = self._network
        nodes = network._nodes
        old_ids = self._ids
        new_ids = network.sorted_ids_array()

        gone = old_ids[~np.isin(old_ids, new_ids, assume_unique=True)]
        came = new_ids[~np.isin(new_ids, old_ids, assume_unique=True)]
        came_set = {int(i) for i in came}
        dirty_kept = sorted(
            ident
            for ident in network._dirty_stores
            if ident in nodes and ident not in came_set
        )

        removed_arrays: list[NDArray[np.float64]] = []
        added_arrays: list[NDArray[np.float64]] = []
        chunks = self._chunks
        for ident in gone.tolist():
            old_chunk = chunks.pop(ident)
            if old_chunk.size:
                removed_arrays.append(old_chunk)
        for ident in dirty_kept:
            old_chunk = chunks[ident]
            if old_chunk.size:
                removed_arrays.append(old_chunk)
            store = nodes[ident].store
            new_chunk = store.as_array()
            chunks[ident] = new_chunk
            store._armed = True
            if new_chunk.size:
                added_arrays.append(new_chunk)
        for ident in came.tolist():
            store = nodes[ident].store
            new_chunk = store.as_array()
            chunks[ident] = new_chunk
            store._armed = True
            if new_chunk.size:
                added_arrays.append(new_chunk)

        self._ids = new_ids
        self._repack()

        removed_total = sum(a.size for a in removed_arrays)
        added_total = sum(a.size for a in added_arrays)
        if removed_total == 0 and added_total == 0:
            return
        if removed_total + added_total > _FULL_REBUILD_FRACTION * max(self._values.size, 1):
            self._sorted_values = np.sort(self._values) if self._values.size else _EMPTY_F
            return

        pool = self._sorted_values
        if removed_total:
            removed = np.sort(np.concatenate(removed_arrays))
            # Position of the j-th copy of each removed value: first
            # occurrence in the pool plus the copy's rank among its equals.
            first = np.searchsorted(pool, removed, side="left")
            rank = np.arange(removed.size) - np.searchsorted(removed, removed, side="left")
            pool = np.delete(pool, first + rank)
        if added_total:
            added = np.sort(np.concatenate(added_arrays))
            pool = np.insert(pool, np.searchsorted(pool, added, side="left"), added)
        self._sorted_values = pool

    # ------------------------------------------------------------------
    # Overlay-plane views (lazy; keyed on topology_version)
    # ------------------------------------------------------------------
    def _ensure_overlay(self) -> None:
        network = self._network
        token = network.topology_version
        if self._overlay_token == token:
            return
        table = network._overlay
        slots = network.sorted_slots_array()
        self._successors = table.successor[slots]
        self._predecessors = table.predecessor[slots]
        self._predecessor_valid = table.predecessor_known[slots]
        self._adjacency = None
        self._routing = None
        self._overlay_token = token
        # The overlay views diff membership through sorted_ids_array, so
        # they can serve callers that never touch the data plane; ids may
        # therefore be newer than self._ids until the next data refresh.
        self._overlay_ids = network.sorted_ids_array()
        self._overlay_slots = slots

    def finger_scan_tables(self) -> NDArray[np.int32]:
        """The finger matrix compressed for routing, as :meth:`routing_view` rows."""
        return self.routing_view()[1]

    def routing_view(self) -> tuple[NDArray[np.uint64], NDArray[np.int32], RingPointers]:
        """The identifiers, scan matrix and pointers :func:`route_lockstep` reads.

        Rows rank the sorted union of the live ids and every departed id a
        finger still names (departed peers are unregistered, so a finger
        is departed iff its id is not live), and every arc test on rows is
        then exact: a departed finger and a key in the same live gap keep
        their order.  :class:`RingPointers` marks the live rows.  Each scan
        row (see :func:`compress_scan`) also carries the primary successor
        pointer as its lowest column, since a lookup with no finger inside
        the arc tries it before failing over.  Derived lazily; the next
        overlay rebuild drops it.
        """
        self._ensure_overlay()
        if self._routing is None:
            ids = self._overlay_ids
            slots = self._overlay_slots
            n = ids.size
            table = self._network._overlay
            lengths = table.list_lengths[slots]
            width = 1 + int(lengths.max(initial=0))
            # Primary pointer, then the successor list, padded with the
            # peer's own id (never a usable entry).
            order = np.repeat(ids[:, None], width, axis=1)
            order[:, 0] = self._successors
            listed = np.arange(width - 1) < lengths[:, None]
            order[:, 1:][listed] = table.successor_lists[slots, : width - 1][listed]

            def block(rows: slice) -> tuple[NDArray[np.uint64], NDArray[np.bool_]]:
                """Rows ``rows`` of the finger columns, after the successor column."""
                lead = self._successors[rows, None]
                return (
                    np.concatenate((lead, table.fingers[slots[rows]]), axis=1),
                    np.concatenate(
                        (np.ones(lead.shape, dtype=bool), table.finger_known[slots[rows]]), axis=1
                    ),
                )

            fingers = compress_scan(
                ids, (block(slice(lo, lo + _FINGER_BLOCK)) for lo in range(0, n, _FINGER_BLOCK))
            )
            last = max(n - 1, 0)

            def locate(values: NDArray[np.uint64]) -> tuple[NDArray[np.int64], NDArray[np.bool_]]:
                """Each value's position among the live ids, and whether it is one."""
                at = np.searchsorted(ids, values)
                np.minimum(at, last, out=at)
                return at, ids[at] == values

            # Column by column: a scan column is nearly sorted, which
            # searchsorted runs fastest on.  A finger that is not live has
            # departed and gets a row of its own among the live ones.
            at, known = locate(fingers.T)
            departed = fingers.T[~known]
            row_ids = _sorted_unique(np.concatenate((ids, departed)))
            m = row_ids.size
            own = np.searchsorted(row_ids, ids)
            rows = own[at]
            rows[~known] = np.searchsorted(row_ids, departed)
            at, usable = locate(order)
            usable &= at != np.arange(n)[:, None]
            following = np.roll(own, -1)  # the next live row, the oracle repair
            succ_rows = np.concatenate((np.where(usable, own[at], -1), following[:, None]), axis=1)
            succ_idx = np.where(
                usable.any(axis=1), succ_rows[np.arange(n), np.argmax(usable, axis=1)], following
            )
            at, pred_known = locate(self._predecessors)
            # A departed row is never current: its pointers and scan entries
            # are -1.
            pointers = RingPointers(
                live=_spread(np.ones(n, dtype=bool), own, m, False),
                live_rows=own,
                succ_idx=_spread(succ_idx, own, m, -1),
                succ_rows=_spread(succ_rows, own, m, -1),
                pred_idx=_spread(own[at], own, m, -1),
                pred_live=_spread(self._predecessor_valid & pred_known, own, m, False),
            )
            self._routing = (row_ids, _spread(rows.T.astype(np.int32), own, m, -1), pointers)
        return self._routing

    def adjacency(self) -> dict[int, list[int]]:
        """Symmetrized overlay graph (fingers ∪ ring links ∪ reverses).

        Exactly the mapping :func:`repro.core.baselines.random_walk` used
        to build with per-node set operations — neighbours sorted, dead
        targets dropped — computed here from the finger matrix with
        vectorized index arithmetic.
        """
        self._ensure_overlay()
        if self._adjacency is not None:
            return self._adjacency
        ids = self._overlay_ids
        n = ids.size
        if n == 0:
            self._adjacency = {}
            return self._adjacency
        table = self._network._overlay
        fingers = table.fingers[self._overlay_slots]
        valid = table.finger_known[self._overlay_slots].ravel()
        finger_src = np.repeat(np.arange(n, dtype=np.int64), fingers.shape[1])[valid]
        finger_dst = fingers.ravel()[valid]
        succ_src = np.arange(n, dtype=np.int64)
        pred_src = succ_src[self._predecessor_valid]
        src_idx = np.concatenate((finger_src, succ_src, pred_src))
        dst_vals = np.concatenate(
            (finger_dst, self._successors, self._predecessors[self._predecessor_valid])
        )
        # Keep only edges whose target is a live peer, expressed as an
        # index into the sorted id array; drop self-loops.
        dst_idx = np.searchsorted(ids, dst_vals)
        np.minimum(dst_idx, n - 1, out=dst_idx)
        live = ids[dst_idx] == dst_vals
        src_idx = src_idx[live]
        dst_idx = dst_idx[live]
        keep = src_idx != dst_idx
        src_idx = src_idx[keep]
        dst_idx = dst_idx[keep]
        # Symmetrize and deduplicate in one pass over packed (src, dst)
        # keys; n² fits int64 for any simulated ring.
        keys = _sorted_unique(np.concatenate((src_idx * n + dst_idx, dst_idx * n + src_idx)))
        edge_src = keys // n
        edge_dst = ids[keys % n].tolist()
        boundaries = np.searchsorted(edge_src, np.arange(n + 1, dtype=np.int64))
        adjacency: dict[int, list[int]] = {}
        for index, ident in enumerate(ids.tolist()):
            adjacency[ident] = edge_dst[boundaries[index] : boundaries[index + 1]]
        self._adjacency = adjacency
        return adjacency

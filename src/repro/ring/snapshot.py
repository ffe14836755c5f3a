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
* ``values`` / ``offsets`` — every stored item packed per peer in ring
  order (peer ``i`` owns ``values[offsets[i]:offsets[i+1]]``),
* ``sorted_values`` — the same multiset globally sorted (the ground truth
  dataset),
* the routing view — compressed finger-scan matrix plus successor and
  predecessor rows with liveness — derived from the overlay pointers
  (lazy; keyed on the overlay token).

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

from itertools import chain
from typing import TYPE_CHECKING, Iterator, Optional

import numpy as np
from numpy.typing import NDArray

from repro.ring.lockstep import RingPointers, compress_scan

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

# Peers per block when finger tables are read off the nodes: the routing
# view compresses them block by block, so no full ``(n, bits)`` matrix (nor
# the Python list behind it) is held to build it.
_FINGER_BLOCK = 2048


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
        # The full finger matrix, built on first use (only the overlay
        # graph needs it; routing compresses the tables block by block).
        self._finger_matrix: Optional[NDArray[np.uint64]] = None
        self._finger_valid: Optional[NDArray[np.bool_]] = None
        self._adjacency: Optional[dict[int, list[int]]] = None
        self._overlay_ids: NDArray[np.uint64] = _EMPTY_U
        # Routing view (scan matrix, resolved pointers), derived lazily.
        self._routing: Optional[tuple[NDArray[np.uint64], RingPointers]] = None

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
        """Prefix sums of :attr:`counts`, length ``n_peers + 1``."""
        return self._cum_counts

    @property
    def values(self) -> NDArray[np.float64]:
        """All stored items packed per peer in ring order."""
        return self._values

    @property
    def offsets(self) -> NDArray[np.int64]:
        """Alias of :attr:`cum_counts`: peer ``i`` owns
        ``values[offsets[i]:offsets[i+1]]``."""
        return self._cum_counts

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
            node = nodes[ident]
            chunks[ident] = node.store.as_array()
            network._arm_store(node)
        self._ids = ids
        self._chunks = chunks
        self._repack()
        self._sorted_values = np.sort(self._values) if self._values.size else _EMPTY_F

    def _repack(self) -> None:
        """Rebuild counts/offsets/packed values from the chunk table.

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
            node = nodes[ident]
            new_chunk = node.store.as_array()
            chunks[ident] = new_chunk
            network._arm_store(node)
            if new_chunk.size:
                added_arrays.append(new_chunk)
        for ident in came.tolist():
            node = nodes[ident]
            new_chunk = node.store.as_array()
            chunks[ident] = new_chunk
            network._arm_store(node)
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
        nodes = network._nodes
        ids = network.sorted_ids_array()
        n = ids.size
        successor_list: list[int] = []
        predecessors = np.zeros(n, dtype=np.uint64)
        predecessor_valid = np.zeros(n, dtype=bool)
        for index, ident in enumerate(ids.tolist()):
            node = nodes[ident]
            successor_list.append(node.successor_id)
            pred = node.predecessor_id
            if pred is not None:
                predecessors[index] = pred
                predecessor_valid[index] = True
        self._successors = np.asarray(successor_list, dtype=np.uint64)
        self._predecessors = predecessors
        self._predecessor_valid = predecessor_valid
        self._finger_matrix = None
        self._finger_valid = None
        self._adjacency = None
        self._routing = None
        self._overlay_token = token
        # The overlay views diff membership through sorted_ids_array, so
        # they can serve callers that never touch the data plane; ids may
        # therefore be newer than self._ids until the next data refresh.
        self._overlay_ids = ids

    def _finger_blocks(
        self, lead: Optional[NDArray[np.uint64]] = None
    ) -> Iterator[tuple[NDArray[np.uint64], NDArray[np.bool_]]]:
        """The overlay's finger tables in row blocks, with validity masks.

        ``lead``, when given, is one more (valid) column per row, placed
        before the fingers.
        """
        nodes = self._network._nodes
        bits = self._network.space.bits
        ids = self._overlay_ids.tolist()
        for start in range(0, len(ids), _FINGER_BLOCK):
            rows = [nodes[ident]._fingers for ident in ids[start : start + _FINGER_BLOCK]]
            # Rows containing a broken (None) finger are rare outside heavy
            # churn, so the common row extends the flat list at C speed and
            # the validity mask starts all-True with per-row patches.
            flat: list[int] = []
            none_rows: list[int] = []
            for index, row in enumerate(rows):
                if None in row:
                    none_rows.append(index)
                    flat.extend(0 if f is None else f for f in row)
                else:
                    flat.extend(row)
            fingers = np.asarray(flat, dtype=np.uint64).reshape(len(rows), bits)
            valid = np.ones(fingers.shape, dtype=bool)
            for index in none_rows:
                valid[index] = [f is not None for f in rows[index]]
            if lead is not None:
                first = lead[start : start + len(rows), None]
                fingers = np.concatenate((first, fingers), axis=1)
                valid = np.concatenate((np.ones(first.shape, dtype=bool), valid), axis=1)
            yield fingers, valid

    def _finger_tables(self) -> tuple[NDArray[np.uint64], NDArray[np.bool_]]:
        """The full ``(n, bits)`` finger matrix and its validity mask."""
        self._ensure_overlay()
        fingers, valid = self._finger_matrix, self._finger_valid
        if fingers is None or valid is None:
            bits = self._network.space.bits
            blocks = list(self._finger_blocks())
            fingers = np.concatenate([f for f, _ in blocks] or [_EMPTY_U.reshape(0, bits)])
            valid = np.concatenate([v for _, v in blocks] or [np.empty((0, bits), dtype=bool)])
            self._finger_matrix, self._finger_valid = fingers, valid
        return fingers, valid

    def finger_scan_tables(self) -> NDArray[np.uint64]:
        """The finger matrix compressed for routing (see :func:`compress_scan`)."""
        return self.routing_view()[0]

    def routing_view(self) -> tuple[NDArray[np.uint64], RingPointers]:
        """The scan matrix and resolved pointers :func:`route_lockstep` reads.

        A pointer is live iff it appears in the sorted live-id array
        (departed peers are unregistered), and its row index doubles as the
        hop destination.  Each scan row also carries the primary successor
        pointer as its lowest column, since a lookup with no finger inside
        the arc tries it before failing over.  Derived lazily; the next
        overlay rebuild drops it.
        """
        self._ensure_overlay()
        if self._routing is None:
            ids = self._overlay_ids
            n = ids.size
            last = max(n - 1, 0)
            nodes = self._network._nodes
            lists = [nodes[ident].successor_list for ident in ids.tolist()]
            width = 1 + max(map(len, lists), default=0)
            # Primary pointer, then the successor list, padded with the
            # peer's own id (never a usable entry).
            order = np.repeat(ids[:, None], width, axis=1)
            order[:, 0] = self._successors
            lengths = np.fromiter(map(len, lists), dtype=np.int64, count=n)
            listed = order[:, 1:]
            listed[np.arange(width - 1) < lengths[:, None]] = np.fromiter(
                chain.from_iterable(lists), dtype=np.uint64, count=int(lengths.sum())
            )
            rows = np.minimum(np.searchsorted(ids, order), last)
            own = np.arange(n, dtype=np.int64)
            usable = (ids[rows] == order) & (rows != own[:, None])
            succ_rows = np.where(usable, rows, -1).astype(np.int64, copy=False)
            succ_idx = np.where(
                usable.any(axis=1),
                succ_rows[own, np.argmax(usable, axis=1)],
                (own + 1) % max(n, 1),
            )
            pred_idx = np.minimum(np.searchsorted(ids, self._predecessors), last)
            pointers = RingPointers(
                succ_idx=succ_idx,
                succ_rows=succ_rows,
                pred_ids=self._predecessors,
                pred_live=self._predecessor_valid & (ids[pred_idx] == self._predecessors),
            )
            scan = compress_scan(ids, self._finger_blocks(lead=self._successors))
            self._routing = (scan, pointers)
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
        fingers, valid_rows = self._finger_tables()
        valid = valid_rows.ravel()
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
        keys = np.unique(
            np.concatenate((src_idx * n + dst_idx, dst_idx * n + src_idx))
        )
        edge_src = keys // n
        edge_dst = ids[keys % n].tolist()
        boundaries = np.searchsorted(edge_src, np.arange(n + 1, dtype=np.int64))
        adjacency: dict[int, list[int]] = {}
        for index, ident in enumerate(ids.tolist()):
            adjacency[ident] = edge_dst[boundaries[index] : boundaries[index + 1]]
        self._adjacency = adjacency
        return adjacency

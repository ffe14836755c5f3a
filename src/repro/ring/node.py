"""Peer node state.

A :class:`PeerNode` is deliberately thin: identifier, a local store, and
one row of an :class:`OverlayTable`, which holds its overlay pointers
(predecessor, successor, finger table, successor list).  Protocol logic
(routing, join/leave, stabilization) lives in :mod:`repro.ring.routing` and
:mod:`repro.ring.chord`; estimation logic never reaches into a node beyond
the public accessors here, mirroring what a real peer would expose over RPC.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.ring.identifier import IdentifierSpace, RingInterval
from repro.ring.storage import LocalStore

__all__ = ["OverlayTable", "PeerNode", "SUCCESSOR_LIST_LENGTH"]

_NO_EXCLUSIONS: frozenset[int] = frozenset()

#: Successor-list length: how many fallback routes stabilization keeps.
SUCCESSOR_LIST_LENGTH = 4

#: The columns of an :class:`OverlayTable`: name -> (row shape, dtype),
#: where ``"bits"`` and ``"list"`` stand for the table's widths.
_COLUMNS: dict[str, tuple[tuple[str, ...], type]] = {
    "fingers": (("bits",), np.uint64),
    "finger_known": (("bits",), np.bool_),
    "successor": ((), np.uint64),
    "predecessor": ((), np.uint64),
    "predecessor_known": ((), np.bool_),
    "successor_lists": (("list",), np.uint64),
    "list_lengths": ((), np.int64),
    "cursor": ((), np.int64),
    "alive": ((), np.bool_),
}


class OverlayTable:
    """The overlay pointers of many peers as columns, one row (*slot*) per peer.

    Columns, all indexed by slot:

    * ``fingers`` ``(slots, bits)`` ``uint64`` with ``finger_known``;
    * ``successor``;
    * ``predecessor`` with ``predecessor_known``;
    * ``successor_lists`` ``(slots, SUCCESSOR_LIST_LENGTH)`` with ``list_lengths``;
    * ``cursor`` — the round-robin finger-repair index;
    * ``alive``.

    An unknown pointer (``None`` on the :class:`PeerNode` accessors) is
    stored as 0 with its known flag cleared.  A network keeps one table
    for all its peers.  A slot is assigned when a peer is created and
    released when it leaves, so a peer keeps its slot while joins shift its
    rank; bulk paths gather the slots of the live peers in rank order.  A
    peer created outside a network has a one-row table of its own until it
    registers.  Writing a pointer column is an overlay mutation: the writer
    advances the network's overlay token
    (:meth:`~repro.ring.network.RingNetwork.note_overlay_change`), as for
    writes through the node accessors.
    """

    def __init__(self, bits: int, capacity: int = 1) -> None:
        self.bits = bits
        self._used = 0  # slots handed out, released ones included
        self._free: list[int] = []
        #: Memoized routing scan order per slot (see
        #: :meth:`PeerNode._finger_scan_order`); a finger write drops it.
        self.scans: dict[int, list[int]] = {}
        self._resize(capacity)

    def _resize(self, capacity: int) -> None:
        """Reallocate every column to ``capacity`` rows, keeping the used ones."""
        used = self._used
        widths = {"bits": self.bits, "list": SUCCESSOR_LIST_LENGTH}
        for name, (shape, dtype) in _COLUMNS.items():
            column = np.zeros((capacity, *(widths[w] for w in shape)), dtype=dtype)
            if used:
                column[:used] = getattr(self, name)[:used]
            setattr(self, name, column)
        # Memoryviews index at C speed to Python ints and bools: the scalar
        # accessors below read through them.
        self._finger_view = memoryview(self.fingers)
        self._known_view = memoryview(self.finger_known)
        self._succ_view = memoryview(self.successor)
        self._pred_view = memoryview(self.predecessor)
        self._pred_known_view = memoryview(self.predecessor_known)
        self._cursor_view = memoryview(self.cursor)
        self._alive_view = memoryview(self.alive)

    def extend(self, idents: Sequence[int]) -> range:
        """Fresh rows for new peers ``idents``, one slot each, in order."""
        start = self._used
        end = start + len(idents)
        if end > self.alive.size:
            self._resize(max(end, 2 * self.alive.size))
        self._used = end
        self.successor[start:end] = idents  # self-loop until joined
        self.alive[start:end] = True
        return range(start, end)

    def allocate(self, ident: int) -> int:
        """A fresh row for one new peer (a released slot when there is one)."""
        if not self._free:
            return self.extend((ident,))[0]
        slot = self._free.pop()
        for name in _COLUMNS:
            getattr(self, name)[slot] = 0
        self.successor[slot] = ident
        self.alive[slot] = True
        return slot

    def release(self, slot: int) -> None:
        """Hand a departed peer's slot back for reuse."""
        self.scans.pop(slot, None)
        self._free.append(slot)

    def copy_row(self, slot: int, source: "OverlayTable", source_slot: int) -> None:
        """Overwrite row ``slot`` with row ``source_slot`` of ``source``."""
        for name in _COLUMNS:
            getattr(self, name)[slot] = getattr(source, name)[source_slot]
        self.scans.pop(slot, None)

    def copy(self) -> "OverlayTable":
        """An independent table with the same rows and free slots."""
        used = self._used
        clone = OverlayTable(self.bits, capacity=max(used, 1))
        for name in _COLUMNS:
            getattr(clone, name)[:used] = getattr(self, name)[:used]
        clone._used = used
        clone._free = list(self._free)
        clone.scans = dict(self.scans)  # scan lists are never mutated in place
        return clone


class PeerNode:
    """One peer in the ring overlay.

    Overlay pointers hold peer *identifiers*, not object references — the
    network layer resolves identifiers to nodes, which keeps stale pointers
    representable (a pointer may name a departed peer until stabilization
    repairs it, exactly as in a real deployment).  They live in row
    ``_slot`` of ``_table`` (see :class:`OverlayTable`); the accessors
    below read and write that row in Python ints.  ``table`` and ``slot``
    place a new node in an existing table: with ``slot`` given, the row is
    taken as already initialized.
    """

    __slots__ = (
        "ident",
        "space",
        "_table",
        "_slot",
        "store",
        "host_id",
        "byzantine",
        "replicas",
        "summary_cache",
    )

    def __init__(
        self,
        ident: int,
        space: IdentifierSpace,
        table: Optional[OverlayTable] = None,
        slot: Optional[int] = None,
    ) -> None:
        space.validate(ident)
        self.ident = ident
        self.space = space
        if table is None:
            table = OverlayTable(space.bits)
        self._table = table
        self._slot = table.allocate(ident) if slot is None else slot
        self.store = LocalStore()
        # Physical host this (possibly virtual) node runs on.  Plain
        # networks use one node per host; virtual-node deployments map
        # several ring nodes to one host id (see RingNetwork.create_virtual).
        self.host_id: int = ident
        # Byzantine behaviour (repro.core.byzantine); None = honest peer.
        self.byzantine = None
        # Replicas held on behalf of other peers: owner ident -> values
        # snapshot (see repro.ring.replication).
        self.replicas: dict[int, tuple[float, ...]] = {}
        # Memoized probe replies, keyed by (buckets, kind) and validated
        # against (store.version, predecessor_id, byzantine) — see
        # repro.core.synopsis.summarize_peer.
        self.summary_cache: dict = {}

    def _move_to(self, table: OverlayTable) -> None:
        """Carry this node's row into ``table``, releasing its current slot."""
        slot = table.allocate(self.ident)
        table.copy_row(slot, self._table, self._slot)
        self._table.release(self._slot)
        self._table, self._slot = table, slot

    # ------------------------------------------------------------------
    # Overlay pointers (row accessors)
    # ------------------------------------------------------------------
    @property
    def successor_id(self) -> int:
        """The successor pointer (the node itself until it has joined)."""
        return self._table._succ_view[self._slot]

    @successor_id.setter
    def successor_id(self, value: int) -> None:
        self._table._succ_view[self._slot] = value

    @property
    def predecessor_id(self) -> Optional[int]:
        """The predecessor pointer; ``None`` while unknown."""
        table = self._table
        if table._pred_known_view[self._slot]:
            return table._pred_view[self._slot]
        return None

    @predecessor_id.setter
    def predecessor_id(self, value: Optional[int]) -> None:
        table = self._table
        table._pred_view[self._slot] = 0 if value is None else value
        table._pred_known_view[self._slot] = value is not None

    @property
    def successor_list(self) -> list[int]:
        """Fallback successors, nearest first (a fresh list per read).

        Kept short (Chord uses O(log N)); refreshed by stabilization.
        """
        table = self._table
        slot = self._slot
        return table.successor_lists[slot, : table.list_lengths[slot]].tolist()

    @successor_list.setter
    def successor_list(self, value: list[int]) -> None:
        table = self._table
        if len(value) > SUCCESSOR_LIST_LENGTH:
            raise ValueError(f"successor list longer than {SUCCESSOR_LIST_LENGTH}")
        table.successor_lists[self._slot, : len(value)] = value
        table.list_lengths[self._slot] = len(value)

    @property
    def next_finger_index(self) -> int:
        """Round-robin cursor for incremental finger repair (fix_fingers)."""
        return self._table._cursor_view[self._slot]

    @next_finger_index.setter
    def next_finger_index(self, value: int) -> None:
        self._table._cursor_view[self._slot] = value

    @property
    def alive(self) -> bool:
        """False once the peer has left or crashed."""
        return self._table._alive_view[self._slot]

    @alive.setter
    def alive(self, value: bool) -> None:
        self._table._alive_view[self._slot] = bool(value)

    # ------------------------------------------------------------------
    # Ownership
    # ------------------------------------------------------------------
    @property
    def interval(self) -> RingInterval:
        """The arc of keys this peer owns: ``(predecessor, self]``.

        A peer that has not learnt its predecessor yet (mid-join) owns the
        full ring by the Chord convention; callers that care should check
        :attr:`predecessor_id` first.
        """
        predecessor_id = self.predecessor_id
        start = predecessor_id if predecessor_id is not None else self.ident
        return RingInterval(self.space, start, self.ident)

    def owns(self, key: int) -> bool:
        """True if ``key`` falls in this peer's ownership arc."""
        return self.interval.contains(key)

    @property
    def segment_length(self) -> int:
        """Length of the ownership arc in identifiers (``ℓ_p``)."""
        return self.interval.length

    @property
    def local_count(self) -> int:
        """Number of locally stored items (``c_p``)."""
        return self.store.count

    # ------------------------------------------------------------------
    # Finger table
    # ------------------------------------------------------------------
    def finger_target(self, k: int) -> int:
        """Ring position the ``k``-th finger should point past."""
        return self.space.finger_target(self.ident, k)

    @property
    def fingers(self) -> list[Optional[int]]:
        """The finger table, ``None`` marking unknown entries (a fresh list
        per read).  Change it through :meth:`set_finger` or by assigning a
        whole list."""
        table = self._table
        row = table.fingers[self._slot].tolist()
        known = table.finger_known[self._slot]
        if known.all():
            return row
        return [f if k else None for f, k in zip(row, known.tolist())]

    @fingers.setter
    def fingers(self, value: Sequence[Optional[int]]) -> None:
        table = self._table
        if len(value) != table.bits:
            raise ValueError(f"finger table needs {table.bits} entries, got {len(value)}")
        table.fingers[self._slot] = [0 if f is None else f for f in value]
        table.finger_known[self._slot] = [f is not None for f in value]
        table.scans.pop(self._slot, None)

    def set_finger(self, k: int, node_id: Optional[int]) -> None:
        """Install the ``k``-th finger (``None`` marks it unknown/broken)."""
        if not 0 <= k < self.space.bits:
            raise IndexError(f"finger index {k} outside [0, {self.space.bits})")
        table = self._table
        table._finger_view[self._slot, k] = 0 if node_id is None else node_id
        table._known_view[self._slot, k] = node_id is not None
        table.scans.pop(self._slot, None)

    def _finger_scan_order(self) -> list[int]:
        """Fingers in routing scan order: reversed, ``None``s and duplicate
        values dropped (a duplicate re-tests the same predicate, so skipping
        it never changes which finger a scan returns).  With ``bits`` well
        above ``log2 N`` most entries collapse, shrinking the per-hop scan
        from ``bits`` to ~``log2 N`` candidates.  Memoized per slot until
        the next finger write."""
        scans = self._table.scans
        scan = scans.get(self._slot)
        if scan is None:
            # dict.fromkeys deduplicates at C speed keeping first
            # occurrence, which in the reversed table is the farthest
            # finger holding each value — the entry the scan must keep.
            scan = [
                finger_id
                for finger_id in dict.fromkeys(reversed(self.fingers))
                if finger_id is not None
            ]
            scans[self._slot] = scan
        return scan

    def closest_preceding_finger(
        self, target: int, excluded: frozenset[int] = _NO_EXCLUSIONS
    ) -> int:
        """Best known hop towards ``target``: the farthest finger that
        precedes it, falling back to the successor, then to self.

        This is the node-local half of Chord's ``find_successor``; it never
        consults global state, so routing cost in the simulator reflects
        what a real overlay would pay.  ``excluded`` lists peers the caller
        has already found unreachable (timed out), so retries after a failed
        hop make progress instead of looping.
        """
        # Inlined modular arithmetic: this runs once per routing hop over up
        # to ``bits`` fingers, so the per-finger cost must stay a couple of
        # integer ops rather than method calls (in_open == two clockwise
        # distances plus an inequality).
        space = self.space
        mask = space.mask
        ident = self.ident
        # target == ident means the open arc is the whole ring minus self.
        reach = (target - ident) & mask or space.size
        for finger_id in self._finger_scan_order():
            if 0 < (finger_id - ident) & mask < reach and finger_id not in excluded:
                return finger_id
        successor_id = self.successor_id
        if (
            successor_id != ident
            and successor_id not in excluded
            and 0 < (successor_id - ident) & mask < reach
        ):
            return successor_id
        return ident

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PeerNode(id={self.ident}, pred={self.predecessor_id}, "
            f"succ={self.successor_id}, items={self.local_count})"
        )

"""Per-peer local data store.

Each peer stores the data items (scalar values) whose ring positions fall in
its ownership interval.  The store keeps items sorted by value, which makes
the operations the estimators need — counts, rank selection, range counts,
and histogram synopses — logarithmic or linear in *local* size only.

The store is deliberately value-oriented: the simulator never needs item
payloads, and keeping bare floats lets a million-item network stay cheap.
Internally the items live in one sorted Python list (O(log n) bisect for
point queries, O(n) memmove for single-item edits — far cheaper than
reallocating a numpy array per mutation, which dominated the drift
experiments), with a lazily materialised ``float64`` array for the bulk
vectorized queries (histograms, range scans).  Every mutation bumps a
monotone :attr:`LocalStore.version` counter that downstream caches (peer
summaries, cached value views, the network snapshot plane) key their
invalidation on, and, while the store is armed, calls its network's
listener so the owning network can advance its global data-version token.
"""

from __future__ import annotations

import bisect
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

__all__ = ["LocalStore"]

_EMPTY = np.empty(0, dtype=float)
_NO_VALUES: tuple[float, ...] = ()


class LocalStore:
    """A sorted multiset of scalar data values held by one peer.

    Attributes
    ----------
    version:
        Monotone mutation counter.  Any operation that changes the stored
        multiset increments it; read-only queries never do.  Caches built
        from the store's contents (e.g. a peer's probe-reply synopsis) are
        valid exactly as long as the version they were built at.
    """

    __slots__ = ("_list", "_array", "_values_tuple", "version", "_listener", "_owner", "_armed")

    def __init__(self, values: Iterable[float] = _NO_VALUES) -> None:
        items: list[float]
        if values is _NO_VALUES:
            items = []
        elif isinstance(values, np.ndarray):
            items = sorted(values.astype(float, copy=False).tolist())
        else:
            items = sorted(float(v) for v in values)
        self._list = items
        self._array: Optional[np.ndarray] = None
        self._values_tuple: Optional[tuple[float, ...]] = None
        self.version: int = 0
        # The owning network's data-change callback, shared by all its
        # stores and called with ``_owner`` (the peer identifier) after a
        # mutation, so global views (the snapshot plane) notice store
        # changes without polling every peer.  It is ONE-SHOT: the first
        # mutation clears ``_armed`` and the owner re-arms the store (the
        # snapshot refresh does this), so a burst of k mutations between
        # refreshes costs one callback, not k — the refresh reads the live
        # store state, which already reflects the whole burst.
        self._listener: Optional[Callable[[int], None]] = None
        self._owner = 0
        self._armed = False

    def _mutated(self) -> None:
        """Invalidate derived caches and advance version after a mutation."""
        self._array = None
        self._values_tuple = None
        self.version += 1
        if self._armed:
            self._armed = False
            self._listener(self._owner)  # type: ignore[misc]

    # ------------------------------------------------------------------
    # Basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._list)

    def __iter__(self) -> Iterator[float]:
        return iter(self._list)

    def __contains__(self, value: float) -> bool:
        items = self._list
        i = bisect.bisect_left(items, value)
        return i < len(items) and items[i] == value

    @property
    def count(self) -> int:
        """Number of items held (the ``c_p`` of the paper's analysis)."""
        return len(self._list)

    def values(self) -> Sequence[float]:
        """Read-only view of the sorted values.

        The tuple is cached and reused until the next mutation, so repeated
        read-only calls (serialization, replication snapshots) are O(1)
        after the first.
        """
        if self._values_tuple is None:
            self._values_tuple = tuple(self._list)
        return self._values_tuple

    def as_array(self) -> np.ndarray:
        """Sorted values as a numpy array.

        The array is materialised lazily and cached until the next
        mutation; treat it as read-only — writing through it would bypass
        :attr:`version` and desynchronise it from the list backing.
        """
        arr = self._array
        if arr is None:
            arr = np.asarray(self._list, dtype=float) if self._list else _EMPTY
            self._array = arr
        return arr

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, value: float) -> None:
        """Insert one item, keeping sort order."""
        bisect.insort_right(self._list, float(value))
        self._mutated()

    def insert_many(self, values: Iterable[float]) -> None:
        """Bulk insert; one merge pass, cheaper than repeated inserts."""
        if isinstance(values, np.ndarray):
            incoming = values.astype(float, copy=False).tolist()
        else:
            incoming = [float(v) for v in values]
        if not incoming:
            return
        # Timsort detects the two sorted runs and merges in linear time.
        self._list.extend(incoming)
        self._list.sort()
        self._mutated()

    def remove(self, value: float) -> bool:
        """Remove one occurrence of ``value``; returns False if absent."""
        items = self._list
        value = float(value)
        i = bisect.bisect_left(items, value)
        if i < len(items) and items[i] == value:
            del items[i]
            self._mutated()
            return True
        return False

    def pop_slice(self, lo: int, hi: int) -> list[float]:
        """Remove and return the items at sorted positions ``[lo, hi)``.

        The data handoff when a joining peer takes over part of an
        interval: the join splice locates the boundaries with one
        ``searchsorted`` over the hashed key array, and removing a
        contiguous slab is one O(n) memmove.  The removed items come back
        sorted.
        """
        items = self._list
        if not 0 <= lo <= hi <= len(items):
            raise IndexError(f"slice [{lo}, {hi}) outside store of size {len(items)}")
        if lo == hi:
            return []
        moved = items[lo:hi]
        del items[lo:hi]
        self._mutated()
        return moved

    def adopt_sorted(self, values: list[float]) -> None:
        """Bulk-bootstrap an *empty* store from an already-sorted list.

        Handoff slabs arrive pre-sorted (they are contiguous slices of
        another store's sorted backing), so a freshly created peer can take
        ownership without the re-sort and per-item float coercion of
        :meth:`insert_many`.  The list is adopted by reference; the caller
        must not keep mutating it.
        """
        if self._list:
            raise ValueError("adopt_sorted requires an empty store")
        if not values:
            return
        self._list = values
        self._mutated()

    def pop_all(self) -> list[float]:
        """Remove and return every item."""
        moved = self._list
        if not moved:
            return []
        self._list = []
        self._mutated()
        return moved

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def rank_of(self, value: float) -> int:
        """Number of stored items strictly less than ``value``."""
        return bisect.bisect_left(self._list, value)

    def values_in_range(self, low: float, high: float) -> list[float]:
        """All items with ``low <= v < high``, in sorted order.

        Two bisections and a slice — equivalent to filtering the full
        store, without visiting the items outside the range.
        """
        items = self._list
        lo = bisect.bisect_left(items, low)
        hi = bisect.bisect_left(items, high)
        return items[lo:hi]

    def kth(self, k: int) -> float:
        """The item of local rank ``k`` (0-indexed, in sorted order).

        This is the peer-local half of network-wide rank selection: once
        rank routing has located the owning peer and the residual rank,
        ``kth`` finishes the inversion.
        """
        if not 0 <= k < len(self._list):
            raise IndexError(f"rank {k} outside [0, {len(self._list)})")
        return self._list[k]

    def min(self) -> float:
        """Smallest stored value."""
        if not self._list:
            raise ValueError("empty store has no minimum")
        return self._list[0]

    def max(self) -> float:
        """Largest stored value."""
        if not self._list:
            raise ValueError("empty store has no maximum")
        return self._list[-1]

    def histogram_range(self, low: float, high: float, buckets: int) -> np.ndarray:
        """Equi-width bucket counts over ``[low, high)``, range-limited.

        Unlike :meth:`histogram`, items outside the range are *excluded*
        rather than clamped — needed when a peer's ownership wraps the ring
        origin and its store spans two disjoint value ranges.
        """
        if buckets < 1:
            raise ValueError(f"buckets must be >= 1, got {buckets}")
        if not low < high:
            raise ValueError(f"empty synopsis range [{low}, {high})")
        items = self._list
        lo = bisect.bisect_left(items, low)
        hi = bisect.bisect_left(items, high)
        if lo == hi:
            return np.zeros(buckets, dtype=np.int64)
        arr = self.as_array()[lo:hi]
        # ``arr >= low`` holds by construction, so the quotient is
        # non-negative and int truncation equals floor; only the upper
        # clamp (float rounding can land exactly on ``buckets``) remains.
        idx = ((arr - low) / (high - low) * buckets).astype(np.int64)
        np.minimum(idx, buckets - 1, out=idx)
        return np.bincount(idx, minlength=buckets).astype(np.int64)

    def histogram(self, low: float, high: float, buckets: int) -> np.ndarray:
        """Equi-width bucket counts of local items over ``[low, high)``.

        This is the constant-size synopsis a peer ships in a probe reply.
        Items outside the range (possible transiently during churn) are
        clamped into the edge buckets so the synopsis total always equals
        the local count.
        """
        if buckets < 1:
            raise ValueError(f"buckets must be >= 1, got {buckets}")
        if not low < high:
            raise ValueError(f"empty synopsis range [{low}, {high})")
        if not self._list:
            return np.zeros(buckets, dtype=np.int64)
        # Truncation stands in for floor: negative quotients (items below
        # ``low``) truncate towards zero but are clamped to bucket 0 either
        # way, and non-negative quotients truncate exactly like floor.
        idx = ((self.as_array() - low) / (high - low) * buckets).astype(np.int64)
        np.maximum(idx, 0, out=idx)
        np.minimum(idx, buckets - 1, out=idx)
        return np.bincount(idx, minlength=buckets).astype(np.int64)

"""Dtype-compacted peer state: million-peer rings as columnar arrays.

One :class:`~repro.ring.node.PeerNode` per peer costs hundreds of bytes of
Python object graph before the first item is stored, which caps the
object-backed simulator around 10^5 peers.  :class:`CompactRing` keeps the
whole ring as a handful of NumPy columns instead — sorted ``uint64``
identifiers, ``int64`` load counts, and the compressed finger-scan matrix
of ``int32`` rows in the exact :class:`~repro.ring.snapshot.RingSnapshot`
layout — so
N=10^6–10^7 rings construct and run full routing and gossip rounds in
bounded memory (tens to a few hundred bytes per peer, reported by
:meth:`CompactRing.memory_report`).

The compact backend models the *stabilized* ring: pointers are exact by
construction (the state :meth:`RingNetwork.rebuild_overlay` produces), and
rounds are batch operations — :meth:`route_batch` advances thousands of
lookups in vectorized lockstep through the routing kernel the object
backend's :func:`repro.ring.routing.route_probes_batch` also runs
(:mod:`repro.ring.lockstep`), and :meth:`gossip_round` runs one push-sum
exchange for every peer at once.  Membership is
seed-identical to the object backend: :meth:`build` consumes the identifier
RNG draws in exactly the order :meth:`RingNetwork.create` consumes them, so
``RingNetwork.create(n, seed=s, compact=True)`` places peers on the same
ring positions as the object network built from the same seed.

Select it with ``RingNetwork.create(..., compact=True)``; the object
backend stays the default and is untouched.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.ring.hashing import OrderPreservingHash
from repro.ring.identifier import IdentifierSpace
from repro.ring.lockstep import _sorted_unique, compress_scan, exact_fingers, route_lockstep
from repro.ring.messages import MessageStats, MessageType

__all__ = ["CompactRing"]

#: Rows per block when building the compressed finger-scan matrix.  The
#: block's finger slab (the levels at and above the ring's smallest gap,
#: 39 of 64 columns at N=10^6) is transient (~20 MB), so the peak build
#: footprint stays far below one uncompressed ``n x bits`` matrix (which
#: alone would be 512 MB at N=10^6).
_SCAN_BLOCK = 65536

#: Values per block when binning a bulk load into the synopsis plane; the
#: per-block temporaries (keys, owner positions, bucket indices) stay a few
#: hundred KB regardless of the loaded data volume.
_LOAD_BLOCK = 65536

#: Default lookups per vectorized slab in :meth:`CompactRing.routing_round`.
_ROUTE_SLAB = 131072


class CompactRing:
    """A stabilized ring held entirely in structure-of-arrays columns.

    Columns (all ring-ordered, index ``i`` is the ``i``-th peer clockwise):

    * :attr:`ids` — sorted peer identifiers, ``uint64``;
    * :attr:`counts` — per-peer item counts, ``int64`` (the load column);
    * :attr:`scan` — the compressed finger-scan matrix, ``int32`` of shape
      ``(n, W)`` with ``W ~ log2 n`` (4·W bytes per peer): per peer, the
      rows of its distinct fingers with duplicate runs collapsed to their
      highest column, highest first, and short rows padded with the peer's
      own row (which fails every strict in-arc test), exactly the
      :meth:`~repro.ring.snapshot.RingSnapshot.finger_scan_tables` layout
      (see :func:`~repro.ring.lockstep.compress_scan`).

    Successors and predecessors are not stored: on the stabilized ring they
    are row rolls (``succ(i) = (i+1) % n``).  Every row is a live peer, so
    routing reads no liveness mask (the object backend's routing view
    carries one, :class:`~repro.ring.lockstep.RingPointers`).  Cost
    accounting goes through the same :class:`MessageStats` ledger as the
    object backend.
    """

    def __init__(
        self,
        space: IdentifierSpace,
        ids: NDArray[np.uint64],
        *,
        domain: tuple[float, float] = (0.0, 1.0),
        rng: Optional[np.random.Generator] = None,
        synopsis_buckets: int = 8,
    ) -> None:
        if ids.size < 1:
            raise ValueError("need at least one peer")
        if synopsis_buckets < 1:
            raise ValueError(f"synopsis_buckets must be >= 1, got {synopsis_buckets}")
        self.space = space
        self.data_hash = OrderPreservingHash(space, domain[0], domain[1])
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.stats = MessageStats()
        self.ids: NDArray[np.uint64] = np.ascontiguousarray(ids, dtype=np.uint64)
        self.counts: NDArray[np.int64] = np.zeros(ids.size, dtype=np.int64)
        self.scan: NDArray[np.int32] = self._build_scan(space, self.ids)
        #: The compact backend never carries a fault plane: it models the
        #: stabilized, loss-free ring.  The attribute exists so estimators
        #: can read ``backend.faults`` uniformly across both backends.
        self.faults: None = None
        #: Membership is immutable, so the topology token never moves; the
        #: data token advances on every :meth:`load_counts`, which is what
        #: the serving layer's version-keyed cache invalidates on.
        self.topology_version: int = 0
        self.data_version: int = 0
        # Columnar synopsis plane: the value-range bounds of every peer's
        # primary ownership segment (and the single wrap-around segment at
        # the ring origin), plus the per-peer bucket-count matrix filled by
        # load_counts.  Bounds are geometry (eager, 16 B/peer); the count
        # matrix is data (lazy, 8*B B/peer once anything loads).
        self.synopsis_buckets = int(synopsis_buckets)
        self.seg_low: NDArray[np.float64]
        self.seg_high: NDArray[np.float64]
        self._wrap_bounds: Optional[tuple[float, float]]
        self._build_segment_bounds()
        self.hist: Optional[NDArray[np.int64]] = None
        self._wrap_hist: Optional[NDArray[np.int64]] = None
        # Push-sum state (created on first gossip round): estimating the
        # network-wide mean load needs one value and one weight column.
        self._gossip_value: Optional[NDArray[np.float64]] = None
        self._gossip_weight: Optional[NDArray[np.float64]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        n_peers: int,
        *,
        bits: int = 64,
        domain: tuple[float, float] = (0.0, 1.0),
        seed: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        synopsis_buckets: int = 8,
    ) -> "CompactRing":
        """Build a stabilized compact ring of ``n_peers`` random peers.

        Identifier draws replay :meth:`RingNetwork.create` exactly — the
        same ``needed``-sized batches against the same generator state,
        deduplicated by sorting and masking repeats instead of a Python set
        (distinct counts are equal, so each iteration requests the same
        batch) —
        which makes the membership seed-identical to the object backend.
        """
        if n_peers < 1:
            raise ValueError(f"need at least one peer, got {n_peers}")
        if rng is None:
            rng = np.random.default_rng(seed)
        space = IdentifierSpace(bits)
        ids = np.empty(0, dtype=np.uint64)
        while ids.size < n_peers:
            needed = n_peers - ids.size
            draws = rng.integers(0, space.size, size=needed, dtype=np.uint64)
            ids = _sorted_unique(np.concatenate((ids, draws)))
        return cls(space, ids, domain=domain, rng=rng, synopsis_buckets=synopsis_buckets)

    @staticmethod
    def _build_scan(
        space: IdentifierSpace, ids: NDArray[np.uint64]
    ) -> NDArray[np.int32]:
        """The compressed finger-scan matrix of rows, built blockwise.

        Every finger at a level ``k`` with ``2^k`` at most the ring's
        smallest gap is its peer's successor, so its run ends at the
        highest such level: the slab starts there, and
        :func:`~repro.ring.lockstep.compress_scan`, which keeps the highest
        column of each run, keeps the entries the full ``bits`` columns
        would.  Each block of rows computes its slab of finger rows
        (:func:`~repro.ring.lockstep.exact_fingers`; every finger is valid
        on the stabilized ring) and the compressor keeps only the block's
        compressed entries as ``int32``.  Peak transient memory is one
        block's finger slab, never ``n x bits``.
        """
        # The gap of a lone peer is the whole ring.
        smallest = space.size - int(ids[-1] - ids[0])
        if ids.size > 1:
            smallest = min(smallest, int(np.diff(ids).min()))
        first = min(smallest.bit_length(), space.bits) - 1
        blocks = (
            (exact_fingers(ids, slice(lo, lo + _SCAN_BLOCK), space.bits, first), None)
            for lo in range(0, ids.size, _SCAN_BLOCK)
        )
        return compress_scan(np.arange(ids.size, dtype=np.int32), blocks)

    def _build_segment_bounds(self) -> None:
        """Per-peer value-range bounds of the synopsis plane.

        Replicates :func:`repro.core.synopsis._build_summary`'s geometry
        exactly, vectorized: peer ``i``'s arc ``(ids[i-1], ids[i]]`` maps to
        the value range ``[to_value(ids[i-1]+1), to_value(ids[i]+1))`` by
        monotonicity of the hash, the top identifier's successor wraps to
        the domain high, peer 0 owns ``[low, to_value(ids[0]+1))`` plus the
        wrap-around high-end segment, and float-degenerate ranges widen by
        one ulp (the object path's ``nonempty``).  ``uint64 -> float64``
        conversion followed by division by the exact power of two ``2^m``
        rounds identically to Python's correctly rounded int/int division,
        so every bound is bit-identical to the scalar ``to_value``.
        """
        low = self.data_hash.low
        high = self.data_hash.high
        n = self.ids.size
        if n == 1:
            # A single peer owns the whole ring, hence the whole domain.
            self.seg_low = np.array([low], dtype=np.float64)
            self.seg_high = np.array([high], dtype=np.float64)
            self._wrap_bounds = None
            return
        after = self.ids + np.uint64(1)  # wraps to 0 only at the top identifier
        u = after.astype(np.float64) / float(self.space.size)
        edges = low + u * (high - low)
        seg_high = edges.copy()
        top_wraps = bool(self.ids[-1] == np.uint64(self.space.mask))
        if top_wraps:
            seg_high[-1] = high
        seg_low = np.empty(n, dtype=np.float64)
        seg_low[0] = low
        seg_low[1:] = edges[:-1]
        degenerate = ~(seg_low < seg_high)
        if degenerate.any():
            seg_high[degenerate] = np.nextafter(seg_low[degenerate], np.inf)
        self.seg_low = seg_low
        self.seg_high = seg_high
        if top_wraps:
            # first_start == 0: peer 0's ownership is [0, ids[0]] only.
            self._wrap_bounds = None
        else:
            w_low = float(edges[-1])
            w_high = high
            if not w_low < w_high:
                w_high = float(np.nextafter(w_low, np.inf))
            self._wrap_bounds = (w_low, w_high)

    # ------------------------------------------------------------------
    # Basic views
    # ------------------------------------------------------------------
    @property
    def n_peers(self) -> int:
        """Number of peers."""
        return int(self.ids.size)

    @property
    def domain(self) -> tuple[float, float]:
        """The data value domain mapped onto the ring."""
        return (self.data_hash.low, self.data_hash.high)

    @property
    def version_token(self) -> tuple[int, int]:
        """``(topology_version, data_version)`` — the serving-layer cache key."""
        return (self.topology_version, self.data_version)

    def segment_lengths(self, indices: NDArray[np.int64]) -> NDArray[Any]:
        """Ownership arc lengths ``ℓ_p`` of the peers at ``indices``.

        Wrapping ``uint64`` subtraction makes ``ids[0] - ids[-1]`` the
        clockwise distance for the origin-wrapping peer.  The single peer
        of a one-peer ring owns all ``2^m`` identifiers, which for m = 64
        does not fit ``uint64``: those lengths come back as Python ints.
        """
        if self.ids.size == 1:
            return np.full(indices.size, self.space.size, dtype=object)
        return (self.ids[indices] - self.ids[indices - 1]) & np.uint64(self.space.mask)

    def synopsis_plane(self) -> tuple[NDArray[np.int64], NDArray[np.int64]]:
        """The bucket-count matrix and the wrap segment's row, allocated lazily.

        ``hist[i]`` holds peer ``i``'s primary-segment bucket counts over
        ``[seg_low[i], seg_high[i])``; the separate wrap row holds peer 0's
        high-end segment (at most one peer wraps the ring origin).
        """
        if self.hist is None:
            self.hist = np.zeros((self.ids.size, self.synopsis_buckets), dtype=np.int64)
        if self._wrap_hist is None:
            self._wrap_hist = np.zeros(self.synopsis_buckets, dtype=np.int64)
        return self.hist, self._wrap_hist

    @property
    def wrap_bounds(self) -> Optional[tuple[float, float]]:
        """Value bounds of peer 0's high-end wrap segment (None if it has none)."""
        return self._wrap_bounds

    def cached_summary(self, index: int) -> None:
        """Always ``None``: probe replies are never stored on the ring.

        Exists only for the probe table of ``perfbench/tracing.py``.
        """
        return None

    def cache_summary(self, index: int, summary: object) -> None:
        """Does nothing; exists only for the probe table of ``perfbench/tracing.py``."""

    @property
    def total_count(self) -> int:
        """Total items across all peers."""
        return int(self.counts.sum())

    def record(self, message_type: MessageType, count: int = 1, payload: float = 0.0) -> None:
        """Record simulated network traffic (same ledger as the object backend)."""
        self.stats.record(message_type, count, payload=payload)

    def memory_report(self) -> dict[str, float]:
        """Per-column resident bytes and the bytes/peer total.

        Covers every persistent column (identifiers, loads, the scan
        matrix, gossip state when materialized); transient build slabs are
        excluded because they are freed before the ring is usable.
        """
        columns = {
            "ids": float(self.ids.nbytes),
            "counts": float(self.counts.nbytes),
            "scan": float(self.scan.nbytes),
            "synopsis_seg_low": float(self.seg_low.nbytes),
            "synopsis_seg_high": float(self.seg_high.nbytes),
        }
        if self.hist is not None:
            columns["synopsis_hist"] = float(self.hist.nbytes)
        if self._wrap_hist is not None:
            columns["synopsis_wrap_hist"] = float(self._wrap_hist.nbytes)
        if self._gossip_value is not None:
            columns["gossip_value"] = float(self._gossip_value.nbytes)
        if self._gossip_weight is not None:
            columns["gossip_weight"] = float(self._gossip_weight.nbytes)
        total = sum(columns.values())  # repro-lint: disable=SUM001 (byte-count bookkeeping; order-insensitive)
        synopsis_bytes = (
            columns["synopsis_seg_low"]
            + columns["synopsis_seg_high"]
            + columns.get("synopsis_hist", 0.0)
            + columns.get("synopsis_wrap_hist", 0.0)
        )
        report = dict(columns)
        report["total_bytes"] = total
        report["bytes_per_peer"] = total / self.n_peers
        report["scan_width"] = float(self.scan.shape[1])
        report["synopsis_bytes"] = synopsis_bytes
        report["synopsis_buckets"] = float(self.synopsis_buckets)
        return report

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def load_counts(self, values: ArrayLike) -> None:
        """Place data values on their owners: counts plus bucket synopses.

        The compact backend stores the load column and the synopsis plane,
        not the items: blockwise (so the transient keys/positions/buckets
        never exceed one ``_LOAD_BLOCK`` slab regardless of data volume),
        each block is sorted (every result is a count, so value order does
        not change it, and sorted keys search fastest), each value is
        hashed, ``searchsorted`` to its owner (the same owner
        :meth:`RingNetwork.load_data` resolves), counted, and binned into
        the owner's histogram row with the exact
        :meth:`~repro.ring.storage.LocalStore.histogram_range` bucket
        arithmetic — including the object path's straggler repair for
        values that float rounding pushes outside every segment.  The
        values themselves are discarded; memory stays O(n_peers).

        Raises ``ValueError`` up front — the object backend's storage
        taxonomy — when the values cannot be coerced to floats or contain
        non-finite entries.
        """
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size == 0:
            return
        if not np.isfinite(arr).all():
            raise ValueError(
                "could not place data values: non-finite entries (nan/inf) "
                "have no position on the ring"
            )
        hist, wrap_hist = self.synopsis_plane()
        hist_flat = hist.reshape(-1)
        n = self.ids.size
        buckets = self.synopsis_buckets
        for block_lo in range(0, arr.size, _LOAD_BLOCK):
            chunk = np.sort(arr[block_lo : block_lo + _LOAD_BLOCK])
            keys = self.data_hash.map_values(chunk)
            positions = np.searchsorted(self.ids, keys, side="left")
            positions[positions == n] = 0
            np.add.at(self.counts, positions, 1)
            lows = self.seg_low[positions]
            highs = self.seg_high[positions]
            in_primary = (chunk >= lows) & (chunk < highs)
            prim = np.flatnonzero(in_primary)
            if prim.size:
                # The quotient is non-negative inside the range, so int
                # truncation equals floor; only the top clamp remains —
                # byte-for-byte the histogram_range expression.
                bucket = (
                    (chunk[prim] - lows[prim]) / (highs[prim] - lows[prim]) * buckets
                ).astype(np.int64)
                np.minimum(bucket, buckets - 1, out=bucket)
                np.add.at(hist_flat, positions[prim] * buckets + bucket, 1)
            out = ~in_primary
            if self._wrap_bounds is not None and out.any():
                w_low, w_high = self._wrap_bounds
                wrap = out & (positions == 0) & (chunk >= w_low) & (chunk < w_high)
                wrap_i = np.flatnonzero(wrap)
                if wrap_i.size:
                    bucket = (
                        (chunk[wrap_i] - w_low) / (w_high - w_low) * buckets
                    ).astype(np.int64)
                    np.minimum(bucket, buckets - 1, out=bucket)
                    np.add.at(wrap_hist, bucket, 1)
                    out &= ~wrap
            for stray in np.flatnonzero(out):
                self._bin_straggler(float(chunk[stray]), int(positions[stray]), hist, wrap_hist)
        self.data_version += 1
        # New load invalidates any in-progress push-sum estimate.
        self._gossip_value = None
        self._gossip_weight = None

    def _bin_straggler(
        self,
        value: float,
        owner: int,
        hist: NDArray[np.int64],
        wrap_hist: NDArray[np.int64],
    ) -> None:
        """Fold one float-edge straggler into the nearest segment's edge bucket.

        Mirrors :func:`repro.core.synopsis._repair_segments` exactly:
        segments in the object backend's order (wrap segment first for the
        origin peer), nearest boundary wins with first-wins ties, and the
        value lands in bucket 0 below the segment or the top bucket above.
        """
        segments: list[tuple[float, float, NDArray[np.int64]]] = []
        if owner == 0 and self._wrap_bounds is not None:
            w_low, w_high = self._wrap_bounds
            segments.append((w_low, w_high, wrap_hist))
        segments.append(
            (float(self.seg_low[owner]), float(self.seg_high[owner]), hist[owner])
        )
        distances = [
            min(abs(value - seg_low), abs(value - seg_high))
            for seg_low, seg_high, _ in segments
        ]
        index = int(np.argmin(distances))
        seg_low, _seg_high, row = segments[index]
        bucket = 0 if value < seg_low else self.synopsis_buckets - 1
        row[bucket] += 1

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route_batch(
        self,
        entries: NDArray[np.int64],
        keys: NDArray[np.uint64],
        *,
        traffic: Optional[NDArray[np.int64]] = None,
    ) -> tuple[NDArray[np.int64], NDArray[np.int64]]:
        """Route many lookups in vectorized lockstep; returns (owners, hops).

        ``entries`` and the returned owners are peer indices.  Routing is
        :func:`~repro.ring.lockstep.route_lockstep` over the stabilized
        view (index-roll neighbours, every pointer live), and the hops post
        to the ledger as one ``LOOKUP_HOP`` record.  ``traffic`` (length
        ``n_peers``), when given, counts every hop's destination — the
        per-peer load the congestion metrics read.
        """
        max_hops = 2 * self.n_peers + self.space.bits
        routes = route_lockstep(
            self.ids,
            self.scan,
            np.asarray(entries, dtype=np.int64),
            np.asarray(keys, dtype=np.uint64),
            max_hops,
            traffic=traffic,
        )
        owner_idx, hops = routes.owner_idx, routes.hops
        if routes.failure.any():
            raise RuntimeError(
                f"{int(np.count_nonzero(routes.failure))} lookups exceeded {max_hops} hops "
                "on a stabilized compact ring (corrupt scan matrix?)"
            )
        total_hops = int(hops.sum())
        if total_hops:
            self.record(MessageType.LOOKUP_HOP, count=total_hops)
        return owner_idx, hops

    def routing_round(
        self,
        *,
        lookups: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        slab: int = _ROUTE_SLAB,
    ) -> dict[str, float]:
        """One full routing round: uniform lookups from uniform entry peers.

        Draws ``lookups`` (default: one per peer) uniform keys and entry
        peers, routes them through :meth:`route_batch` in slabs of ``slab``
        (bounding the working set), and returns the round's summary —
        total/mean/max hops and the hottest peer's message count, the
        batch-side analogue of the event engine's queue-depth statistic.
        """
        if rng is None:
            rng = self.rng
        n = self.n_peers
        total = n if lookups is None else int(lookups)
        if total < 0:
            raise ValueError(f"lookups must be >= 0, got {total}")
        traffic = np.zeros(n, dtype=np.int64)
        hop_total = 0
        hop_max = 0
        remaining = total
        while remaining > 0:
            batch = min(remaining, slab)
            entries = rng.integers(0, n, size=batch).astype(np.int64)
            keys = rng.integers(0, self.space.size, size=batch, dtype=np.uint64)
            _owners, hops = self.route_batch(entries, keys, traffic=traffic)
            hop_total += int(hops.sum())
            if batch:
                hop_max = max(hop_max, int(hops.max()))
            remaining -= batch
        hot = int(traffic.argmax()) if n else -1
        return {
            "lookups": float(total),
            "total_hops": float(hop_total),
            "mean_hops": hop_total / total if total else 0.0,
            "max_hops": float(hop_max),
            "hot_peer_messages": float(traffic[hot]) if n else 0.0,
            "hot_peer_index": float(hot),
        }

    # ------------------------------------------------------------------
    # Gossip
    # ------------------------------------------------------------------
    def gossip_round(self, *, rng: Optional[np.random.Generator] = None) -> dict[str, float]:
        """One synchronous push-sum round over the load column.

        Every peer halves its (value, weight) pair and pushes one half to
        a random finger from its scan row (falling back to the successor
        when the draw lands on a self-pad) — the classic push-sum gossip
        for the network-wide mean load, with one ``GOSSIP_PUSH`` per peer
        recorded in the ledger.  Returns the round's convergence summary:
        the maximum relative error of the per-peer mean-load estimates
        against the true mean.
        """
        if rng is None:
            rng = self.rng
        n = self.n_peers
        if self._gossip_value is None or self._gossip_weight is None:
            self._gossip_value = self.counts.astype(np.float64)
            self._gossip_weight = np.ones(n, dtype=np.float64)
        value = self._gossip_value
        weight = self._gossip_weight
        # The draw counts columns from the lowest finger (the last one).
        cols = rng.integers(0, self.scan.shape[1], size=n)
        own = np.arange(n, dtype=np.int64)
        partner = self.scan[own, -1 - cols].astype(np.int64)
        # Self-pad (or the degenerate single-peer ring): push clockwise.
        self_hit = partner == own
        partner[self_hit] = (own[self_hit] + 1) % n
        half_v = value * 0.5
        half_w = weight * 0.5
        new_v = half_v.copy()
        new_w = half_w.copy()
        np.add.at(new_v, partner, half_v)
        np.add.at(new_w, partner, half_w)
        self._gossip_value = new_v
        self._gossip_weight = new_w
        self.record(MessageType.GOSSIP_PUSH, count=n, payload=2.0 * n)
        true_mean = self.counts.mean() if n else 0.0
        estimates = new_v / new_w
        if true_mean > 0:
            max_rel_error = float(np.abs(estimates - true_mean).max() / true_mean)
        else:
            max_rel_error = float(np.abs(estimates).max()) if n else 0.0
        return {
            "pushes": float(n),
            "true_mean_load": float(true_mean),
            "max_rel_error": max_rel_error,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompactRing(peers={self.n_peers}, items={self.total_count}, "
            f"bits={self.space.bits}, scan_width={self.scan.shape[1]})"
        )

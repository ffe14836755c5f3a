"""The ring overlay simulator.

:class:`RingNetwork` owns the peers, the order-preserving placement of data,
and the message ledger.  It is a *synchronous* simulator: operations are
method calls, and network cost is accounted in messages/hops rather than
simulated time — which is exactly the cost model the paper's efficiency
claims are stated in.

Two views coexist deliberately:

* the **overlay view** — each node's own pointers (possibly stale under
  churn); all cost-counted operations (routing, probing, estimation) use
  only this view, via :mod:`repro.ring.routing`;
* the **oracle view** — the simulator's sorted registry of live peers, used
  for ground truth (true global CDF, true owner) and for free bootstrap
  tasks like initial construction.  Oracle calls never touch the ledger.
"""

from __future__ import annotations

import bisect
import os
from collections import Counter
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.ring.faults import FAULT_PROFILE_ENV, FaultPlane, plane_from_profile
from repro.ring.hashing import OrderPreservingHash
from repro.ring.identifier import IdentifierSpace
from repro.ring.lockstep import RingPointers, exact_fingers
from repro.ring.messages import MessageStats, MessageType
from repro.ring.node import SUCCESSOR_LIST_LENGTH, OverlayTable, PeerNode
from repro.ring.snapshot import RingSnapshot

__all__ = ["RingNetwork", "NetworkError"]


class NetworkError(RuntimeError):
    """Raised when an overlay operation cannot complete (e.g. empty ring)."""


class RingNetwork:
    """A ring-based P2P network with order-preserving data placement.

    Parameters
    ----------
    space:
        The identifier space shared by peers and data.
    domain:
        ``(low, high)`` bounds of the scalar data domain; data values map
        onto the ring through an order-preserving hash over this range.
    rng:
        Source of randomness for peer placement and routing entry points.
    """

    def __init__(
        self,
        space: IdentifierSpace,
        domain: tuple[float, float] = (0.0, 1.0),
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.space = space
        self.data_hash = OrderPreservingHash(space, domain[0], domain[1])
        # Seeded default: a network built without an explicit generator
        # must still behave identically run to run.
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.stats = MessageStats()
        #: Scalar per-message loss probability, owned by the attached
        #: :class:`FaultPlane` (``install_faults(FaultPlane(loss_rate=p))``).
        self.loss_rate = 0.0
        #: Optional unified fault plane (see :mod:`repro.ring.faults`).
        #: ``None`` — and an attached-but-inactive plane — leave every code
        #: path bit-identical to a fault-free network.
        self.faults: Optional[FaultPlane] = None
        self._nodes: dict[int, PeerNode] = {}
        self._sorted_ids: list[int] = []
        #: The peers' overlay pointers; ``_sorted_slots[i]`` is the row of
        #: the peer ``_sorted_ids[i]``.
        self._overlay = OverlayTable(space.bits)
        self._sorted_slots: list[int] = []
        # Cached read-only views of the registry, rebuilt lazily after a
        # membership change (register/unregister bumps topology_version).
        self._ids_tuple: Optional[tuple[int, ...]] = None
        self._ids_array: Optional[np.ndarray] = None
        self._slots_array: Optional[np.ndarray] = None
        #: Monotone membership-mutation counter (joins/leaves/crashes).
        self.topology_version: int = 0
        #: Monotone data-mutation counter: advanced whenever any peer's
        #: store changes (via the per-store listener) or membership changes
        #: move items in or out of the network.  Together with
        #: :attr:`topology_version` it keys the snapshot plane.
        self.data_version: int = 0
        #: Peers whose stores mutated since the last snapshot refresh.
        self._dirty_stores: set[int] = set()
        #: Peers whose one-shot store listener fired since
        #: :attr:`version_token` was last read (it re-arms them).
        self._fired_stores: set[int] = set()
        #: The one data-change callback every registered store calls.
        self._store_listener = self._note_data_change
        #: :attr:`topology_version` as of the last whole-ring matrix
        #: maintenance round (:func:`repro.ring.mutation.matrix_maintenance_round`).
        #: While it still equals the live version, nothing has touched the
        #: overlay since that round, so every neighbour pointer is exactly
        #: true by the round's own postcondition and the kernel skips its
        #: re-validation gates.  Every pointer-mutating code path bumps the
        #: version (membership through the registry, scalar maintenance via
        #: :meth:`note_overlay_change`), which invalidates this token.
        self._exact_ring_token: Optional[int] = None
        self._snapshot = RingSnapshot(self)

    def delivery_succeeds(self) -> bool:
        """Draw one message-delivery outcome under the loss model.

        The sender times out on a lost message and retransmits; callers on
        the cost-counted paths loop on this predicate, paying for every
        attempt.  ``loss_rate=0`` (the default) short-circuits to True.
        """
        if self.loss_rate <= 0.0:
            return True
        return bool(self.rng.random() >= self.loss_rate)

    def install_faults(self, plane: FaultPlane, *, replace: bool = False) -> FaultPlane:
        """Attach a fault plane to this network and return it.

        The plane subsumes the scalar loss model: a plane carrying a base
        ``loss_rate`` installs it as :attr:`loss_rate`, so the legacy
        retransmission machinery (and its exact RNG stream) keeps handling
        uniform loss.  Structural faults (stalls, partitions, scheduled
        bursts) are consulted only by the policy-aware routing path — with none configured, behaviour is bit-identical to
        an unattached network.

        A network has at most one plane.  Attaching a second one used to
        silently drop the first (last-attached-wins); that is now an
        error unless ``replace=True`` states the intent — callers that
        deliberately override an existing plane (a controlled experiment
        scenario displacing the whole-suite profile, or a fresh plane per
        measured contender) must say so.  Re-attaching the already
        installed plane is a no-op-safe idempotent call.  See
        ``docs/ROBUSTNESS.md`` for the contract.
        """
        if self.faults is not None and self.faults is not plane and not replace:
            raise ValueError(
                "a FaultPlane is already attached to this network; pass "
                "replace=True to swap it deliberately (the previous "
                "last-attached-plane-wins behaviour was silent data loss)"
            )
        self.faults = plane
        plane.attach(self)
        return plane

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        n_peers: int,
        *,
        bits: int = 64,
        domain: tuple[float, float] = (0.0, 1.0),
        seed: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        compact: bool = False,
        synopsis_buckets: int = 8,
    ):
        """Build a stabilized network of ``n_peers`` randomly placed peers.

        Peer identifiers are drawn uniformly at random (the distribution a
        cryptographic peer-id hash induces).  Construction is an oracle
        operation: the returned network is fully stabilized with exact
        finger tables and an empty ledger.  Lossy delivery is opt-in
        afterwards: ``install_faults(FaultPlane(loss_rate=p))``.

        ``compact=True`` returns a :class:`~repro.ring.compact.CompactRing`
        instead of an object-backed network: the same membership for the
        same seed (identifier draws are replayed exactly), held as columnar
        arrays so million-peer rings fit in memory.  The compact backend
        models the stabilized loss-free ring only, so no fault profile
        attaches.  ``synopsis_buckets`` sizes the
        compact backend's columnar synopsis plane (its fixed probe-reply
        histogram resolution); the object backend builds synopses at probe
        time for any requested width and ignores it.
        """
        if n_peers < 1:
            raise ValueError(f"need at least one peer, got {n_peers}")
        if compact:
            from repro.ring.compact import CompactRing  # local: compact -> messages only

            return CompactRing.build(
                n_peers,
                bits=bits,
                domain=domain,
                seed=seed,
                rng=rng,
                synopsis_buckets=synopsis_buckets,
            )
        if rng is None:
            rng = np.random.default_rng(seed)
        space = IdentifierSpace(bits)
        network = cls(space, domain=domain, rng=rng)
        idents: set[int] = set()
        while len(idents) < n_peers:
            needed = n_peers - len(idents)
            draws = rng.integers(0, space.size, size=needed, dtype=np.uint64)
            idents.update(int(d) for d in draws)
        network._register_all(idents)
        network.rebuild_overlay()
        # Opt-in fault profile for whole-suite smoke runs: when the
        # environment names a profile (repro-experiments --faults), every
        # created network — including those built in worker subprocesses —
        # gets the same deterministic fault plane attached.  Unset (the
        # default), this branch never runs and behaviour is unchanged.
        profile = os.environ.get(FAULT_PROFILE_ENV)
        if profile:
            network.install_faults(
                plane_from_profile(
                    profile, seed=seed if seed is not None else 0, ring_size=space.size
                )
            )
        return network

    @classmethod
    def create_balanced(
        cls,
        n_peers: int,
        values,
        *,
        bits: int = 64,
        domain: tuple[float, float] = (0.0, 1.0),
        seed: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> "RingNetwork":
        """Build a network whose peers sit at the data's equi-depth quantiles.

        This models a ring system running a load balancer: peer boundaries
        are placed at the ``i/N`` quantiles of ``values``, so each peer
        owns (approximately) an equal share of the *data* rather than of
        the identifier space.  Estimation behaves differently here — peer
        positions themselves carry distribution information and naive
        pooling loses most of its bias — which the F14 experiment measures.

        ``values`` are used only to compute boundary positions; call
        :meth:`load_data` afterwards as usual.
        """
        if n_peers < 1:
            raise ValueError(f"need at least one peer, got {n_peers}")
        arr = np.sort(np.asarray(list(values), dtype=float))
        if arr.size < n_peers:
            raise ValueError(
                f"balanced placement needs at least one value per peer "
                f"({arr.size} values for {n_peers} peers)"
            )
        if rng is None:
            rng = np.random.default_rng(seed)
        space = IdentifierSpace(bits)
        network = cls(space, domain=domain, rng=rng)
        quantile_levels = (np.arange(1, n_peers + 1)) / n_peers
        boundaries = np.quantile(arr, quantile_levels)
        used: dict[int, None] = {}
        for boundary in boundaries:
            ident = network.data_hash(float(boundary))
            while ident in used:
                ident = space.add(ident, 1)
            used[ident] = None
        network._register_all(used)
        network.rebuild_overlay()
        return network

    @classmethod
    def create_virtual(
        cls,
        n_hosts: int,
        virtual_per_host: int,
        *,
        bits: int = 64,
        domain: tuple[float, float] = (0.0, 1.0),
        seed: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> "RingNetwork":
        """Build a network of ``n_hosts`` physical hosts, each running
        ``virtual_per_host`` ring nodes at random positions.

        Virtual nodes are Chord's classic load-balancing device: a host's
        total load is the sum over its v segments, whose relative variance
        shrinks like ``1/v``.  Host attribution is carried on each node
        (``PeerNode.host_id``) so :meth:`host_loads` can report the
        physical balance the F16 experiment measures.
        """
        if n_hosts < 1:
            raise ValueError(f"need at least one host, got {n_hosts}")
        if virtual_per_host < 1:
            raise ValueError(f"need at least one virtual node per host, got {virtual_per_host}")
        network = cls.create(
            n_hosts * virtual_per_host, bits=bits, domain=domain, seed=seed, rng=rng
        )
        # Random ids are exchangeable, so blocks of the sorted id list are
        # a uniformly random host assignment; shuffle for good measure.
        ids = list(network.peer_ids())
        network.rng.shuffle(ids)
        for index, ident in enumerate(ids):
            network.node(ident).host_id = index % n_hosts
        return network

    def host_loads(self) -> dict[int, int]:
        """Item counts aggregated per physical host."""
        loads: Counter[int] = Counter()
        for node in self.peers():
            loads[node.host_id] += node.store.count
        return dict(loads)

    def _register(self, node: PeerNode) -> None:
        """Insert a node into the oracle registry (no overlay wiring).

        A node built outside this network's overlay table moves its row in.
        """
        ident = node.ident
        if ident in self._nodes:
            raise ValueError(f"duplicate peer identifier {ident}")
        if node._table is not self._overlay:
            node._move_to(self._overlay)
        self._nodes[ident] = node
        index = bisect.bisect_left(self._sorted_ids, ident)
        self._sorted_ids.insert(index, ident)
        self._sorted_slots.insert(index, node._slot)
        self._arm_store(node)
        self._invalidate_registry_views()
        self.data_version += 1

    def _register_all(self, idents: Iterable[int]) -> None:
        """Create and register new peers ``idents`` with one sort.

        The registry, the listeners and both version tokens end as
        :meth:`_register` on a new node for each identifier in turn would
        leave them.
        """
        ident_list = list(idents)
        nodes = self._nodes
        for ident, slot in zip(ident_list, self._overlay.extend(ident_list)):
            if ident in nodes:
                raise ValueError(f"duplicate peer identifier {ident}")
            node = nodes[ident] = PeerNode(ident, self.space, self._overlay, slot)
            self._arm_store(node)
        # One argsort of the uint64 ids: far cheaper than sorting the
        # 64-bit Python ints.
        ids = np.fromiter(nodes, dtype=np.uint64, count=len(nodes))
        slots = np.fromiter((node._slot for node in nodes.values()), dtype=np.int64, count=ids.size)
        order = np.argsort(ids)
        self._ids_array, self._slots_array = ids[order], slots[order]
        self._sorted_ids = self._ids_array.tolist()
        self._sorted_slots = self._slots_array.tolist()
        self._ids_tuple = None
        self.topology_version += len(ident_list)
        self.data_version += len(ident_list)

    def _unregister(self, ident: int) -> PeerNode:
        """Remove a node from the oracle registry.

        The node keeps its overlay row in a table of its own, and its slot
        here is freed for a later joiner.
        """
        node = self._nodes.pop(ident)
        index = bisect.bisect_left(self._sorted_ids, ident)
        del self._sorted_ids[index]
        del self._sorted_slots[index]
        node.store._armed = False
        node._move_to(OverlayTable(self.space.bits))
        self._invalidate_registry_views()
        self.data_version += 1
        return node

    def _note_data_change(self, ident: int) -> None:
        """Advance the data token after a peer-store mutation.

        The mutated peer is remembered in :attr:`_dirty_stores` so the next
        snapshot refresh rebuilds only that peer's chunk.  Store listeners
        are one-shot (see :class:`LocalStore`), so this fires once per
        store per refresh interval; the snapshot refresh re-arms them, and
        so does reading :attr:`version_token`.
        """
        self._dirty_stores.add(ident)
        self._fired_stores.add(ident)
        self.data_version += 1

    def _arm_store(self, node: PeerNode) -> None:
        """Install the shared one-shot data-change listener on a peer store."""
        store = node.store
        store._listener = self._store_listener
        store._owner = node.ident
        store._armed = True

    def _invalidate_registry_views(self) -> None:
        """Drop cached id views after a membership change."""
        self._ids_tuple = None
        self._ids_array = None
        self._slots_array = None
        self.topology_version += 1

    @property
    def version_token(self) -> tuple[int, int]:
        """The ``(topology_version, data_version)`` pair as one token.

        This is the staleness key shared by every version-aware consumer:
        the snapshot plane refreshes against it, the serving layer
        (:mod:`repro.serve`) keys its result cache on it, and cached
        derived state (models, prefix indexes) is valid exactly as long as
        the token it was built under still equals the live one.

        Reading the token re-arms the one-shot listeners that fired since
        the last read, so the next mutation of any store moves it again
        even when no snapshot refresh came in between.
        """
        if self._fired_stores:
            nodes = self._nodes
            for ident in self._fired_stores:
                node = nodes.get(ident)
                if node is not None:
                    node.store._armed = True
            self._fired_stores.clear()
        return (self.topology_version, self.data_version)

    def note_overlay_change(self) -> None:
        """Advance the overlay token after a pointer-only mutation.

        Membership changes bump :attr:`topology_version` through the
        registry; maintenance (stabilize / fix_fingers) and bulk pointer
        rebuilds mutate finger and neighbour pointers *without* touching
        membership, so they must advance the token themselves.  Derived
        overlay views (e.g. the random-walk adjacency) key their caches on
        this counter.
        """
        self.topology_version += 1

    def sorted_ids_array(self) -> np.ndarray:
        """Live peer identifiers as a sorted ``uint64`` array (cached).

        Oracle-view helper backing the vectorized bulk paths (data loading,
        batched owner resolution).  Treat as read-only; it is rebuilt after
        the next membership change.
        """
        if self._ids_array is None:
            self._ids_array = np.asarray(self._sorted_ids, dtype=np.uint64)
        return self._ids_array

    def sorted_slots_array(self) -> np.ndarray:
        """Overlay-table rows of the live peers in ring order (cached).

        Gathering a column at these rows gives it in the order of
        :meth:`sorted_ids_array`.  Treat as read-only, like that array.
        """
        if self._slots_array is None:
            self._slots_array = np.asarray(self._sorted_slots, dtype=np.int64)
        return self._slots_array

    def rebuild_overlay(self) -> None:
        """Recompute every peer's pointers exactly (oracle operation).

        Gives each node its true predecessor, successor, successor list
        and finger table.  Used after bulk construction; churn experiments
        instead rely on the incremental protocol in :mod:`repro.ring.chord`.
        """
        ids = self.sorted_ids_array()
        n = ids.size
        if n == 0:
            return
        list_length = min(SUCCESSOR_LIST_LENGTH, max(n - 1, 1))
        slots = self.sorted_slots_array()
        table = self._overlay
        table.successor[slots] = np.roll(ids, -1)
        table.predecessor[slots] = np.roll(ids, 1)
        table.predecessor_known[slots] = True
        for offset in range(list_length):
            table.successor_lists[slots, offset] = np.roll(ids, -1 - offset)
        table.list_lengths[slots] = list_length
        # All N x bits fingers at once, searched only past each successor.
        table.fingers[slots] = ids[exact_fingers(ids, slice(None), self.space.bits)]
        table.finger_known[slots] = True
        table.scans.clear()
        self.note_overlay_change()

    def _oracle_successor(self, key: int) -> int:
        """First live peer at or clockwise after ``key`` (oracle view)."""
        if not self._sorted_ids:
            raise NetworkError("network has no peers")
        index = bisect.bisect_left(self._sorted_ids, key)
        if index == len(self._sorted_ids):
            index = 0
        return self._sorted_ids[index]

    # ------------------------------------------------------------------
    # Node access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, ident: int) -> bool:
        return ident in self._nodes

    @property
    def n_peers(self) -> int:
        """Number of live peers."""
        return len(self._nodes)

    def node(self, ident: int) -> PeerNode:
        """Resolve a live peer by identifier."""
        node = self._nodes.get(ident)
        if node is None:
            raise NetworkError(f"no live peer with identifier {ident}")
        return node

    def try_node(self, ident: int) -> Optional[PeerNode]:
        """Resolve a peer, or None if it has departed (stale pointer)."""
        return self._nodes.get(ident)

    def peer_ids(self) -> Sequence[int]:
        """Live peer identifiers in ring order.

        The tuple is cached and reused until the next join/leave/crash, so
        read-only callers (maintenance sweeps, ground-truth scans) no longer
        pay an O(n) copy per call.
        """
        if self._ids_tuple is None:
            self._ids_tuple = tuple(self._sorted_ids)
        return self._ids_tuple

    def peers(self) -> Iterator[PeerNode]:
        """Live peers in ring order."""
        for ident in self._sorted_ids:
            yield self._nodes[ident]

    def random_peer(self) -> PeerNode:
        """A live peer chosen uniformly at random (estimation entry point)."""
        if not self._sorted_ids:
            raise NetworkError("network has no peers")
        index = int(self.rng.integers(0, len(self._sorted_ids)))
        return self._nodes[self._sorted_ids[index]]

    # ------------------------------------------------------------------
    # Data placement (oracle: bulk load is an out-of-band operation)
    # ------------------------------------------------------------------
    def owner_of(self, key: int) -> PeerNode:
        """True owner of a ring position (oracle view, no cost)."""
        return self._nodes[self._oracle_successor(key)]

    def owners_of_keys(self, keys: np.ndarray) -> list[PeerNode]:
        """True owners of many ring positions at once (oracle view, no cost).

        One vectorized ``searchsorted`` over the cached registry array
        replaces a bisect-per-key Python loop; the result matches
        :meth:`owner_of` element-wise.
        """
        if not self._sorted_ids:
            raise NetworkError("network has no peers")
        ids = self.sorted_ids_array()
        positions = np.searchsorted(ids, np.asarray(keys, dtype=np.uint64), side="left")
        positions[positions == ids.size] = 0
        nodes = self._nodes
        return [nodes[int(ids[p])] for p in positions]

    def owners_of_values(self, values) -> list[PeerNode]:
        """True owners of many data values at once (oracle view, no cost).

        Hashes all values in one vectorized pass (byte-identical to the
        scalar hash by the :meth:`OrderPreservingHash.map_values` contract)
        and resolves owners with one ``searchsorted`` — element-wise equal
        to calling :meth:`owner_of` on each value's hash.
        """
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            return []
        return self.owners_of_keys(self.data_hash.map_values(arr))

    def load_data(self, values: Iterable[float]) -> None:
        """Place data values on their owning peers (oracle bulk load)."""
        ids = self._sorted_ids
        if not ids:
            raise NetworkError("cannot load data into an empty network")
        if not isinstance(values, np.ndarray):
            values = list(values)
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            return
        # One stable sort: the hash preserves order, so each peer's values
        # are one run of it, already in store order.  Peer i's run ends
        # after the last key at or below its identifier; the keys past the
        # last peer wrap to peer 0 and, being the largest, follow its run.
        ordered = np.sort(arr, kind="stable")
        ends = np.searchsorted(
            self.data_hash.map_values(ordered), self.sorted_ids_array(), side="right"
        ).tolist()
        flat = ordered.tolist()
        wrapped = flat[ends[-1] :]
        start = 0
        for index, (ident, end) in enumerate(zip(ids, ends)):
            chunk = flat[start:end]
            if index == 0:
                chunk += wrapped
            start = end
            if chunk:
                store = self._nodes[ident].store
                if store.count:
                    store.insert_many(chunk)
                else:
                    store.adopt_sorted(chunk)

    # ------------------------------------------------------------------
    # Snapshot plane / ground truth (oracle view)
    # ------------------------------------------------------------------
    def snapshot(self) -> RingSnapshot:
        """The structure-of-arrays view of the current network state.

        Refreshed lazily against ``(topology_version, data_version)`` and
        updated *incrementally* from churn deltas — see
        :class:`repro.ring.snapshot.RingSnapshot`.  The snapshot is a pure
        view; node and store objects remain the source of truth.
        """
        self._snapshot.refresh()
        return self._snapshot

    def routing_view(self) -> tuple[np.ndarray, np.ndarray, RingPointers]:
        """Row identifiers, finger-scan matrix and resolved pointers for batch routing.

        The overlay half of the snapshot plane (see
        :meth:`RingSnapshot.routing_view`): routing reads no stored data,
        so it never pays for a data-plane refresh.
        """
        return self._snapshot.routing_view()

    @property
    def total_count(self) -> int:
        """Total items across all live peers."""
        return self.snapshot().total_count

    def all_values(self) -> np.ndarray:
        """Every stored value, sorted (the ground-truth dataset).

        Served from the snapshot plane; treat the array as read-only (it is
        cached until the next data or membership change).
        """
        return self.snapshot().sorted_values

    def peer_loads(self) -> np.ndarray:
        """Per-peer item counts in ring order (load-balance ground truth).

        Served from the snapshot plane; treat the array as read-only.
        """
        return self.snapshot().counts

    # ------------------------------------------------------------------
    # Message ledger helpers
    # ------------------------------------------------------------------
    def record(self, message_type: MessageType, count: int = 1, payload: float = 0.0) -> None:
        """Record simulated network traffic (optionally carrying payload)."""
        self.stats.record(message_type, count, payload=payload)

    def record_rpc(
        self, request: MessageType, reply: MessageType, reply_payload: float = 0.0
    ) -> None:
        """Record a request/reply pair; the reply may carry payload."""
        self.stats.record(request)
        self.stats.record(reply, payload=reply_payload)

    def reset_stats(self) -> None:
        """Zero the ledger (typically right after construction/loading)."""
        self.stats.reset()

    # ------------------------------------------------------------------
    # Domain helpers
    # ------------------------------------------------------------------
    @property
    def domain(self) -> tuple[float, float]:
        """The scalar data domain ``(low, high)``."""
        return (self.data_hash.low, self.data_hash.high)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RingNetwork(peers={self.n_peers}, items={self.total_count}, "
            f"bits={self.space.bits}, domain={self.domain})"
        )

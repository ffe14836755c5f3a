"""Tests for the network simulator: construction, placement, ground truth."""

import numpy as np
import pytest

from repro.ring.messages import MessageType
from repro.ring.network import NetworkError, RingNetwork

from tests.conftest import make_loaded_network


class TestConstruction:
    def test_create_counts(self):
        network = RingNetwork.create(32, seed=1)
        assert network.n_peers == 32
        assert len(network) == 32

    def test_create_rejects_zero(self):
        with pytest.raises(ValueError):
            RingNetwork.create(0)

    def test_single_peer_network(self):
        network = RingNetwork.create(1, seed=1)
        node = next(network.peers())
        assert node.successor_id == node.ident
        assert node.owns(12345)

    def test_ids_are_unique_and_sorted(self):
        network = RingNetwork.create(100, seed=2)
        ids = list(network.peer_ids())
        assert ids == sorted(ids)
        assert len(set(ids)) == 100

    def test_overlay_pointers_consistent(self):
        network = RingNetwork.create(50, seed=3)
        ids = list(network.peer_ids())
        for index, ident in enumerate(ids):
            node = network.node(ident)
            assert node.predecessor_id == ids[index - 1]
            assert node.successor_id == ids[(index + 1) % len(ids)]

    def test_fingers_exact_after_create(self):
        network = RingNetwork.create(40, seed=4)
        for node in network.peers():
            for k, finger in enumerate(node.fingers):
                assert finger == network._oracle_successor(node.finger_target(k))

    def test_construction_has_clean_ledger(self):
        network = RingNetwork.create(16, seed=5)
        assert network.stats.messages == 0

    def test_repeatable_with_seed(self):
        a = RingNetwork.create(20, seed=9)
        b = RingNetwork.create(20, seed=9)
        assert list(a.peer_ids()) == list(b.peer_ids())


class TestNodeAccess:
    def test_node_lookup(self):
        network = RingNetwork.create(8, seed=1)
        ident = network.peer_ids()[0]
        assert network.node(ident).ident == ident

    def test_node_missing_raises(self):
        network = RingNetwork.create(8, seed=1)
        with pytest.raises(NetworkError):
            network.node(123456789)

    def test_try_node_missing_returns_none(self):
        network = RingNetwork.create(8, seed=1)
        assert network.try_node(123456789) is None

    def test_random_peer_is_live(self):
        network = RingNetwork.create(8, seed=1)
        for _ in range(10):
            assert network.random_peer().ident in network

    def test_contains(self):
        network = RingNetwork.create(8, seed=1)
        assert network.peer_ids()[0] in network


class TestOwnershipAndPlacement:
    def test_ownership_partitions_ring(self):
        """Every key has exactly one owner, and intervals tile the ring."""
        network = RingNetwork.create(30, seed=6)
        total = sum(node.segment_length for node in network.peers())
        assert total == network.space.size

    def test_owner_of_matches_node_owns(self):
        network = RingNetwork.create(30, seed=6)
        rng = np.random.default_rng(0)
        for key in rng.integers(0, network.space.size, size=50, dtype=np.uint64):
            owner = network.owner_of(int(key))
            assert owner.owns(int(key))

    def test_load_data_places_each_item_at_owner(self):
        network, dataset = make_loaded_network(n_peers=32, n_items=1_000)
        for node in network.peers():
            for value in node.store:
                assert node.owns(network.data_hash(value))

    def test_load_data_conserves_count(self):
        network, dataset = make_loaded_network(n_peers=32, n_items=1_000)
        assert network.total_count == dataset.size

    def test_load_data_empty_ok(self):
        network = RingNetwork.create(4, seed=1)
        network.load_data([])
        assert network.total_count == 0

    def test_load_data_order_preserving(self):
        """Ring order of stored data equals value order (spot check)."""
        network, _ = make_loaded_network(n_peers=16, n_items=500)
        previous_max = -np.inf
        start = network.node(network._oracle_successor(0))
        ids = list(network.peer_ids())
        start_index = ids.index(start.ident)
        ordered = ids[start_index:] + ids[:start_index]
        for ident in ordered[1:]:  # first peer may wrap the origin
            node = network.node(ident)
            if node.store.count == 0:
                continue
            assert node.store.min() >= previous_max - 1e-12
            previous_max = node.store.max()


class TestGroundTruth:
    def test_all_values_sorted_and_complete(self):
        network, dataset = make_loaded_network(n_peers=16, n_items=300)
        values = network.all_values()
        assert values.size == 300
        assert np.all(np.diff(values) >= 0)
        np.testing.assert_allclose(np.sort(dataset.values), values)

    def test_peer_loads_shape(self):
        network, _ = make_loaded_network(n_peers=16, n_items=300)
        loads = network.peer_loads()
        assert loads.size == 16
        assert loads.sum() == 300

    def test_segment_lengths_sum_to_ring(self):
        network, _ = make_loaded_network(n_peers=16, n_items=10)
        assert sum(node.segment_length for node in network.peers()) == network.space.size


class TestLedger:
    def test_record_and_reset(self):
        network = RingNetwork.create(4, seed=1)
        network.record(MessageType.PROBE_REQUEST)
        network.record_rpc(MessageType.PREFIX_REQUEST, MessageType.PREFIX_REPLY)
        assert network.stats.messages == 3
        network.reset_stats()
        assert network.stats.messages == 0


class TestRegistryViewCaching:
    """peer_ids()/sorted_ids_array() are cached and churn-invalidated."""

    def test_peer_ids_returns_same_tuple_until_membership_changes(self):
        network = RingNetwork.create(24, seed=11)
        first = network.peer_ids()
        assert network.peer_ids() is first

    def test_peer_ids_invalidated_by_join_and_leave(self):
        from repro.ring import chord

        network = RingNetwork.create(24, seed=11)
        before = network.peer_ids()
        newcomer = chord.join(network, chord.random_unused_identifier(network))
        after_join = network.peer_ids()
        assert after_join is not before
        assert newcomer.ident in after_join and newcomer.ident not in before
        chord.leave_gracefully(network, newcomer.ident)
        after_leave = network.peer_ids()
        assert after_leave is not after_join
        assert tuple(after_leave) == tuple(before)

    def test_sorted_ids_array_matches_peer_ids(self):
        network = RingNetwork.create(24, seed=12)
        arr = network.sorted_ids_array()
        assert network.sorted_ids_array() is arr
        assert arr.dtype == np.uint64
        assert tuple(int(i) for i in arr) == tuple(network.peer_ids())

    def test_crash_invalidates_views(self):
        from repro.ring import chord

        network = RingNetwork.create(24, seed=13)
        victim = list(network.peer_ids())[5]
        chord.crash(network, victim)
        assert victim not in network.peer_ids()
        assert victim not in set(int(i) for i in network.sorted_ids_array())


class TestVersionToken:
    """The token is a staleness key: it must move with every mutation."""

    def test_each_mutation_after_a_read_moves_the_token(self):
        network, _ = make_loaded_network(n_peers=16, n_items=400, seed=5)
        network.snapshot()  # arms every store listener
        store = network.node(network.peer_ids()[3]).store
        tokens = [network.version_token]
        # Repeated writes to one store, with no snapshot refresh between
        # them: a cache keyed on the token read after the first write must
        # still see the second.
        for value in (0.25, 0.5, 0.75):
            store.insert(value)
            tokens.append(network.version_token)
        assert len(set(tokens)) == len(tokens)

    def test_routing_does_not_refresh_the_data_plane(self):
        network, _ = make_loaded_network(n_peers=16, n_items=400, seed=5)
        snap = network.snapshot()
        token = snap.version_token
        network.node(network.peer_ids()[2]).store.insert(0.5)
        network.routing_view()
        assert snap.version_token == token  # overlay only; data untouched
        assert network.snapshot().version_token == network.version_token

"""Tests for successor lists: construction, maintenance, and routing use."""

import numpy as np

from repro.ring import chord
from repro.ring.network import RingNetwork
from repro.ring.node import SUCCESSOR_LIST_LENGTH
from repro.ring.routing import route_to_key

from tests.conftest import make_loaded_network


class TestConstruction:
    def test_lists_filled_on_create(self):
        network = RingNetwork.create(32, seed=1)
        ids = list(network.peer_ids())
        for index, ident in enumerate(ids):
            node = network.node(ident)
            expected = [
                ids[(index + 1 + offset) % len(ids)]
                for offset in range(SUCCESSOR_LIST_LENGTH)
            ]
            assert node.successor_list == expected

    def test_small_ring_caps_length(self):
        network = RingNetwork.create(3, seed=2)
        for node in network.peers():
            assert len(node.successor_list) == 2

    def test_single_peer_list(self):
        network = RingNetwork.create(1, seed=3)
        node = next(network.peers())
        assert node.successor_list == [node.ident]


class TestMaintenance:
    def test_join_bootstraps_list(self):
        network, _ = make_loaded_network(n_peers=16, n_items=100)
        ident = chord.random_unused_identifier(network)
        new_node = chord.join(network, ident)
        assert new_node.successor_list
        assert new_node.successor_list[0] == new_node.successor_id

    def test_stabilize_refreshes_list(self):
        network, _ = make_loaded_network(n_peers=16, n_items=100)
        node = network.random_peer()
        node.successor_list = [123]  # corrupt it
        chord.stabilize(network, node)
        assert node.successor_list[0] == node.successor_id
        assert len(node.successor_list) >= 1
        assert 123 not in node.successor_list or node.successor_id == 123

    def test_lists_converge_after_churn(self):
        network, _ = make_loaded_network(n_peers=24, n_items=200)
        rng = np.random.default_rng(4)
        for _ in range(6):
            chord.join(network, chord.random_unused_identifier(network, rng))
            chord.crash(network, network.random_peer().ident)
        for _ in range(3):
            chord.maintenance_round(network)
        ids = list(network.peer_ids())
        for index, ident in enumerate(ids):
            node = network.node(ident)
            # After maintenance, the head of the list is the live successor.
            assert node.successor_list[0] == ids[(index + 1) % len(ids)]


class TestRoutingFallback:
    def test_survives_adjacent_crashes(self):
        """Routing must survive several *adjacent* failures — exactly what
        the successor list exists for."""
        network, _ = make_loaded_network(n_peers=48, n_items=300)
        ids = list(network.peer_ids())
        # Crash three adjacent peers without any maintenance.
        for victim in ids[10:13]:
            chord.crash(network, victim)
        rng = np.random.default_rng(5)
        for key in rng.integers(0, network.space.size, size=30, dtype=np.uint64):
            result = route_to_key(network, network.random_peer(), int(key))
            assert result.owner.ident == network.owner_of(int(key)).ident

    def test_dead_successor_repaired_through_list(self):
        network, _ = make_loaded_network(n_peers=24, n_items=100)
        ids = list(network.peer_ids())
        node = network.node(ids[0])
        chord.crash(network, ids[1])  # node's successor dies
        # The next list entry must be adopted during stabilization.
        chord.stabilize(network, node)
        assert node.successor_id == ids[2]

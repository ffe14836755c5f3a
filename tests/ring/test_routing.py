"""Tests for cost-counted routing."""

import math

import numpy as np
import pytest

from repro.ring.messages import MessageType
from repro.ring.network import RingNetwork
from repro.ring.routing import RoutingError, route_to_key, route_to_value, successor_walk


@pytest.fixture(scope="module")
def network():
    return RingNetwork.create(128, seed=11)


class TestRouteToKey:
    def test_reaches_true_owner(self, network):
        rng = np.random.default_rng(1)
        for key in rng.integers(0, network.space.size, size=40, dtype=np.uint64):
            start = network.random_peer()
            result = route_to_key(network, start, int(key))
            assert result.owner.ident == network.owner_of(int(key)).ident

    def test_hops_are_logarithmic(self, network):
        rng = np.random.default_rng(2)
        hops = []
        for key in rng.integers(0, network.space.size, size=60, dtype=np.uint64):
            result = route_to_key(network, network.random_peer(), int(key))
            hops.append(result.hops)
        # Classic Chord: ~0.5*log2(N) expected; allow generous headroom.
        assert float(np.mean(hops)) <= 2 * math.log2(network.n_peers)

    def test_self_lookup_zero_hops(self, network):
        node = network.random_peer()
        result = route_to_key(network, node, node.ident)
        assert result.hops == 0
        assert result.owner.ident == node.ident

    def test_records_hops_in_ledger(self, network):
        network.reset_stats()
        start = network.random_peer()
        target = network.space.add(start.ident, network.space.size // 2)
        result = route_to_key(network, start, target)
        assert network.stats.hops == result.hops

    def test_invalid_key_rejected(self, network):
        with pytest.raises(ValueError):
            route_to_key(network, network.random_peer(), network.space.size)

    def test_max_hops_exceeded(self, network):
        start = network.random_peer()
        far = network.space.add(start.ident, network.space.size // 2)
        if network.owner_of(far).ident == start.ident:  # pragma: no cover
            far = network.space.add(far, 12345)
        with pytest.raises(RoutingError):
            route_to_key(network, start, far, max_hops=0)

    def test_tolerates_dead_finger(self):
        """Routing must survive a finger pointing at a departed peer."""
        net = RingNetwork.create(64, seed=13)
        start = net.node(net.peer_ids()[0])
        # Kill the node the longest finger points to, without repair.
        victim_id = start.fingers[-1]
        if victim_id == start.ident:  # pragma: no cover - placement corner
            victim_id = start.fingers[-2]
        net._unregister(victim_id)
        target = net.space.add(start.ident, net.space.size // 2 + 99)
        result = route_to_key(net, start, target)
        # Compare against live-ring ownership (the oracle): the victim's
        # successor has a stale predecessor pointer until stabilization, so
        # its own node-local owns() is conservative — but routing must still
        # deliver to the correct live peer.
        assert result.owner.ident == net.owner_of(target).ident

    def test_timeouts_counted(self):
        net = RingNetwork.create(64, seed=14)
        start = net.node(net.peer_ids()[0])
        victim_id = start.fingers[-1]
        # Target just past the farthest finger: while that peer lives the
        # lookup is one forward to it plus the delivery to its successor.
        target = net.space.add(victim_id, 1)
        assert route_to_key(net, start, target).hops == 2
        net._unregister(victim_id)
        net.reset_stats()
        result = route_to_key(net, start, target)
        # Unmaintained, three peers on the greedy path (the start and the
        # two it falls back to) still hold the departed peer as their
        # farthest in-arc finger: each tries it once (a timed-out hop),
        # then forwards over its next finger.
        assert result.timeouts == 3
        assert result.hops == 3 + 3 + 1  # timeouts, forwards, delivery
        assert net.stats.count_of(MessageType.LOOKUP_HOP) == result.hops
        assert result.owner.ident == net.owner_of(target).ident


class TestRouteToValue:
    def test_matches_key_routing(self, network):
        start = network.random_peer()
        result = route_to_value(network, start, 0.25)
        assert result.owner.ident == network.owner_of(network.data_hash(0.25)).ident


class TestSuccessorWalk:
    def test_walk_visits_ring_order(self, network):
        ids = list(network.peer_ids())
        start = network.node(ids[0])
        visited = successor_walk(network, start, 5)
        expected = [ids[(1 + i) % len(ids)] for i in range(5)]
        assert [n.ident for n in visited] == expected

    def test_walk_counts_messages(self, network):
        network.reset_stats()
        successor_walk(network, network.random_peer(), 7)
        assert network.stats.hops == 7

    def test_walk_zero_steps(self, network):
        assert successor_walk(network, network.random_peer(), 0) == []

    def test_walk_negative_rejected(self, network):
        with pytest.raises(ValueError):
            successor_walk(network, network.random_peer(), -1)

    def test_full_walk_returns_to_start(self, network):
        start = network.random_peer()
        visited = successor_walk(network, start, network.n_peers)
        assert visited[-1].ident == start.ident

"""Tests for Chord protocol dynamics: join, leave, crash, maintenance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ring import chord, mutation
from repro.ring.faults import FaultPlane
from repro.ring.identifier import IdentifierSpace, RingInterval
from repro.ring.network import NetworkError, RingNetwork
from repro.ring.storage import LocalStore

from tests.conftest import make_loaded_network


def ring_is_consistent(network: RingNetwork) -> bool:
    """Successor/predecessor pointers agree with the oracle ring order."""
    ids = list(network.peer_ids())
    for index, ident in enumerate(ids):
        node = network.node(ident)
        if node.successor_id != ids[(index + 1) % len(ids)]:
            return False
        if node.predecessor_id != ids[index - 1]:
            return False
    return True


def data_at_owners(network: RingNetwork) -> bool:
    """Every stored item sits at the peer owning its ring position."""
    for node in network.peers():
        for value in node.store:
            if not node.owns(network.data_hash(value)):
                return False
    return True


class TestJoin:
    def test_join_grows_network(self):
        network, _ = make_loaded_network(n_peers=16, n_items=500)
        ident = chord.random_unused_identifier(network)
        chord.join(network, ident)
        assert network.n_peers == 17
        assert ident in network

    def test_join_duplicate_rejected(self):
        network, _ = make_loaded_network(n_peers=8, n_items=10)
        with pytest.raises(ValueError):
            chord.join(network, network.peer_ids()[0])

    def test_join_preserves_items(self):
        network, dataset = make_loaded_network(n_peers=16, n_items=500)
        for _ in range(5):
            chord.join(network, chord.random_unused_identifier(network))
        assert network.total_count == dataset.size

    def test_join_hands_off_correct_items(self):
        network, _ = make_loaded_network(n_peers=16, n_items=500)
        for _ in range(5):
            chord.join(network, chord.random_unused_identifier(network))
        assert data_at_owners(network)

    def test_join_links_ring(self):
        network, _ = make_loaded_network(n_peers=16, n_items=100)
        for _ in range(4):
            chord.join(network, chord.random_unused_identifier(network))
        assert ring_is_consistent(network)

    def test_join_records_cost(self):
        network, _ = make_loaded_network(n_peers=16, n_items=100)
        network.reset_stats()
        chord.join(network, chord.random_unused_identifier(network))
        assert network.stats.messages > 0

    def test_join_empty_network_rejected(self):
        network = RingNetwork.create(1, seed=1)
        network._unregister(network.peer_ids()[0])
        with pytest.raises(NetworkError):
            chord.join(network, 42)


    @settings(max_examples=200, deadline=None)
    @given(
        bits=st.sampled_from([6, 16, 64]),
        values=st.lists(st.floats(-0.25, 1.25), max_size=40),
        start=st.floats(0.0, 1.0),
        end=st.floats(0.0, 1.0),
        equal=st.booleans(),
    )
    def test_handoff_matches_membership_predicate(self, bits, values, start, end, equal):
        """The splice's slab handoff pops exactly the values whose hash lies
        in ``(start, end]``: wrapping intervals, the full ring
        (``start == end``), clamped out-of-domain values and ties included."""
        network = RingNetwork(IdentifierSpace(bits))
        size = network.space.size
        start_id = min(int(start * size), size - 1)
        end_id = start_id if equal else min(int(end * size), size - 1)
        interval = RingInterval(network.space, start_id, end_id)
        store = LocalStore()
        store.insert_many(values)
        expected = [v for v in store.values() if interval.contains(network.data_hash(v))]
        kept = [v for v in store.values() if not interval.contains(network.data_hash(v))]
        assert chord._take_interval(network, store, start_id, end_id) == expected
        assert list(store.values()) == kept


class TestLeave:
    def test_graceful_leave_preserves_items(self):
        network, dataset = make_loaded_network(n_peers=16, n_items=500)
        for _ in range(5):
            victim = network.random_peer()
            chord.leave_gracefully(network, victim.ident)
        assert network.total_count == dataset.size
        assert network.n_peers == 11

    def test_graceful_leave_relocates_to_owner(self):
        network, _ = make_loaded_network(n_peers=16, n_items=500)
        for _ in range(5):
            chord.leave_gracefully(network, network.random_peer().ident)
        assert data_at_owners(network)

    def test_graceful_leave_relinks_ring(self):
        network, _ = make_loaded_network(n_peers=16, n_items=100)
        for _ in range(5):
            chord.leave_gracefully(network, network.random_peer().ident)
        assert ring_is_consistent(network)

    def test_last_peer_cannot_leave(self):
        network = RingNetwork.create(1, seed=1)
        with pytest.raises(NetworkError):
            chord.leave_gracefully(network, network.peer_ids()[0])


class TestCrash:
    def test_crash_loses_data(self):
        network, dataset = make_loaded_network(n_peers=16, n_items=500)
        victim = max(network.peers(), key=lambda n: n.store.count)
        lost = chord.crash(network, victim.ident)
        assert lost == dataset.size - network.total_count
        assert lost > 0

    def test_crash_leaves_stale_pointers(self):
        network, _ = make_loaded_network(n_peers=16, n_items=100)
        ids = list(network.peer_ids())
        victim = ids[3]
        successor = network.node(ids[4])
        chord.crash(network, victim)
        assert successor.predecessor_id == victim  # stale until stabilize

    def test_stabilize_repairs_after_crash(self):
        network, _ = make_loaded_network(n_peers=16, n_items=100)
        chord.crash(network, network.random_peer().ident)
        for _ in range(3):
            chord.maintenance_round(network)
        assert ring_is_consistent(network)

    def test_last_peer_cannot_crash(self):
        network = RingNetwork.create(1, seed=1)
        with pytest.raises(NetworkError):
            chord.crash(network, network.peer_ids()[0])


class TestMaintenance:
    def test_fix_fingers_converges_after_joins(self):
        network, _ = make_loaded_network(n_peers=32, n_items=100)
        for _ in range(8):
            chord.join(network, chord.random_unused_identifier(network))
        # Run enough rounds to repair all 64 fingers of every node.
        for _ in range(70):
            chord.maintenance_round(network)
        for node in network.peers():
            for k, finger in enumerate(node.fingers):
                assert finger == network._oracle_successor(node.finger_target(k))

    def test_maintenance_on_stable_ring_is_noop(self):
        network, _ = make_loaded_network(n_peers=16, n_items=100)
        before_ids = list(network.peer_ids())
        chord.maintenance_round(network)
        assert list(network.peer_ids()) == before_ids
        assert ring_is_consistent(network)

    @pytest.mark.parametrize("path", ["kernel", "sweep", "lossy"])
    def test_round_advances_topology_version_at_most_once(self, path, monkeypatch):
        """Whichever path runs it, one maintenance round is one overlay
        change: the matrix kernel, the loss-free sweep the kernel declines
        to, and the lossy sweep."""
        network, _ = make_loaded_network(n_peers=40, n_items=400, seed=8)
        for ident in list(network.peer_ids())[3:40:7]:
            chord.crash(network, ident)
        if path == "lossy":
            network.install_faults(FaultPlane(loss_rate=0.2))
        accepted = []
        kernel = mutation.matrix_maintenance_round

        def spy(*args):
            accepted.append(kernel(*args))
            return accepted[-1]

        monkeypatch.setattr(mutation, "matrix_maintenance_round", spy)
        for _ in range(3):
            if path == "sweep":
                # Far finger targets need multi-hop fixes, which the kernel
                # declines.
                for node in network.peers():
                    node.next_finger_index = network.space.bits - 1
            before = network.topology_version
            chord.maintenance_round(network)
            assert network.topology_version - before <= 1
        assert accepted == {"kernel": [True] * 3, "sweep": [False] * 3, "lossy": []}[path]

    def test_random_unused_identifier_is_unused(self):
        network, _ = make_loaded_network(n_peers=8, n_items=10)
        rng = np.random.default_rng(3)
        for _ in range(10):
            assert chord.random_unused_identifier(network, rng) not in network

    def test_mixed_churn_sequence_keeps_invariants(self):
        network, _ = make_loaded_network(n_peers=24, n_items=400)
        rng = np.random.default_rng(5)
        for step in range(30):
            if rng.random() < 0.5:
                chord.join(network, chord.random_unused_identifier(network, rng))
            elif network.n_peers > 4:
                chord.leave_gracefully(network, network.random_peer().ident)
            chord.maintenance_round(network)
        assert ring_is_consistent(network)
        assert data_at_owners(network)

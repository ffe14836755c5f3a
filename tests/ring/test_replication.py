"""Tests for successor-list replication and crash recovery."""

import numpy as np
import pytest

from repro.ring import chord
from repro.ring.churn import ChurnConfig, ChurnProcess
from repro.ring.messages import MessageType
from repro.ring.replication import ReplicationManager

from tests.conftest import make_loaded_network


class TestReplicationRounds:
    def test_factor_one_is_noop(self):
        network, _ = make_loaded_network(n_peers=16, n_items=200)
        manager = ReplicationManager(network, factor=1)
        assert manager.replicate_round() == 0
        assert all(not n.replicas for n in network.peers())

    def test_invalid_factor(self):
        network, _ = make_loaded_network(n_peers=4, n_items=10)
        with pytest.raises(ValueError):
            ReplicationManager(network, factor=0)

    def test_each_node_replicated_to_successors(self):
        network, _ = make_loaded_network(n_peers=16, n_items=400)
        ReplicationManager(network, factor=3).replicate_round()
        ids = list(network.peer_ids())
        for index, ident in enumerate(ids):
            node = network.node(ident)
            for offset in (1, 2):
                holder = network.node(ids[(index + offset) % len(ids)])
                assert holder.replicas[ident] == tuple(node.store.values())

    def test_round_returns_push_count(self):
        network, _ = make_loaded_network(n_peers=16, n_items=100)
        pushes = ReplicationManager(network, factor=3).replicate_round()
        assert pushes == 16 * 2

    def test_pushes_are_counted_in_ledger(self):
        network, _ = make_loaded_network(n_peers=8, n_items=50)
        network.reset_stats()
        ReplicationManager(network, factor=2).replicate_round()
        assert network.stats.count_of(MessageType.DATA_TRANSFER) == 8

    def test_small_ring_caps_holders(self):
        network, _ = make_loaded_network(n_peers=2, n_items=20)
        manager = ReplicationManager(network, factor=4)
        node = network.random_peer()
        assert manager.replicate_node(node) == 1  # only one other peer

    def test_garbage_collects_dead_owners(self):
        network, _ = make_loaded_network(n_peers=16, n_items=200)
        manager = ReplicationManager(network, factor=3)
        manager.replicate_round()
        victim = network.random_peer().ident
        chord.crash(network, victim)
        manager.recover_after_crash(victim)
        manager.replicate_round()
        assert all(victim not in n.replicas for n in network.peers())


class TestRecovery:
    def test_crash_with_replication_recovers_items(self):
        network, dataset = make_loaded_network(n_peers=16, n_items=500)
        manager = ReplicationManager(network, factor=3)
        manager.replicate_round()
        victim = max(network.peers(), key=lambda n: n.store.count)
        lost = chord.crash(network, victim.ident)
        assert lost > 0
        report = manager.recover_after_crash(victim.ident)
        assert report.recovered == lost
        assert network.total_count == dataset.size

    def test_recovered_items_land_at_owners(self):
        network, _ = make_loaded_network(n_peers=16, n_items=500)
        manager = ReplicationManager(network, factor=3)
        manager.replicate_round()
        victim = max(network.peers(), key=lambda n: n.store.count)
        chord.crash(network, victim.ident)
        manager.recover_after_crash(victim.ident)
        chord.maintenance_round(network)
        for node in network.peers():
            for value in node.store:
                assert node.owns(network.data_hash(value))

    def test_unreplicated_crash_recovers_nothing(self):
        network, _ = make_loaded_network(n_peers=16, n_items=500)
        manager = ReplicationManager(network, factor=3)  # no round run
        victim = network.random_peer().ident
        chord.crash(network, victim)
        report = manager.recover_after_crash(victim)
        assert report.recovered == 0

    def test_items_added_after_snapshot_stay_lost(self):
        network, _ = make_loaded_network(n_peers=16, n_items=200)
        manager = ReplicationManager(network, factor=3)
        manager.replicate_round()
        victim = network.random_peer()
        fresh_value = 0.123456789
        owner = network.owner_of(network.data_hash(fresh_value))
        owner.store.insert(fresh_value)
        before = network.total_count
        chord.crash(network, owner.ident)
        manager.recover_after_crash(owner.ident)
        # Everything except the post-snapshot insert comes back.
        assert network.total_count == before - 1


class TestChurnIntegration:
    def run_crash_churn(self, factor):
        network, dataset = make_loaded_network(n_peers=64, n_items=2_000, seed=8)
        manager = ReplicationManager(network, factor=factor) if factor > 1 else None
        process = ChurnProcess(
            network,
            ChurnConfig(join_rate=0.05, leave_rate=0.05, crash_fraction=1.0, min_peers=16),
            rng=np.random.default_rng(4),
            replication=manager,
        )
        report = process.run(10)
        return dataset.size, network.total_count, report

    def test_replication_prevents_most_loss(self):
        size, remaining_none, _ = self.run_crash_churn(factor=1)
        size2, remaining_rep, report = self.run_crash_churn(factor=3)
        loss_none = size - remaining_none
        loss_rep = size2 - remaining_rep
        assert loss_rep < loss_none / 4
        assert report.items_recovered > 0

    def test_replication_every_validated(self):
        network, _ = make_loaded_network(n_peers=8, n_items=50)
        with pytest.raises(ValueError):
            ChurnProcess(network, replication_every=0)

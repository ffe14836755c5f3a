"""Property-style tests for the ring snapshot plane.

The snapshot is maintained incrementally from churn deltas; its one
correctness obligation is to stay indistinguishable from a from-scratch
rebuild.  These tests interleave joins, graceful leaves, crashes, and
direct store writes in randomized rounds and assert, after every round,
that the incrementally refreshed snapshot equals both the raw object
graph and a fresh :class:`RingSnapshot` built from nothing.
"""

import numpy as np
import pytest

from repro.core.baselines.random_walk import _build_adjacency
from repro.ring.chord import crash, join, leave_gracefully, maintenance_round
from repro.ring.snapshot import RingSnapshot

from tests.conftest import make_loaded_network


def _reference_arrays(network):
    """Data-plane ground truth computed straight off the object graph."""
    ids = sorted(network.peer_ids())
    chunks = [np.asarray(list(network.node(ident).store), dtype=float) for ident in ids]
    counts = np.asarray([c.size for c in chunks], dtype=np.int64)
    values = np.concatenate(chunks) if chunks else np.empty(0)
    return (
        np.asarray(ids, dtype=np.uint64),
        counts,
        np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(counts))),
        values,
        np.sort(values),
    )


def _assert_snapshot_exact(network):
    """The incremental snapshot must equal the reference and a cold rebuild."""
    snap = network.snapshot()
    ids, counts, cum, values, sorted_values = _reference_arrays(network)
    assert np.array_equal(snap.ids, ids)
    assert np.array_equal(snap.counts, counts)
    assert np.array_equal(snap.cum_counts, cum)
    assert np.array_equal(snap.values, values)
    assert np.array_equal(snap.sorted_values, sorted_values)
    assert snap.total_count == int(cum[-1])
    for index, ident in enumerate(ids.tolist()):
        assert np.array_equal(snap.chunk(ident), values[cum[index] : cum[index + 1]])
    # A snapshot that has never seen the network takes the full-rebuild
    # path; byte-equality with it proves the delta path lost nothing.
    cold = RingSnapshot(network).refresh()
    assert np.array_equal(snap.ids, cold.ids)
    assert np.array_equal(snap.values, cold.values)
    assert np.array_equal(snap.sorted_values, cold.sorted_values)


def _random_live_ident(network, rng):
    ids = list(network.peer_ids())
    return int(ids[int(rng.integers(0, len(ids)))])


def _random_free_ident(network, rng):
    while True:
        ident = int(rng.integers(0, network.space.size, dtype=np.uint64))
        if ident not in network:
            return ident


def _churn_round(network, rng, joins, leaves, crashes, writes):
    """One interleaved round of membership and data mutations."""
    operations = (
        ["join"] * joins + ["leave"] * leaves + ["crash"] * crashes + ["write"] * writes
    )
    rng.shuffle(operations)
    for op in operations:
        if op == "join":
            join(network, _random_free_ident(network, rng))
        elif op == "leave" and network.n_peers > 4:
            leave_gracefully(network, _random_live_ident(network, rng))
        elif op == "crash" and network.n_peers > 4:
            crash(network, _random_live_ident(network, rng))
        elif op == "write":
            node = network.random_peer()
            low, high = network.domain
            node.store.insert_many(rng.uniform(low, high, size=int(rng.integers(1, 40))))


class TestSnapshotChurnEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_interleaved_churn_rounds(self, seed):
        network, _ = make_loaded_network(n_peers=24, n_items=600, seed=seed)
        rng = np.random.default_rng(seed + 100)
        _assert_snapshot_exact(network)
        for round_index in range(8):
            _churn_round(network, rng, joins=2, leaves=1, crashes=1, writes=3)
            if round_index % 2 == 0:
                maintenance_round(network)
            _assert_snapshot_exact(network)

    def test_write_only_rounds_use_dirty_stores(self):
        # No membership change: the delta path runs purely off the
        # dirty-store set.
        network, _ = make_loaded_network(n_peers=16, n_items=400, seed=7)
        rng = np.random.default_rng(7)
        network.snapshot()
        for _ in range(5):
            _churn_round(network, rng, joins=0, leaves=0, crashes=0, writes=4)
            _assert_snapshot_exact(network)

    def test_removals_with_duplicate_values(self):
        # Duplicated values stress the occurrence-rank delete: removing one
        # peer's copies must not delete another peer's equal items.
        network, _ = make_loaded_network(n_peers=12, n_items=200, seed=11)
        rng = np.random.default_rng(11)
        dup = float(np.mean(network.domain))
        for node in list(network.peers()):
            node.store.insert_many([dup] * 3)
        network.snapshot()
        for _ in range(4):
            crash(network, _random_live_ident(network, rng))
            leave_gracefully(network, _random_live_ident(network, rng))
            _assert_snapshot_exact(network)

    def test_bulk_turnover_triggers_full_resort(self):
        # Churning most of the data in one delta crosses the full-rebuild
        # fraction; the answer must not change.
        network, _ = make_loaded_network(n_peers=8, n_items=300, seed=13)
        rng = np.random.default_rng(13)
        network.snapshot()
        low, high = network.domain
        for node in list(network.peers()):
            node.store.pop_all()
            node.store.insert_many(rng.uniform(low, high, size=80))
        _assert_snapshot_exact(network)

    def test_adjacency_matches_scalar_reference(self):
        network, _ = make_loaded_network(n_peers=20, n_items=100, seed=17)
        rng = np.random.default_rng(17)
        for _ in range(3):
            _churn_round(network, rng, joins=1, leaves=1, crashes=1, writes=0)
            maintenance_round(network)
            assert network.snapshot().adjacency() == _build_adjacency(network)

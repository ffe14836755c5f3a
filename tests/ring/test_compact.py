"""Tests for the compact (structure-of-arrays) ring backend.

The compact backend's contract has two halves: *equivalence* — membership,
data placement, and routing match the object backend peer for peer and hop
for hop on the stabilized ring — and *compactness* — the per-peer byte
footprint stays bounded (the CI memory budget) no matter the data volume.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core.estimator import DistributionFreeEstimator
from repro.core.synopsis import summarize_compact
from repro.ring.compact import CompactRing
from repro.ring.messages import MessageType
from repro.ring.network import RingNetwork
from repro.ring.routing import route_to_key

#: CI memory budget (bytes/peer) the E1 smoke job enforces; the measured
#: footprint at N=10^6 is ~224 B/peer (see docs/PERFORMANCE.md).
BYTES_PER_PEER_BUDGET = 512.0

N = 256


def _pair(n=N, seed=11):
    """An object-backed network and its compact twin, same seed."""
    network = RingNetwork.create(n, seed=seed)
    compact = RingNetwork.create(n, seed=seed, compact=True)
    assert isinstance(compact, CompactRing)
    return network, compact


class TestConstruction:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_membership_matches_object_backend(self, seed):
        network = RingNetwork.create(500, seed=seed)
        compact = RingNetwork.create(500, seed=seed, compact=True)
        assert compact.n_peers == network.n_peers == 500
        assert np.array_equal(
            compact.ids, np.asarray(sorted(network.peer_ids()), dtype=np.uint64)
        )

    def test_compact_refuses_loss_rate(self):
        with pytest.raises(ValueError):
            RingNetwork.create(16, loss_rate=0.1, compact=True)

    def test_build_rejects_empty_ring(self):
        with pytest.raises(ValueError):
            CompactRing.build(0)

    def test_scan_matches_snapshot_finger_tables(self):
        network, compact = _pair(n=64, seed=3)
        expected = network.snapshot().finger_scan_tables()
        assert compact.scan.shape == expected.shape
        assert np.array_equal(compact.scan, expected)


class TestDataPlane:
    def test_load_counts_matches_object_placement(self):
        network, compact = _pair(seed=5)
        values = np.random.default_rng(2).random(20_000)
        network.load_data(values)
        compact.load_counts(values)
        assert np.array_equal(compact.counts, network.peer_loads())
        assert compact.total_count == 20_000

    def test_load_counts_accumulates(self):
        _network, compact = _pair(n=32, seed=5)
        values = np.random.default_rng(3).random(500)
        compact.load_counts(values[:300])
        compact.load_counts(values[300:])
        once = RingNetwork.create(32, seed=5, compact=True)
        once.load_counts(values)
        assert np.array_equal(compact.counts, once.counts)

    def test_empty_load_is_a_noop(self):
        _network, compact = _pair(n=32, seed=5)
        compact.load_counts(np.empty(0))
        assert compact.total_count == 0


class TestRouting:
    def test_route_batch_matches_route_to_key(self):
        network, compact = _pair(seed=11)
        rng = np.random.default_rng(4)
        lookups = 500
        ids = list(network.peer_ids())
        entries = rng.integers(0, len(ids), size=lookups).astype(np.int64)
        keys = rng.integers(0, network.space.size, size=lookups, dtype=np.uint64)

        network.reset_stats()
        expected_owner, expected_hops = [], []
        for e, k in zip(entries, keys):
            result = route_to_key(network, network.node(ids[int(e)]), int(k))
            expected_owner.append(result.owner.ident)
            expected_hops.append(result.hops)

        owner_idx, hops = compact.route_batch(entries, keys)
        assert [int(compact.ids[i]) for i in owner_idx] == expected_owner
        assert hops.tolist() == expected_hops
        # Same hops, same ledger: one bulk LOOKUP_HOP record.
        assert compact.stats.as_dict() == network.stats.as_dict()

    def test_route_batch_traffic_counts_every_hop(self):
        _network, compact = _pair(seed=11)
        rng = np.random.default_rng(6)
        entries = rng.integers(0, compact.n_peers, size=200).astype(np.int64)
        keys = rng.integers(0, compact.space.size, size=200, dtype=np.uint64)
        traffic = np.zeros(compact.n_peers, dtype=np.int64)
        _owners, hops = compact.route_batch(entries, keys, traffic=traffic)
        assert int(traffic.sum()) == int(hops.sum())

    def test_empty_batch(self):
        _network, compact = _pair(n=32, seed=1)
        owners, hops = compact.route_batch(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint64)
        )
        assert owners.size == 0 and hops.size == 0

    def test_routing_round_summary(self):
        _network, compact = _pair(seed=11)
        summary = compact.routing_round(lookups=300, rng=np.random.default_rng(7))
        assert summary["lookups"] == 300.0
        assert summary["total_hops"] == summary["mean_hops"] * 300.0
        assert 1.0 <= summary["mean_hops"] <= np.log2(N) + 2
        assert summary["hot_peer_messages"] >= 1.0
        assert 0 <= summary["hot_peer_index"] < compact.n_peers
        assert compact.stats.count_of(MessageType.LOOKUP_HOP) == summary["total_hops"]

    def test_routing_round_deterministic_per_slab(self):
        # Slab size is part of the draw schedule (entries/keys are drawn
        # per slab), so determinism is per (seed, slab) pair.
        _network, a = _pair(seed=13)
        _network2, b = _pair(seed=13)
        one = a.routing_round(lookups=300, rng=np.random.default_rng(9), slab=64)
        again = b.routing_round(lookups=300, rng=np.random.default_rng(9), slab=64)
        assert one == again

    def test_routing_round_rejects_negative(self):
        _network, compact = _pair(n=32, seed=1)
        with pytest.raises(ValueError):
            compact.routing_round(lookups=-1)


class TestGossip:
    def test_push_sum_conserves_mass_and_converges(self):
        _network, compact = _pair(seed=17)
        compact.load_counts(np.random.default_rng(8).random(10_000))
        true_mean = compact.counts.mean()
        errors = []
        for _ in range(40):
            summary = compact.gossip_round(rng=np.random.default_rng(len(errors)))
            errors.append(summary["max_rel_error"])
            # Push-sum invariant: total value and total weight are conserved.
            assert compact._gossip_value.sum() == pytest.approx(compact.counts.sum())
            assert compact._gossip_weight.sum() == pytest.approx(compact.n_peers)
            assert summary["true_mean_load"] == pytest.approx(true_mean)
        # Directional finger pushes mix slower than uniform gossip; after
        # 40 rounds the worst peer sits within a few percent of the mean.
        assert errors[-1] < 0.05
        assert errors[-1] < errors[0] / 10.0

    def test_gossip_records_ledger_traffic(self):
        _network, compact = _pair(n=64, seed=2)
        compact.gossip_round(rng=np.random.default_rng(1))
        assert compact.stats.count_of(MessageType.GOSSIP_PUSH) == 64
        assert compact.stats.payload_of(MessageType.GOSSIP_PUSH) == 128.0

    def test_new_load_resets_gossip_state(self):
        _network, compact = _pair(n=64, seed=2)
        compact.gossip_round(rng=np.random.default_rng(1))
        assert compact._gossip_value is not None
        compact.load_counts(np.random.default_rng(2).random(100))
        assert compact._gossip_value is None


class TestMemoryFootprint:
    def test_memory_report_shape(self):
        _network, compact = _pair(n=64, seed=2)
        report = compact.memory_report()
        assert report["total_bytes"] == (
            report["ids"]
            + report["counts"]
            + report["scan"]
            + report["synopsis_seg_low"]
            + report["synopsis_seg_high"]
        )
        assert report["bytes_per_peer"] == report["total_bytes"] / 64.0
        assert report["scan_width"] == float(compact.scan.shape[1])
        # The bucket-count matrix is lazy: geometry only before any load.
        assert report["synopsis_bytes"] == (
            report["synopsis_seg_low"] + report["synopsis_seg_high"]
        )
        assert "synopsis_hist" not in report
        compact.load_counts(np.random.default_rng(3).random(500))
        summarize_compact(compact, [0, 5, 5, 9], compact.synopsis_buckets)
        grown = compact.memory_report()
        assert grown["total_bytes"] == sum(
            grown[column]
            for column in ("ids", "counts", "scan", "synopsis_seg_low", "synopsis_seg_high")
            + ("synopsis_hist", "synopsis_wrap_hist")
            if column in grown
        )
        assert grown["bytes_per_peer"] == grown["total_bytes"] / 64.0

    def test_repeated_estimates_keep_no_per_probe_state(self):
        """Replies are columns of one batch: the ring keeps nothing per probe."""
        ring = CompactRing.build(2000, seed=4)
        ring.load_counts(np.random.default_rng(5).random(20_000))
        estimator = DistributionFreeEstimator(probes=64)
        rng = np.random.default_rng(6)
        estimator.estimate(ring, rng=rng)  # first call: lazy imports and plane
        report = ring.memory_report()
        gc.collect()
        tracemalloc.start()
        try:
            start, _peak = tracemalloc.get_traced_memory()
            for _ in range(200):
                estimator.estimate(ring, rng=rng)
            gc.collect()
            end, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ring.memory_report() == report
        # 200 x 64 probes hit every one of the 2000 peers many times over;
        # one kept reply per peer would be hundreds of KB.
        assert end - start < 32 * 1024

    def test_bytes_per_peer_within_ci_budget_at_1e5(self):
        ring = CompactRing.build(100_000, seed=0)
        report = ring.memory_report()
        assert report["bytes_per_peer"] <= BYTES_PER_PEER_BUDGET
        # The footprint is independent of data volume by construction.
        ring.load_counts(np.random.default_rng(0).random(50_000))
        assert ring.memory_report()["counts"] == report["counts"]

    def test_blockwise_scan_matches_single_block(self):
        # Force multiple blocks through a tiny block size by monkeypatching
        # the module constant is avoided: instead compare two builds whose
        # row counts straddle nothing — the scan is a pure function of ids,
        # so slicing rows out of a larger ring's scan must match a direct
        # searchsorted reference.
        ring = CompactRing.build(300, seed=4)
        ids = ring.ids
        mask = np.uint64(ring.space.size - 1)
        powers = np.uint64(1) << np.arange(ring.space.bits, dtype=np.uint64)
        targets = (ids[:, None] + powers[None, :]) & mask
        indices = np.searchsorted(ids, targets, side="left")
        indices[indices == ids.size] = 0
        fingers = ids[indices]
        for row in (0, 150, 299):
            distinct = np.unique(fingers[row])
            row_entries = set(ring.scan[row].tolist())
            assert set(distinct.tolist()) <= row_entries | {int(ids[row])}

"""Batch routing over crashed, unmaintained object rings.

:func:`route_probes_batch` must reproduce the scalar reference
:func:`route_to_key` probe for probe — owner, hop count, timeouts and the
``LOOKUP_HOP`` ledger — on rings whose pointers were left stale: crashed
peers behind fingers (timeout and exclude), behind successor pointers
(successor-list failover) and self-looped successors (a join that has not
stabilized yet).  The kernel finishes every lookup itself.
"""

import numpy as np
import pytest

from repro.ring import routing
from repro.ring.chord import crash
from repro.ring.compact import CompactRing
from repro.ring.lockstep import FAILURES, route_lockstep
from repro.ring.messages import MessageType
from repro.ring.network import RingNetwork
from repro.ring.routing import RoutingError, route_probes_batch, route_to_key

SEEDS = range(6)


def _crashed_ring(seed, n=400, crashed=0.15, self_loops=6):
    """A ring with ``crashed`` of its peers crashed and no maintenance run."""
    network = RingNetwork.create(n, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    ids = list(network.peer_ids())
    for index in rng.choice(len(ids), size=int(crashed * n), replace=False).tolist():
        crash(network, ids[index])
    survivors = list(network.peer_ids())
    for index in rng.choice(len(survivors), size=self_loops, replace=False).tolist():
        node = network.node(survivors[index])
        node.successor_id = node.ident
    network.note_overlay_change()
    return network


def _probes(network, count, seed):
    rng = np.random.default_rng(seed)
    entries = rng.integers(0, network.n_peers, size=count).astype(np.int64)
    keys = rng.integers(0, network.space.size, size=count, dtype=np.uint64)
    return entries, keys


def _reference(network, entries, keys):
    """Per-probe scalar routes: owner indices, hops, timeouts, ledger hops."""
    ids = network.sorted_ids_array()
    network.reset_stats()
    routes = [
        route_to_key(network, network.node(int(ids[e])), int(k))
        for e, k in zip(entries.tolist(), keys.tolist())
    ]
    owners = [int(np.searchsorted(ids, np.uint64(r.owner.ident))) for r in routes]
    return (
        owners,
        [r.hops for r in routes],
        [r.timeouts for r in routes],
        network.stats.count_of(MessageType.LOOKUP_HOP),
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("count", [16, 17, 200])
def test_batch_matches_route_to_key(seed, count):
    network = _crashed_ring(seed)
    entries, keys = _probes(network, count, seed + 50)
    owners, hops, timeouts, ledger = _reference(network, entries, keys)
    network.reset_stats()
    routes = route_probes_batch(network, entries, keys)
    assert routes.owner_idx.tolist() == owners
    assert routes.hops.tolist() == hops
    assert routes.timeouts.tolist() == timeouts
    assert not routes.failure.any()
    assert network.stats.count_of(MessageType.LOOKUP_HOP) == ledger


def test_batch_reaches_every_irregular_path(monkeypatch):
    """The equivalence above covers dead fingers, dead and self-looped successors.

    The reference consults the successor list exactly when a node's
    primary successor is departed or a self-loop; on these worlds it does
    both, and times out dead fingers, all of which the kernel matches.
    """
    reference = routing._live_successor
    sites = {"dead": 0, "self": 0}

    def spy(network, node, excluded):
        if node.successor_id == node.ident:
            sites["self"] += 1
        elif network.try_node(node.successor_id) is None:
            sites["dead"] += 1
        return reference(network, node, excluded)

    monkeypatch.setattr(routing, "_live_successor", spy)
    timed_out = 0
    for seed in SEEDS:
        network = _crashed_ring(seed)
        entries, keys = _probes(network, 200, seed + 50)
        timed_out += sum(t > 0 for t in _reference(network, entries, keys)[2])
    assert timed_out > 0
    assert sites["dead"] > 0
    assert sites["self"] > 0


def test_kernel_fails_exhausted_budgets():
    """Lookups over budget fail at max_hops + 1 hops; the rest finish exactly."""
    ring = CompactRing.build(300, seed=2)
    network = RingNetwork.create(300, seed=2)
    entries, keys = _probes(network, 200, 9)
    routes = route_lockstep(ring.ids, ring.scan, ring.space.mask, entries, keys, 2)
    ids = network.sorted_ids_array()
    failed = 0
    for index, (e, k) in enumerate(zip(entries.tolist(), keys.tolist())):
        start = network.node(int(ids[e]))
        try:
            reference = route_to_key(network, start, int(k), max_hops=2)
        except RoutingError:
            assert routes.reason(index) == "hop_budget"
            assert routes.hops[index] == 3
            assert routes.owner_idx[index] == -1
            failed += 1
            continue
        assert ids[routes.owner_idx[index]] == reference.owner.ident
        assert routes.hops[index] == reference.hops
        assert not routes.failure[index]
    assert 0 < failed < len(entries)
    assert set(routes.failure.tolist()) == {0, FAILURES.index("hop_budget") + 1}

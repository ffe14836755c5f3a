"""Batch routing over crashed, unmaintained object rings.

:func:`route_probes_batch` must reproduce the scalar reference
:func:`route_to_key` probe for probe — owner, hop count, and the
``LOOKUP_HOP`` ledger — on rings whose pointers were left stale: crashed
peers behind fingers (in-batch timeout-and-exclude), behind successor
pointers (the scalar resume) and self-looped successors (a join that has
not stabilized yet).  Batch sizes straddle the straggler hand-off.
"""

import numpy as np
import pytest

from repro.ring import routing
from repro.ring.chord import crash
from repro.ring.compact import CompactRing
from repro.ring.lockstep import route_lockstep
from repro.ring.messages import MessageType
from repro.ring.network import RingNetwork
from repro.ring.routing import (
    _BATCH_TAIL_CUTOFF,
    RoutingError,
    route_probes_batch,
    route_to_key,
)

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


def _batch(network, entries, keys):
    routes = route_probes_batch(network, entries, keys)
    return routes.owner_idx.tolist(), routes.hops.tolist()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "count", [_BATCH_TAIL_CUTOFF, _BATCH_TAIL_CUTOFF + 1, 200]
)
def test_batch_matches_route_to_key(seed, count):
    network = _crashed_ring(seed)
    entries, keys = _probes(network, count, seed + 50)
    owners, hops, _timeouts, ledger = _reference(network, entries, keys)
    network.reset_stats()
    batch_owners, batch_hops = _batch(network, entries, keys)
    assert batch_owners == owners
    assert batch_hops == hops
    assert network.stats.count_of(MessageType.LOOKUP_HOP) == ledger


def test_batch_reaches_every_irregular_path(monkeypatch):
    """The equivalence above covers dead fingers, dead and self-looped successors."""
    reference = routing.route_to_key
    resumed_keys: set[int] = set()
    resume_sites = {"dead": 0, "self": 0}

    def spy(network, start, key, *args, **kwargs):
        if kwargs.get("_initial_hops", 0) > 0:
            resumed_keys.add(int(key))
            if start.successor_id == start.ident:
                resume_sites["self"] += 1
            elif network.try_node(start.successor_id) is None:
                resume_sites["dead"] += 1
        return reference(network, start, key, *args, **kwargs)

    in_batch_timeouts = 0
    for seed in SEEDS:
        network = _crashed_ring(seed)
        entries, keys = _probes(network, 200, seed + 50)
        _owners, _hops, timeouts, _ledger = _reference(network, entries, keys)
        monkeypatch.setattr(routing, "route_to_key", spy)
        _batch(network, entries, keys)
        monkeypatch.setattr(routing, "route_to_key", reference)
        in_batch_timeouts += sum(
            1
            for key, t in zip(keys.tolist(), timeouts)
            if t > 0 and int(key) not in resumed_keys
        )
    assert in_batch_timeouts > 0
    assert resume_sites["dead"] > 0
    assert resume_sites["self"] > 0


def test_kernel_hands_off_exhausted_budgets():
    """Lookups over budget leave the batch; the rest finish exactly."""
    ring = CompactRing.build(300, seed=2)
    network = RingNetwork.create(300, seed=2)
    entries, keys = _probes(network, 200, 9)
    owners, hops, fallback, cur = route_lockstep(
        ring.ids, ring.scan, ring.space.mask, entries, keys, 2
    )[:4]
    ids = network.sorted_ids_array()
    for index, (e, k) in enumerate(zip(entries.tolist(), keys.tolist())):
        start = network.node(int(ids[e]))
        try:
            reference = route_to_key(network, start, int(k), max_hops=2)
        except RoutingError:
            assert fallback[index]
            continue
        if not fallback[index]:
            assert ids[owners[index]] == reference.owner.ident
            assert hops[index] == reference.hops
    assert fallback.any() and not fallback.all()
    # Handed-off lookups keep the hops they already took.
    assert (cur[fallback] != entries[fallback]).any()

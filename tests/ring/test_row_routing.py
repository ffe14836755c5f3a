"""Batch routing in row space against the scalar oracles.

:func:`route_probes_batch` routes over the rows of the network's routing
view: the live peers plus every departed peer a finger still names, in
ring order, with a liveness mask.  These sweeps hold it to the scalar
oracles lookup for lookup on crashed, unmaintained object rings — owner,
hops, timeouts, retries, failure reason and the ``LOOKUP_HOP`` ledger.
The keys are chosen where rows could go wrong: next to departed fingers
(a departed finger and the key in the same live gap, which only a
ranking of the departed ids among the live ones orders), on peer ids, and
on the entry's own id; the worlds include one- and two-peer rings, rings
crashed down to one or two live peers, and stalls and partitions that
end lookups ``"stuck"`` or ``"partitioned"``.
"""

from collections import Counter

import numpy as np
import pytest

from repro.ring.chord import crash
from repro.ring.faults import FaultPlane, RetryPolicy
from repro.ring.messages import MessageType
from repro.ring.network import RingNetwork
from repro.ring.routing import route_probes_batch, route_to_key
from tests.ring.reference_routing import route_with_policy_scalar

#: (name, peers, crashed, stalled fraction of the survivors, partition arcs)
WORLDS = [
    ("crashed", 64, 16, 0.0, 0),
    ("crashed-large", 200, 60, 0.0, 0),
    ("mostly-departed", 40, 30, 0.0, 0),
    ("one-live", 6, 5, 0.0, 0),
    ("two-live", 7, 5, 0.0, 0),
    ("one-peer", 1, 0, 0.0, 0),
    ("two-peer", 2, 0, 0.0, 0),
    ("stalled", 64, 12, 0.5, 0),
    ("cut", 64, 12, 0.0, 3),
    ("cut-stalled", 48, 10, 0.3, 2),
]

POLICIES = [
    RetryPolicy.DEFAULT,
    RetryPolicy.UNBOUNDED,
    RetryPolicy(max_attempts=1).with_hop_budget(6),
]

SEEDS = range(4)


def _world(seed, peers, crashed, stalled, arcs):
    """An unmaintained ring with ``crashed`` peers crashed and a fault plane."""
    network = RingNetwork.create(peers, seed=seed)
    rng = np.random.default_rng(seed + 7)
    ids = list(network.peer_ids())
    for index in rng.choice(len(ids), size=crashed, replace=False).tolist():
        crash(network, ids[index])
    network.note_overlay_change()
    plane = network.install_faults(FaultPlane(seed=seed))
    survivors = list(network.peer_ids())
    if stalled:
        picked = rng.choice(len(survivors), size=int(stalled * len(survivors)), replace=False)
        plane.stall([survivors[i] for i in picked.tolist()])
    if arcs:
        plane.partition([network.space.size * i // arcs for i in range(arcs)])
    return network


def _lookups(network, seed):
    """Entry rows and keys: beside departed fingers, on peer ids, on the entry."""
    row_ids, _scan, pointers = network.routing_view()
    departed = row_ids[~pointers.live]
    mask = np.uint64(network.space.mask)
    beside = np.concatenate((departed - np.uint64(1), departed, departed + np.uint64(1))) & mask
    rng = np.random.default_rng(seed + 11)
    live = network.sorted_ids_array()
    keys = np.concatenate(
        (
            beside,
            rng.choice(live, size=8),
            rng.integers(0, network.space.size, size=24, dtype=np.uint64),
        )
    )
    entries = rng.integers(0, live.size, size=keys.size).astype(np.int64)
    # Every fourth lookup asks for its entry's own id.
    keys[::4] = live[entries[::4]]
    return entries, keys


def _batch(network, entries, keys, policy):
    """Per-lookup (owner row, hops, timeouts, retries, failure) of one batch."""
    network.reset_stats()
    routes = route_probes_batch(network, entries, keys, policy)
    rows = [
        (
            None if routes.failure[i] else int(routes.owner_idx[i]),
            int(routes.hops[i]),
            int(routes.timeouts[i]),
            int(routes.retries[i]),
            routes.reason(i) if routes.failure[i] else None,
        )
        for i in range(keys.size)
    ]
    return rows, network.stats.count_of(MessageType.LOOKUP_HOP)


def _oracle(network, entries, keys, policy):
    """The same lookups one at a time through the policy router's oracle."""
    network.reset_stats()
    live = network.sorted_ids_array().tolist()
    rows = []
    for entry, key in zip(entries.tolist(), keys.tolist()):
        outcome = route_with_policy_scalar(network, network.node(live[entry]), key, policy)
        owner = None if outcome.owner is None else live.index(outcome.owner.ident)
        rows.append((owner, outcome.hops, outcome.timeouts, outcome.retries, outcome.failure))
    return rows, network.stats.count_of(MessageType.LOOKUP_HOP)


@pytest.mark.parametrize("policy", POLICIES, ids=["default", "unbounded", "tight"])
@pytest.mark.parametrize("world", WORLDS, ids=[w[0] for w in WORLDS])
def test_batch_matches_policy_oracle(world, policy):
    _name, *shape = world
    for seed in SEEDS:
        network = _world(seed, *shape)
        reference = _world(seed, *shape)
        entries, keys = _lookups(network, seed)
        assert _batch(network, entries, keys, policy) == _oracle(reference, entries, keys, policy)


@pytest.mark.parametrize(
    "world", [w for w in WORLDS if not (w[3] or w[4])], ids=lambda w: w[0]
)
def test_batch_matches_route_to_key(world):
    """Without a policy the batch is route_to_key, which ignores the plane."""
    _name, *shape = world
    for seed in SEEDS:
        network = _world(seed, *shape)
        entries, keys = _lookups(network, seed)
        rows, ledger = _batch(network, entries, keys, None)
        network.reset_stats()
        live = network.sorted_ids_array().tolist()
        expected = []
        for entry, key in zip(entries.tolist(), keys.tolist()):
            route = route_to_key(network, network.node(live[entry]), key)
            expected.append((live.index(route.owner.ident), route.hops, route.timeouts, 0, None))
        assert rows == expected
        assert ledger == network.stats.count_of(MessageType.LOOKUP_HOP)


def test_sweep_reaches_the_row_space_corners():
    """The worlds above hold departed rows, keys in their gaps, and every ending."""
    endings = Counter()
    shared_gaps = 0
    departed_rows = 0
    for _name, *shape in WORLDS:
        for seed in SEEDS:
            network = _world(seed, *shape)
            row_ids, _scan, pointers = network.routing_view()
            departed_rows += int((~pointers.live).sum())
            entries, keys = _lookups(network, seed)
            # A key beside a departed finger, with no live id between them.
            live = network.sorted_ids_array()
            gone = row_ids[~pointers.live]
            shared_gaps += int(
                np.count_nonzero(
                    np.isin(np.searchsorted(live, keys), np.searchsorted(live, gone))
                    & ~np.isin(keys, live)
                )
            )
            rows, _ = _batch(network, entries, keys, RetryPolicy.DEFAULT)
            endings.update(row[4] for row in rows)
    assert departed_rows > 0
    assert shared_gaps > 0
    for ending in (None, "stuck", "partitioned", "entry_stalled", "owner_unresponsive"):
        assert endings[ending] > 0, endings


@pytest.mark.parametrize("seed", SEEDS)
def test_routing_view_ranks_departed_fingers(seed):
    """Rows are the sorted union of the live ids and the departed fingers."""
    network = _world(seed, 120, 40, 0.0, 0)
    row_ids, scan, pointers = network.routing_view()
    live = network.sorted_ids_array()
    assert scan.dtype == np.int32
    assert np.all(np.diff(row_ids.astype(object)) > 0)
    assert np.array_equal(row_ids[pointers.live_rows], live)
    assert np.array_equal(np.flatnonzero(pointers.live), pointers.live_rows)
    assert not np.isin(row_ids[~pointers.live], live).any()
    for row, ident in zip(pointers.live_rows.tolist(), live.tolist()):
        node = network.node(ident)
        named = {f for f in node.fingers if f is not None} | {node.successor_id}
        assert set(row_ids[scan[row]].tolist()) - {ident} == named - {ident}

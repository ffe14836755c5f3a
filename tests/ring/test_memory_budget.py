"""Memory budget of the object ring: bytes and GC-tracked objects per peer.

A loaded peer costs its node, its store and the store's value list; the
overlay pointers live in the network's overlay-table columns, not in
per-peer Python lists.  Nodes and stores declare ``__slots__``, so no
instance ``__dict__`` is a separate object on any supported Python.  The
budgets hold that line at N=3000 with ten items per peer (1.64 kB and 3.01
objects per peer when they were set; per-node finger lists put it at
3.95 kB and 5.2 objects).
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np

from repro.ring.network import RingNetwork

PEERS = 3000
BYTES_PER_PEER = 1950
OBJECTS_PER_PEER = 3.1


def test_loaded_ring_fits_its_per_peer_budget():
    values = np.random.default_rng(0).random(10 * PEERS)
    gc.collect()
    objects_before = len(gc.get_objects())
    tracemalloc.start()
    try:
        network = RingNetwork.create(PEERS, seed=1)
        network.load_data(values)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    objects = len(gc.get_objects()) - objects_before
    assert network.total_count == values.size
    assert retained / PEERS <= BYTES_PER_PEER
    assert objects / PEERS <= OBJECTS_PER_PEER

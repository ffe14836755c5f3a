"""Characterization of churn rounds on lossy rings.

Under message loss every churn round runs the scalar maintenance sweep
(the matrix kernel needs loss-free delivery), and every finger fix that
leaves its node draws delivery outcomes from the network RNG.  The values
below are literals recorded from the protocol and pinned so a restructuring
of the sweep, the join splice or the round driver cannot move a pointer, a
stored value, a ledger total or a single draw of the network RNG.
"""

import hashlib

import numpy as np
import pytest

from repro.ring.churn import ChurnConfig, ChurnProcess
from repro.ring.faults import FaultPlane, plane_from_profile
from repro.ring.messages import MessageType

from tests.conftest import make_loaded_network


def _digest(rows):
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()[:16]


def _pointer_digest(network):
    return _digest(
        [
            (
                ident,
                node.predecessor_id,
                node.successor_id,
                tuple(node.fingers),
                tuple(node.successor_list),
                node.next_finger_index,
            )
            for ident, node in ((i, network.node(i)) for i in network.peer_ids())
        ]
    )


def _store_digest(network):
    return _digest([tuple(network.node(i).store.values()) for i in network.peer_ids()])


def _ledger(network):
    stats = network.stats
    return {
        t.value: (stats.count_of(t), stats.payload_of(t))
        for t in MessageType
        if stats.count_of(t)
    }


def _plane(name, ring_size):
    if name == "loss":
        return FaultPlane(loss_rate=0.1)
    return plane_from_profile(name, seed=77, ring_size=ring_size)


def _churned(name):
    network, _ = make_loaded_network(n_peers=48, n_items=1_200, seed=21)
    network.install_faults(_plane(name, network.n_peers))
    process = ChurnProcess(
        network,
        ChurnConfig(join_rate=0.08, leave_rate=0.08, crash_fraction=0.5),
        rng=np.random.default_rng(31),
    )
    reports = [process.run_round() for _ in range(5)]
    return network, reports


@pytest.mark.parametrize("name", ["loss", "light", "heavy"])
def test_lossy_churn_rounds(name):
    network, reports = _churned(name)
    expected = EXPECTED[name]
    rows = [(r.joins, r.graceful_leaves, r.crashes, r.items_lost) for r in reports]
    assert rows == expected["reports"]
    assert network.n_peers == expected["peers"]
    assert _pointer_digest(network) == expected["pointers"]
    assert _store_digest(network) == expected["stores"]
    assert _ledger(network) == expected["ledger"]
    assert network.rng.bit_generator.state["state"]["state"] == expected["rng"]


EXPECTED = {
    "loss": {
        "reports": [(3, 0, 5, 96), (0, 5, 3, 18), (4, 1, 2, 34), (0, 4, 0, 0), (5, 2, 1, 58)],
        "peers": 37,
        "pointers": "f9a56a6c7b4525ac",
        "stores": "9af7c6181aa83a6a",
        "ledger": {
            "lookup_hop": (288, 0.0),
            "stabilize": (195, 0.0),
            "notify": (219, 0.0),
            "fix_finger": (195, 0.0),
            "join": (12, 0.0),
            "leave": (12, 0.0),
            "data_transfer": (24, 379.0),
        },
        "rng": 202333977283470285121623709494617626210,
    },
    "light": {
        "reports": [(3, 0, 5, 96), (0, 5, 3, 18), (4, 1, 2, 85), (0, 4, 0, 0), (5, 2, 1, 0)],
        "peers": 37,
        "pointers": "ca084d34c0d15fbe",
        "stores": "6b5917e51a4913bf",
        "ledger": {
            "lookup_hop": (258, 0.0),
            "stabilize": (195, 0.0),
            "notify": (219, 0.0),
            "fix_finger": (195, 0.0),
            "join": (12, 0.0),
            "leave": (12, 0.0),
            "data_transfer": (24, 164.0),
        },
        "rng": 95239942838065308384013810504194815292,
    },
    "heavy": {
        "reports": [(3, 0, 5, 96), (0, 5, 3, 104), (4, 1, 2, 9), (0, 4, 0, 0), (5, 2, 1, 48)],
        "peers": 37,
        "pointers": "242814304aa4416e",
        "stores": "61251914a5b2a38a",
        "ledger": {
            "lookup_hop": (319, 0.0),
            "stabilize": (195, 0.0),
            "notify": (219, 0.0),
            "fix_finger": (195, 0.0),
            "join": (12, 0.0),
            "leave": (12, 0.0),
            "data_transfer": (24, 284.0),
        },
        "rng": 173714800227622969255565810416845949103,
    },
}

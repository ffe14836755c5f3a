"""Characterization of the scalar lookup rule on crashed, unmaintained rings.

Every value below is a literal recorded from the router and pinned so a
restructuring of :func:`route_to_key` (or of the fault-free branch of the
policy router's oracle, ``reference_routing.route_with_policy_scalar``)
cannot move an owner, a hop, a timeout, an error message, the
``LOOKUP_HOP`` total or a single draw of the network RNG.  Owners are
pinned as rows of the live ring order.
"""

import numpy as np

from repro.ring import chord
from repro.ring.faults import FaultPlane, RetryPolicy
from repro.ring.messages import MessageType
from repro.ring.network import RingNetwork
from repro.ring.routing import RoutingError, route_to_key

from tests.ring.reference_routing import route_with_policy_scalar

LOOKUPS = 12


def _crashed_ring(seed, loss_rate=0.0):
    """64 peers with every fifth one crashed and no maintenance run."""
    network = RingNetwork.create(64, seed=seed)
    for ident in _crashed(network):
        chord.crash(network, ident)
    if loss_rate:
        network.install_faults(FaultPlane(loss_rate=loss_rate))
    network.reset_stats()
    return network


def _crashed(network):
    return list(network.peer_ids())[2:60:5]


def _queries(network, seed):
    rng = np.random.default_rng(seed)
    ids = list(network.peer_ids())
    for _ in range(LOOKUPS):
        start = network.node(ids[int(rng.integers(len(ids)))])
        yield start, int(rng.integers(0, network.space.size, dtype=np.uint64))


def _route_all(network, seed, **kwargs):
    """(owner row, hops, timeouts) or the error message, per lookup."""
    ids = list(network.peer_ids())
    rows = []
    for start, key in _queries(network, seed):
        try:
            route = route_to_key(network, start, key, **kwargs)
        except RoutingError as exc:
            rows.append(str(exc))
        else:
            rows.append((ids.index(route.owner.ident), route.hops, route.timeouts))
    return rows


def _ledger(network):
    return network.stats.count_of(MessageType.LOOKUP_HOP)


def _rng_state(network):
    return network.rng.bit_generator.state["state"]["state"]


def test_loss_free_lookups():
    network = _crashed_ring(31)
    assert _route_all(network, 1) == LOSS_FREE
    assert _ledger(network) == 49
    assert _rng_state(network) == 105273753005260875815854934844038172790


def test_lossy_unbounded_lookups():
    network = _crashed_ring(32, loss_rate=0.3)
    assert _route_all(network, 2) == LOSSY_UNBOUNDED
    assert _ledger(network) == 75
    assert _rng_state(network) == 112248358584746817916943870907055954271


def test_lossy_bounded_lookups():
    network = _crashed_ring(33, loss_rate=0.5)
    assert _route_all(network, 3, policy=RetryPolicy(max_attempts=2)) == LOSSY_BOUNDED
    assert _ledger(network) == 141
    assert _rng_state(network) == 324539903484942350858870166788492906330


def test_hop_budget_raises():
    network = _crashed_ring(34)
    assert _route_all(network, 4, max_hops=3) == HOP_BUDGET
    assert _ledger(network) == 39
    assert _rng_state(network) == 73209579981554779521494585942196343566


def test_policy_reasons_without_fault_plane():
    """Failed outcomes carry their timeouts, and every outcome counts its
    lost sends as retries, as the fault-plane loop reports them."""
    network = _crashed_ring(36, loss_rate=0.3)
    ids = list(network.peer_ids())
    policy = RetryPolicy(max_attempts=2).with_hop_budget(8)
    rows = []
    for start, key in _queries(network, 6):
        outcome = route_with_policy_scalar(network, start, key, policy)
        owner = None if outcome.owner is None else ids.index(outcome.owner.ident)
        rows.append((owner, outcome.hops, outcome.timeouts, outcome.retries, outcome.failure))
    assert rows == POLICY_REASONS
    assert _ledger(network) == 70
    assert _rng_state(network) == 159411897174394341242616211235622469019


LOSS_FREE = [
    (47, 8, 2),
    (8, 3, 0),
    (14, 4, 0),
    (18, 4, 0),
    (17, 2, 0),
    (24, 4, 0),
    (40, 4, 0),
    (24, 5, 0),
    (41, 4, 0),
    (14, 5, 0),
    (7, 1, 0),
    (17, 5, 0),
]

LOSSY_UNBOUNDED = [
    (11, 9, 1),
    (40, 12, 1),
    (30, 3, 0),
    (35, 3, 0),
    (2, 2, 0),
    (10, 1, 0),
    (28, 3, 0),
    (5, 5, 0),
    (33, 8, 0),
    (21, 11, 0),
    (49, 16, 3),
    (34, 2, 0),
]

LOSSY_BOUNDED = [
    (10, 6, 1),
    (42, 25, 8),
    (5, 3, 0),
    (22, 36, 9),
    (6, 6, 1),
    (38, 6, 0),
    (18, 21, 5),
    (26, 5, 0),
    (31, 4, 0),
    (38, 5, 0),
    'delivery of key 5242586133124378272 to owner 5456187696534378641 failed after 2 attempts',
    (33, 8, 2),
]

HOP_BUDGET = [
    'lookup for key 9432328504602732981 exceeded 3 hops from 13299004656595370598',
    (50, 1, 0),
    'lookup for key 11203737594487247795 exceeded 3 hops from 18275275842306156203',
    'lookup for key 6944951669192604934 exceeded 3 hops from 737052061730055888',
    (9, 3, 0),
    (42, 1, 0),
    (44, 4, 0),
    'lookup for key 8801928938130508981 exceeded 3 hops from 10269853769756371597',
    'lookup for key 14553498186333463695 exceeded 3 hops from 17067458051788894501',
    'lookup for key 18154418519102891929 exceeded 3 hops from 8729430009367121693',
    (50, 2, 0),
    'lookup for key 17137512012831544041 exceeded 3 hops from 7215364668381471613',
]

POLICY_REASONS = [
    (None, 9, 4, 2, 'hop_budget'),
    (22, 5, 0, 1, None),
    (0, 4, 0, 0, None),
    (37, 2, 0, 0, None),
    (None, 9, 2, 2, 'hop_budget'),
    (38, 2, 0, 0, None),
    (2, 7, 1, 2, None),
    (None, 9, 2, 3, 'retry_exhausted'),
    (0, 5, 0, 1, None),
    (42, 3, 0, 0, None),
    (2, 6, 1, 2, None),
    (None, 9, 2, 2, 'hop_budget'),
]

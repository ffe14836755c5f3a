"""Property-based tests: routing and overlay invariants on random worlds."""

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.ring import chord
from repro.ring.faults import FaultPlane
from repro.ring.network import RingNetwork
from repro.ring.routing import route_to_key

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

world = st.fixed_dictionaries(
    {
        "n_peers": st.integers(min_value=1, max_value=64),
        "seed": st.integers(min_value=0, max_value=10_000),
        "loss_rate": st.sampled_from([0.0, 0.0, 0.1, 0.3]),
    }
)


@SETTINGS
@given(params=world, key_unit=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_routing_always_finds_true_owner(params, key_unit):
    """From any start, any key routes to the oracle owner — even lossy."""
    network = RingNetwork.create(params["n_peers"], seed=params["seed"])
    if params["loss_rate"] > 0.0:
        network.install_faults(FaultPlane(loss_rate=params["loss_rate"]))
    key = min(int(key_unit * network.space.size), network.space.size - 1)
    result = route_to_key(network, network.random_peer(), key)
    assert result.owner.ident == network.owner_of(key).ident
    assert result.hops >= 0


@SETTINGS
@given(params=world)
def test_intervals_partition_ring(params):
    """Peer ownership arcs tile the identifier space exactly."""
    network = RingNetwork.create(params["n_peers"], seed=params["seed"])
    total = sum(node.segment_length for node in network.peers())
    assert total == network.space.size


def _wrong_pointers(network):
    """Successor and predecessor pointers that differ from the oracle ring."""
    ids = list(network.peer_ids())
    wrong = 0
    for index, ident in enumerate(ids):
        node = network.node(ident)
        wrong += node.successor_id != ids[(index + 1) % len(ids)]
        wrong += node.predecessor_id != ids[index - 1]
    return wrong


@SETTINGS
@given(
    params=world,
    churn_ops=st.lists(st.sampled_from(["join", "leave", "crash"]), max_size=8),
)
@example(
    params={"n_peers": 12, "seed": 213, "loss_rate": 0.0},
    churn_ops=["crash", "join", "join", "join", "join"],
)
@example(
    params={"n_peers": 63, "seed": 8426, "loss_rate": 0.0},
    churn_ops=["join", "crash", "join"],
)
def test_overlay_survives_arbitrary_churn_sequences(params, churn_ops):
    """Any short join/leave/crash sequence leaves a routable overlay.

    Chord's guarantee is *eventual* consistency: adversarial sequences
    (e.g. a graceful leave propagating a predecessor pointer left stale by
    an unrepaired crash) need several stabilize rounds to converge — the
    pinned example still has 5 wrong pointers after 11 rounds and needs
    25.  So the property runs maintenance until every successor and
    predecessor pointer matches the oracle ring, then routes.  The round
    cap scales with the ring: a new peer that joins next to an unrepaired
    crash can start with a successor pointer behind it, which stabilize
    walks backwards one peer per round, so convergence can take about as
    many rounds as the ring has peers (63 for the second pinned example).
    """
    network = RingNetwork.create(
        max(params["n_peers"], 4), seed=params["seed"]
    )
    rng = np.random.default_rng(params["seed"])
    for op in churn_ops:
        if op == "join":
            chord.join(network, chord.random_unused_identifier(network, rng))
        elif network.n_peers > 2:
            victim = network.random_peer().ident
            if op == "leave":
                chord.leave_gracefully(network, victim)
            else:
                chord.crash(network, victim)
    rounds = 0
    while _wrong_pointers(network) and rounds < 2 * network.n_peers + 8:
        chord.maintenance_round(network)
        rounds += 1
    assert _wrong_pointers(network) == 0, f"not converged after {rounds} rounds"
    key = int(rng.integers(0, network.space.size, dtype=np.uint64))
    result = route_to_key(network, network.random_peer(), key)
    assert result.owner.ident == network.owner_of(key).ident

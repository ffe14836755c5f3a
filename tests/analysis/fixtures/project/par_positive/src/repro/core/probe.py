"""PAR001 positive: dispatch sites through the backend union."""

from repro.core.backend import RingBackend
from repro.ring.compact import CompactRing


def run(network: RingBackend) -> int:
    network.record()
    return network.random_peer(None)


def either(network: RingBackend, flag: bool) -> float:
    # The body of an ``or`` test still sees both backends.
    if isinstance(network, CompactRing) or flag:
        return network.object_walk()
    return 0.0


def both(network: RingBackend, flag: bool) -> float:
    # So does the remainder after the body of an ``and`` test returns.
    if isinstance(network, CompactRing) and flag:
        return 0.0
    return network.object_span()


def keyword(network: RingBackend) -> dict:
    # A keyword argument is a dispatch site like any other operand.
    return dict(domain=network.object_domain())


def listed(network: RingBackend) -> list:
    # So is a comprehension's iterator.
    return [peer for peer in network.object_peers()]

"""PAR001 negative: isinstance narrowing sanctions backend-only members."""

from repro.core.backend import RingBackend
from repro.ring.compact import CompactRing


def run(network: RingBackend) -> float:
    network.record()
    if isinstance(network, CompactRing):
        return network.segment_length()
    return network.object_walk()


def either(network: RingBackend) -> float:
    # Operands after an isinstance test, the else of an ``or`` test and the
    # remainder after its body returns all see one backend.
    if isinstance(network, CompactRing) or network.object_walk() > 0:
        return 0.0
    return network.object_walk()


def walks(network: RingBackend) -> bool:
    return not isinstance(network, CompactRing) and network.object_walk() > 0


def compact_only(network: RingBackend) -> float:
    # The body of an ``and`` test sees one backend.
    if isinstance(network, CompactRing) and network.segment_length() > 0:
        return network.segment_length()
    return 0.0


def keyword(network: RingBackend) -> dict:
    # Narrowing reaches keyword arguments and comprehension iterators.
    if isinstance(network, CompactRing):
        return dict(length=network.segment_length())
    return dict(walks=[walk for walk in (network.object_walk(),)])

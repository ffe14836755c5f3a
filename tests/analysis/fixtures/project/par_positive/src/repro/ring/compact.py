"""PAR001 positive: the compact backend drifted behind the surface.

Missing ``version_token`` (declared on the protocol), missing
``random_peer``, ``object_walk``, ``object_span``, ``object_domain`` and
``object_peers`` (dispatched through the union), and ``record`` disagrees
on its default.
"""


class CompactRing:
    def record(self, n: int = 2) -> None:
        pass

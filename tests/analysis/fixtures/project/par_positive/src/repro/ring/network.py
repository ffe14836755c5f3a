"""PAR001 positive: the object backend carries the full surface."""


class RingNetwork:
    @property
    def version_token(self) -> tuple:
        return (0, 0)

    def record(self, n: int = 1) -> None:
        pass

    def random_peer(self, rng: object) -> int:
        return 0

    def object_walk(self) -> float:
        return 0.0

    def object_span(self) -> float:
        return 0.0

    def object_domain(self) -> float:
        return 0.0

    def object_peers(self) -> list:
        return []

"""Identifier-space arithmetic for an m-bit ring.

A ring-based P2P overlay (Chord and its descendants) places peers and data
on the integer circle ``[0, 2**m)``.  All interval logic in the overlay —
key ownership, finger targets, stabilization checks — reduces to modular
interval membership, which is easy to get subtly wrong at the wrap-around.
This module centralises that arithmetic so the rest of the codebase never
touches raw modular comparisons.

The :class:`IdentifierSpace` is a small immutable value object; every
component that needs ring arithmetic (nodes, routing, the estimators'
probe-position generators) holds a reference to one shared instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["IdentifierSpace", "RingInterval"]


@dataclass(frozen=True)
class IdentifierSpace:
    """An ``m``-bit circular identifier space ``[0, 2**m)``.

    Parameters
    ----------
    bits:
        Number of bits ``m``.  Chord traditionally uses 160 (SHA-1); the
        simulator defaults to 64, which is plenty for millions of peers and
        keeps identifiers inside fast machine integers on the numpy side.
    """

    bits: int = 64
    # Derived constants, precomputed once: ring arithmetic sits on every
    # routing hop, and ``x % 2**m == x & (2**m - 1)`` for Python integers
    # of either sign (infinite two's complement), so the hot operations
    # reduce to one bitwise AND against a cached mask.
    size: int = field(init=False, repr=False, compare=False)
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 256:
            raise ValueError(f"bits must be in [1, 256], got {self.bits}")
        object.__setattr__(self, "size", 1 << self.bits)
        object.__setattr__(self, "mask", (1 << self.bits) - 1)

    def contains(self, ident: int) -> bool:
        """Return True if ``ident`` is a valid identifier in this space."""
        return 0 <= ident < self.size

    def validate(self, ident: int) -> int:
        """Return ``ident`` unchanged, raising ``ValueError`` if out of range."""
        if not self.contains(ident):
            raise ValueError(f"identifier {ident} outside [0, 2**{self.bits})")
        return ident

    def wrap(self, value: int) -> int:
        """Reduce an arbitrary integer onto the ring."""
        return value & self.mask

    def add(self, ident: int, offset: int) -> int:
        """Clockwise displacement (offset may be negative)."""
        return (ident + offset) & self.mask

    def distance(self, start: int, end: int) -> int:
        """Clockwise distance from ``start`` to ``end`` (0 if equal)."""
        return (end - start) & self.mask

    def finger_target(self, ident: int, k: int) -> int:
        """The classic Chord finger target ``ident + 2**k`` (0-indexed ``k``)."""
        if not 0 <= k < self.bits:
            raise ValueError(f"finger index {k} outside [0, {self.bits})")
        return self.add(ident, 1 << k)

    def in_open(self, ident: int, start: int, end: int) -> bool:
        """Membership in the open arc ``(start, end)`` going clockwise.

        When ``start == end`` the arc covers the whole ring minus the single
        point ``start`` — the standard Chord convention for a ring with one
        node, whose successor interval is everything but itself.
        """
        if start == end:
            return ident != start
        return self.distance(start, ident) < self.distance(start, end) and ident != start

    def in_half_open(self, ident: int, start: int, end: int) -> bool:
        """Membership in ``(start, end]`` clockwise — Chord key ownership.

        A node ``n`` with predecessor ``p`` owns exactly the keys in
        ``(p, n]``.  When ``start == end`` the arc is the full ring (single
        node owns everything).
        """
        if start == end:
            return True
        return self.in_open(ident, start, end) or ident == end


@dataclass(frozen=True)
class RingInterval:
    """A half-open clockwise arc ``(start, end]`` on an identifier ring.

    This is the ownership interval shape used throughout the overlay: a peer
    with predecessor ``start`` and identifier ``end`` owns exactly this arc.
    ``start == end`` denotes the full ring.
    """

    space: IdentifierSpace
    start: int
    end: int

    def __post_init__(self) -> None:
        self.space.validate(self.start)
        self.space.validate(self.end)

    @property
    def length(self) -> int:
        """Number of identifiers in the arc (``2**m`` for the full ring)."""
        if self.start == self.end:
            return self.space.size
        return self.space.distance(self.start, self.end)

    def contains(self, ident: int) -> bool:
        """Membership test for ``(start, end]``."""
        return self.space.in_half_open(ident, self.start, self.end)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RingInterval(({self.start}, {self.end}], len={self.length})"

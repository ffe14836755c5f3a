"""Tests for ring identifier-space arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ring.identifier import IdentifierSpace, RingInterval

SMALL = IdentifierSpace(8)   # 256 identifiers: exhaustive checks feasible
BIG = IdentifierSpace(64)

idents_small = st.integers(min_value=0, max_value=SMALL.size - 1)
idents_big = st.integers(min_value=0, max_value=BIG.size - 1)


class TestIdentifierSpace:
    def test_size(self):
        assert SMALL.size == 256
        assert IdentifierSpace(1).size == 2

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            IdentifierSpace(0)
        with pytest.raises(ValueError):
            IdentifierSpace(300)

    def test_contains(self):
        assert SMALL.contains(0)
        assert SMALL.contains(255)
        assert not SMALL.contains(256)
        assert not SMALL.contains(-1)

    def test_validate_passthrough(self):
        assert SMALL.validate(7) == 7

    def test_validate_raises(self):
        with pytest.raises(ValueError):
            SMALL.validate(256)

    def test_wrap(self):
        assert SMALL.wrap(256) == 0
        assert SMALL.wrap(-1) == 255
        assert SMALL.wrap(513) == 1

    def test_add_wraps(self):
        assert SMALL.add(250, 10) == 4
        assert SMALL.add(5, -10) == 251

    def test_distance_clockwise(self):
        assert SMALL.distance(10, 20) == 10
        assert SMALL.distance(20, 10) == 246
        assert SMALL.distance(7, 7) == 0

    def test_finger_target(self):
        assert SMALL.finger_target(0, 0) == 1
        assert SMALL.finger_target(0, 7) == 128
        assert SMALL.finger_target(200, 7) == SMALL.wrap(200 + 128)

    def test_finger_target_bounds(self):
        with pytest.raises(ValueError):
            SMALL.finger_target(0, 8)
        with pytest.raises(ValueError):
            SMALL.finger_target(0, -1)

    def test_in_open_basic(self):
        assert SMALL.in_open(5, 0, 10)
        assert not SMALL.in_open(0, 0, 10)
        assert not SMALL.in_open(10, 0, 10)

    def test_in_open_wrapping(self):
        assert SMALL.in_open(255, 250, 5)
        assert SMALL.in_open(2, 250, 5)
        assert not SMALL.in_open(100, 250, 5)

    def test_in_open_degenerate_full_ring(self):
        # (x, x) is the whole ring except x itself.
        assert SMALL.in_open(1, 0, 0)
        assert not SMALL.in_open(0, 0, 0)

    def test_in_half_open_includes_end(self):
        assert SMALL.in_half_open(10, 0, 10)
        assert not SMALL.in_half_open(0, 0, 10)

    def test_in_half_open_full_ring(self):
        assert SMALL.in_half_open(123, 50, 50)
        assert SMALL.in_half_open(50, 50, 50)

    @given(a=idents_small, b=idents_small)
    def test_distance_add_inverse(self, a, b):
        assert SMALL.add(a, SMALL.distance(a, b)) == b

    @given(a=idents_small, b=idents_small, x=idents_small)
    def test_open_interval_trichotomy(self, a, b, x):
        """x is in exactly one of (a, b) and [b, a] (as arcs) when a != b."""
        if a == b:
            return
        in_open = SMALL.in_open(x, a, b)
        # [b, a] = {b} ∪ (b, a]; in_half_open(x, b, a) is (b, a].
        in_complement = SMALL.in_half_open(x, b, a) or x == b
        assert in_open != in_complement

    @given(a=idents_big, b=idents_big)
    def test_distance_antisymmetry_big(self, a, b):
        if a != b:
            assert BIG.distance(a, b) + BIG.distance(b, a) == BIG.size

    @given(a=idents_small, k=st.integers(min_value=0, max_value=7))
    def test_finger_distance(self, a, k):
        assert SMALL.distance(a, SMALL.finger_target(a, k)) == 2**k


class TestRingInterval:
    def test_length_plain(self):
        interval = RingInterval(SMALL, 10, 20)
        assert interval.length == 10

    def test_length_wrapping(self):
        interval = RingInterval(SMALL, 250, 5)
        assert interval.length == 11

    def test_length_full_ring(self):
        interval = RingInterval(SMALL, 7, 7)
        assert interval.length == 256

    def test_contains_half_open(self):
        interval = RingInterval(SMALL, 10, 20)
        assert interval.contains(20)
        assert interval.contains(11)
        assert not interval.contains(10)
        assert not interval.contains(21)

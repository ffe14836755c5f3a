"""The compact ring's set-up against its one-search-per-finger oracle.

:func:`~repro.ring.lockstep.exact_fingers` searches only the finger levels
that pass a peer's successor, and :meth:`CompactRing._build_scan` starts
its slab at the ring's smallest gap; both must give what one
``searchsorted`` per finger gives.  :func:`~repro.ring.lockstep.compress_scan`
expands its packed entries in place and must give what collecting them and
scattering into a fresh matrix gives.  :meth:`CompactRing.segment_bounds`
derives the synopsis bounds of the rows asked for and must give the eager
columns bit for bit.  :meth:`CompactRing.load_counts` sorts each block
before placing it, which must not change a count.  The object ring
registers its peers with one sort and must end in the state registering
them one by one left.
"""

from __future__ import annotations

import cProfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.ring import compact as compact_module
from repro.ring.compact import CompactRing
from repro.ring.identifier import IdentifierSpace
from repro.ring.lockstep import _sorted_unique, compress_scan, exact_fingers
from repro.ring.network import RingNetwork
from tests.ring.reference_routing import (
    reference_compress_scan,
    reference_fingers,
    reference_segment_bounds,
)

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def rings(draw):
    """``(bits, ids)``: sorted distinct identifiers of a ``bits``-bit ring.

    Dense rings hold a run of consecutive identifiers (gap 1, so the scan
    starts at level 0); edge rings hold 0 and the top identifier, so the
    ring wraps at the top.
    """
    bits = draw(st.sampled_from([6, 8, 16, 64]))
    mask = (1 << bits) - 1
    kind = draw(st.sampled_from(["random", "dense", "edges"]))
    if kind == "dense":
        start = draw(st.integers(0, mask))
        length = draw(st.integers(1, min(1 << bits, 200)))
        idents = {(start + offset) & mask for offset in range(length)}
    else:
        idents = set(draw(st.lists(st.integers(0, mask), min_size=1, max_size=64)))
        if kind == "edges":
            idents |= {0, mask}
    return bits, np.array(sorted(idents), dtype=np.uint64)


def _ring(bits, idents):
    return bits, np.array(sorted(idents), dtype=np.uint64)


@SETTINGS
@given(ring=rings(), data=st.data())
@example(ring=_ring(64, [5]), data=None)
@example(ring=_ring(64, [0, (1 << 64) - 1]), data=None)
@example(ring=_ring(8, [0, 255]), data=None)
@example(ring=_ring(6, range(64)), data=None)
@example(ring=_ring(16, [7, 8]), data=None)
def test_exact_fingers_match_the_oracle(ring, data):
    bits, ids = ring
    oracle = reference_fingers(ids, slice(None), bits)
    assert np.array_equal(exact_fingers(ids, slice(None), bits), oracle)
    if data is None:
        lo, hi, first = 0, ids.size, bits - 1
    else:
        lo = data.draw(st.integers(0, ids.size - 1))
        hi = data.draw(st.integers(lo + 1, ids.size + 3))
        first = data.draw(st.integers(0, bits - 1))
    part = exact_fingers(ids, slice(lo, hi), bits, first)
    assert np.array_equal(part, oracle[lo:hi, first:])


@SETTINGS
@given(ring=rings(), block=st.integers(1, 9))
@example(ring=_ring(64, [5]), block=1)
@example(ring=_ring(64, [0, (1 << 64) - 1]), block=1)
@example(ring=_ring(8, [0, 255]), block=2)
@example(ring=_ring(6, range(64)), block=7)
@example(ring=_ring(16, [7, 8]), block=1)
def test_scan_matches_the_compressed_oracle(ring, block):
    bits, ids = ring
    own = np.arange(ids.size, dtype=np.int32)
    expected = reference_compress_scan(own, [(reference_fingers(ids, slice(None), bits), None)])
    with mock.patch.object(compact_module, "_SCAN_BLOCK", block):
        scan = CompactRing(IdentifierSpace(bits), ids).scan
    assert scan.dtype == expected.dtype
    assert np.array_equal(scan, expected)


@st.composite
def finger_blocks(draw):
    """``(own, blocks)``: a finger matrix cut into consecutive row blocks.

    Few distinct values make runs of equal fingers; the validity mask, if
    any, holds one explicit run of invalid fingers besides its random
    gaps.  ``own`` is ``int32`` rows or ``uint64`` identifiers near the
    top of the range, with fingers in the same terms.  The widest row can
    be forced into the first or the last block.
    """
    n = draw(st.integers(1, 40))
    columns = draw(st.integers(1, 10))
    values = draw(st.integers(1, 5))
    fingers = draw(arrays(np.int64, (n, columns), elements=st.integers(0, values - 1)))
    valid = None
    if draw(st.booleans()):
        valid = draw(arrays(np.bool_, (n, columns)))
        row = draw(st.integers(0, n - 1))
        lo = draw(st.integers(0, columns - 1))
        valid[row, lo : draw(st.integers(lo + 1, columns))] = False
    sizes = draw(st.sampled_from(["one-row", "random", "whole"]))
    if sizes == "one-row":
        cuts = list(range(1, n))
    elif sizes == "random":
        cuts = sorted(draw(st.sets(st.integers(1, max(n - 1, 1)), max_size=6)) - {n})
    else:
        cuts = []
    bounds = [0, *cuts, n]
    widest = draw(st.sampled_from([None, "first", "last"]))
    if widest is not None:
        row = 0 if widest == "first" else bounds[-2]
        fingers[row] = values + np.arange(columns)
        if valid is not None:
            valid[row] = True
    if draw(st.booleans()):
        own = np.arange(n, dtype=np.int32)
    else:
        offset = np.uint64((1 << 64) - 1000)
        own = np.arange(n, dtype=np.uint64) + offset
        fingers = fingers.astype(np.uint64) + offset
    blocks = [
        (fingers[lo:hi], None if valid is None else valid[lo:hi])
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    return own, blocks


@SETTINGS
@given(case=finger_blocks())
# One row of one column; then a last block whose one row is the widest.
@example(case=(np.arange(1, dtype=np.int32), [(np.array([[0]]), None)]))
@example(
    case=(
        np.arange(3, dtype=np.int32),
        [
            (np.array([[1, 1, 1], [2, 2, 0]]), None),
            (np.array([[0, 1, 2]]), np.array([[True, True, True]])),
        ],
    )
)
def test_compress_scan_matches_its_oracle(case):
    own, blocks = case
    expected = reference_compress_scan(own, blocks)
    scan = compress_scan(own, iter(blocks))
    assert scan.dtype == expected.dtype == own.dtype
    assert scan.shape == expected.shape
    assert np.array_equal(scan, expected)


def test_compress_scan_runs_under_a_profiler():
    # A profiler holds the bound ``resize`` method, one more reference to
    # the buffer than the compressor's own.
    own = np.arange(3, dtype=np.int32)
    blocks = [(np.array([[1, 1, 2], [2, 0, 0], [0, 1, 1]]), None)]
    scan = cProfile.Profile().runcall(compress_scan, own, blocks)
    assert np.array_equal(scan, reference_compress_scan(own, blocks))


def test_compress_scan_needs_every_row():
    own = np.arange(4, dtype=np.int32)
    with pytest.raises(ValueError, match="cover 2 rows, not 4"):
        compress_scan(own, [(np.zeros((2, 3), dtype=np.int64), None)])


def _bounds_ring(bits, idents, domain=(0.0, 1.0)):
    _bits, ids = _ring(bits, idents)
    return CompactRing(IdentifierSpace(bits), ids, domain=domain)


@SETTINGS
@given(ring=rings(), data=st.data())
@example(ring=_ring(64, [5]), data=None)
@example(ring=_ring(64, [0, (1 << 64) - 1]), data=None)
@example(ring=_ring(8, [3, 255]), data=None)
@example(ring=_ring(6, range(64)), data=None)
@example(ring=_ring(64, [(1 << 63) + 1000 * k for k in range(6)]), data=None)
def test_segment_bounds_match_the_eager_columns(ring, data):
    # Rings with a top identifier equal to the mask have no wrap segment;
    # the run of peers 1000 identifiers apart near 2^63 sits far below one
    # float ulp of its values, so its ranges are one-ulp degenerate.
    bits, ids = ring
    compact = CompactRing(IdentifierSpace(bits), ids, domain=(-2.0, 3.0))
    seg_low, seg_high, wrap = reference_segment_bounds(compact)
    if data is None:
        rows = np.arange(ids.size)
    else:
        rows = np.array(
            data.draw(st.lists(st.integers(0, ids.size - 1), min_size=1, max_size=20)),
            dtype=np.int64,
        )
    low, high = compact.segment_bounds(rows)
    assert low.dtype == high.dtype == np.float64
    assert low.tobytes() == seg_low[rows].tobytes()
    assert high.tobytes() == seg_high[rows].tobytes()
    assert compact.wrap_bounds == wrap
    # Row 0 alone, as load_counts' straggler repair asks for it.
    first = compact.segment_bounds(np.array([0]))
    assert (first[0].tobytes(), first[1].tobytes()) == (
        seg_low[:1].tobytes(),
        seg_high[:1].tobytes(),
    )


def test_segment_bound_edge_cases():
    lone = _bounds_ring(64, [5], domain=(-1.0, 2.0))
    assert [b.tolist() for b in lone.segment_bounds(np.array([0, 0]))] == [[-1.0, -1.0], [2.0, 2.0]]
    assert lone.wrap_bounds is None
    top = _bounds_ring(8, [3, 255])
    assert top.wrap_bounds is None
    assert top.segment_bounds(np.array([1]))[1].tolist() == [1.0]
    cluster = _bounds_ring(64, [(1 << 63) + 1000 * k for k in range(4)])
    low, high = cluster.segment_bounds(np.arange(1, 4))
    assert np.array_equal(high, np.nextafter(low, np.inf))


@given(st.lists(st.integers(-(1 << 62), 1 << 62), max_size=80))
def test_sorted_unique_is_unique(values):
    for dtype in (np.int64, np.uint64):
        arr = np.array(values, dtype=np.int64).astype(dtype)
        out = _sorted_unique(arr)
        assert out.dtype == dtype
        assert np.array_equal(out, np.unique(arr))


class TestLoadOrder:
    """Counts, histogram rows and the wrap row do not depend on value order."""

    @staticmethod
    def _ring():
        # A cluster of peers 1000 identifiers apart, far below one float
        # ulp of their values, so edge values become stragglers.
        cluster = np.uint64(1 << 63) + np.arange(40, dtype=np.uint64) * np.uint64(1000)
        scattered = np.random.default_rng(0).integers(0, 1 << 64, 30, dtype=np.uint64)
        ids = _sorted_unique(np.concatenate((cluster, scattered)))
        return CompactRing(IdentifierSpace(64), ids)

    def _values(self):
        ring = self._ring()
        edges = np.concatenate(ring.segment_bounds(np.arange(ring.n_peers)))
        values = np.concatenate(
            (
                edges,
                np.nextafter(edges, -np.inf),
                np.nextafter(edges, np.inf),
                np.random.default_rng(1).random(500),
            )
        )
        return values[(values >= 0.0) & (values <= 1.0)]

    def _load(self, values, block):
        ring = self._ring()
        calls = []
        straggler_cell = ring._straggler_cell

        def spy(value, owner):
            calls.append(value)
            return straggler_cell(value, owner)

        with mock.patch.object(compact_module, "_LOAD_BLOCK", block):
            with mock.patch.object(ring, "_straggler_cell", spy):
                ring.load_counts(values)
        hist, wrap_hist = ring.synopsis_plane()
        return ring.counts, hist, wrap_hist, sorted(calls)

    def test_shuffled_and_sorted_loads_agree(self):
        values = self._values()
        shuffled = values.copy()
        np.random.default_rng(2).shuffle(shuffled)
        reference = self._load(np.sort(values), 1 << 16)
        counts, hist, wrap_hist, stragglers = reference
        # The case covers every path: stragglers, the wrap row, primaries.
        assert stragglers
        assert wrap_hist.sum() > 0
        assert counts.sum() == values.size
        for loaded in (
            self._load(shuffled, 1 << 16),
            self._load(shuffled, 7),
            self._load(values[::-1].copy(), 13),
        ):
            assert np.array_equal(loaded[0], counts)
            assert np.array_equal(loaded[1], hist)
            assert np.array_equal(loaded[2], wrap_hist)
            assert loaded[3] == stragglers


class TestObjectRingRegistry:
    def test_create_registers_in_draw_order_and_counts_each_peer(self):
        n, seed = 300, 4
        network = RingNetwork.create(n, seed=seed)
        # The draws RingNetwork.create makes, into the same set.
        rng = np.random.default_rng(seed)
        idents: set[int] = set()
        while len(idents) < n:
            draws = rng.integers(0, 1 << 64, size=n - len(idents), dtype=np.uint64)
            idents.update(int(d) for d in draws)
        assert list(network._nodes) == list(idents)
        assert network._sorted_ids == sorted(idents)
        # One topology and one data bump per registered peer, and one
        # topology bump for the overlay rebuild.
        assert network.topology_version == n + 1
        assert network.data_version == n

    def test_create_balanced_counts_each_peer(self):
        values = np.random.default_rng(5).random(400)
        network = RingNetwork.create_balanced(50, values, seed=5)
        assert network._sorted_ids == sorted(network._nodes)
        assert network.topology_version == 51
        assert network.data_version == 50

    def test_load_data_takes_arrays_lists_and_iterables_alike(self):
        values = np.random.default_rng(6).random(2_000)
        loaded = []
        for source in (values, values.tolist(), iter(values.tolist())):
            network = RingNetwork.create(40, seed=6)
            network.load_data(source)
            loaded.append(network.all_values().copy())
        assert np.array_equal(loaded[0], loaded[1])
        assert np.array_equal(loaded[0], loaded[2])

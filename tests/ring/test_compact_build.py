"""The compact ring's set-up against its one-search-per-finger oracle.

:func:`~repro.ring.lockstep.exact_fingers` searches only the finger levels
that pass a peer's successor, and :meth:`CompactRing._build_scan` starts
its slab at the ring's smallest gap; both must give what one
``searchsorted`` per finger gives.  :meth:`CompactRing.load_counts` sorts
each block before placing it, which must not change a count.  The object
ring registers its peers with one sort and must end in the state
registering them one by one left.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.ring import compact as compact_module
from repro.ring.compact import CompactRing
from repro.ring.identifier import IdentifierSpace
from repro.ring.lockstep import _sorted_unique, compress_scan, exact_fingers
from repro.ring.network import RingNetwork
from tests.ring.reference_routing import reference_fingers

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
    expected = compress_scan(own, [(reference_fingers(ids, slice(None), bits), None)])
    with mock.patch.object(compact_module, "_SCAN_BLOCK", block):
        scan = CompactRing(IdentifierSpace(bits), ids).scan
    assert scan.dtype == expected.dtype
    assert np.array_equal(scan, expected)


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
        edges = np.concatenate((ring.seg_low, ring.seg_high))
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
        bin_straggler = ring._bin_straggler

        def spy(value, owner, hist, wrap_hist):
            calls.append(value)
            bin_straggler(value, owner, hist, wrap_hist)

        with mock.patch.object(compact_module, "_LOAD_BLOCK", block):
            with mock.patch.object(ring, "_bin_straggler", spy):
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

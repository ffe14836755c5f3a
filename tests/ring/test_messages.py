"""Tests for message accounting."""

import pytest

from repro.ring.messages import MessageStats, MessageType


class TestMessageStats:
    def test_starts_empty(self):
        stats = MessageStats()
        assert stats.messages == 0
        assert stats.hops == 0

    def test_record_counts(self):
        stats = MessageStats()
        stats.record(MessageType.PROBE_REQUEST)
        stats.record(MessageType.PROBE_REPLY, 2)
        assert stats.messages == 3
        assert stats.count_of(MessageType.PROBE_REPLY) == 2

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            MessageStats().record(MessageType.JOIN, -1)

    def test_hops_only_count_routing_types(self):
        stats = MessageStats()
        stats.record(MessageType.LOOKUP_HOP, 3)
        stats.record(MessageType.SUCCESSOR_WALK, 2)
        stats.record(MessageType.WALK_STEP, 1)
        stats.record(MessageType.PROBE_REQUEST, 10)
        assert stats.hops == 6
        assert stats.messages == 16

    def test_reset(self):
        stats = MessageStats()
        stats.record(MessageType.JOIN)
        stats.reset()
        assert stats.messages == 0


class TestCostSnapshot:
    def test_delta(self):
        stats = MessageStats()
        stats.record(MessageType.LOOKUP_HOP, 5)
        before = stats.snapshot()
        stats.record(MessageType.LOOKUP_HOP, 3)
        stats.record(MessageType.PROBE_REQUEST, 1)
        delta = before.delta(stats.snapshot())
        assert delta.messages == 4
        assert delta.hops == 3
        assert delta.by_type == {"lookup_hop": 3, "probe_request": 1}

    def test_delta_empty(self):
        stats = MessageStats()
        before = stats.snapshot()
        delta = before.delta(stats.snapshot())
        assert delta.messages == 0
        assert delta.by_type == {}

    def test_snapshot_is_frozen_view(self):
        stats = MessageStats()
        stats.record(MessageType.JOIN)
        snap = stats.snapshot()
        stats.record(MessageType.JOIN)
        assert snap.messages == 1

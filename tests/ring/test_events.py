"""Tests for the discrete-event engine: determinism, replay, one clock.

Two contracts carry everything else:

* **Determinism** — a run is a pure function of (seed, schedule).  The
  event queue orders on ``(time, seq)`` with a monotone insertion
  counter, so the fired-event trace is byte-identical across repeated
  runs in one process and across ``parallel_map`` worker counts.
* **Replay** — in immediate mode (zero latency, no service model) the
  engine reproduces the synchronous simulator exactly: same owners, same
  hop counts, same :class:`~repro.ring.messages.MessageStats` ledger.
"""

import numpy as np
import pytest

from repro.experiments.common import parallel_map
from repro.ring.events import (
    Event,
    EventEngine,
    EventKind,
    LatencyModel,
    ServiceModel,
    schedule_gossip_push,
    schedule_lookup,
)
from repro.ring.network import RingNetwork
from repro.ring.routing import iter_route_steps, route_to_key
from repro.ring.serialization import clone_network

N_PEERS = 96
STORM = 40


def _fresh_network(seed=7, n_peers=N_PEERS):
    return RingNetwork.create(n_peers, seed=seed)


def _storm_tasks(network, engine, seed=3, count=STORM):
    """Schedule a deterministic batch of concurrent lookups."""
    rng = np.random.default_rng(seed)
    ids = network.peer_ids()
    entries = rng.integers(0, len(ids), size=count)
    keys = rng.integers(0, network.space.size, size=count, dtype=np.uint64)
    return [
        schedule_lookup(engine, network.node(ids[int(e)]), int(k), tag=i)
        for i, (e, k) in enumerate(zip(entries, keys))
    ]


def _timed_storm_trace(worker_tag):
    """Top-level (picklable) unit for the cross-process determinism test.

    Builds its own fixture from explicit seeds — the ``parallel_map``
    contract — runs a timed, queued lookup storm, and returns the trace
    bytes.  ``worker_tag`` only distinguishes items; it must not leak
    into the result.
    """
    del worker_tag
    network = _fresh_network()
    engine = EventEngine(
        network,
        seed=11,
        latency=LatencyModel(base=1.0, jitter=0.5),
        service=ServiceModel(service_time=0.25),
        record_trace=True,
    )
    _storm_tasks(network, engine)
    engine.run()
    return engine.trace_bytes()


class TestQueueOrdering:
    def test_ties_fire_in_insertion_order(self):
        engine = EventEngine(_fresh_network(seed=1, n_peers=8))
        fired = []
        for i in range(5):
            engine.schedule(1.0, EventKind.TIMER, lambda i=i: fired.append(i), tag=i)
        engine.schedule(0.5, EventKind.TIMER, lambda: fired.append("early"))
        engine.run()
        assert fired == ["early", 0, 1, 2, 3, 4]

    def test_clock_is_monotone_and_matches_events(self):
        engine = EventEngine(_fresh_network(seed=1, n_peers=8), record_trace=True)
        for delay in (3.0, 1.0, 2.0, 1.0):
            engine.schedule(delay, EventKind.TIMER)
        engine.run()
        times = [e.time for e in engine.trace]
        assert times == sorted(times) == [1.0, 1.0, 2.0, 3.0]
        assert engine.now == 3.0
        # Equal times fired in insertion order.
        seqs = [e.seq for e in engine.trace[:2]]
        assert seqs == sorted(seqs)

    def test_negative_delay_rejected(self):
        engine = EventEngine(_fresh_network(seed=1, n_peers=8))
        with pytest.raises(ValueError):
            engine.schedule(-0.1, EventKind.TIMER)

    def test_run_until_stops_before_future_events(self):
        engine = EventEngine(_fresh_network(seed=1, n_peers=8))
        engine.schedule(1.0, EventKind.TIMER)
        engine.schedule(5.0, EventKind.TIMER)
        assert engine.run(until=2.0) == 1
        assert engine.now == 1.0  # the clock never advances past `until`
        assert engine.pending == 1
        assert engine.run() == 1

    def test_run_max_events_bounds_count(self):
        engine = EventEngine(_fresh_network(seed=1, n_peers=8))
        for _ in range(4):
            engine.schedule(0.0, EventKind.TIMER)
        assert engine.run(max_events=3) == 3
        assert engine.pending == 1


class TestDeterminism:
    def test_trace_byte_identical_across_runs_in_process(self):
        first = _timed_storm_trace(0)
        second = _timed_storm_trace(1)
        assert first == second
        assert first  # non-empty: the storm actually ran

    def test_trace_byte_identical_across_worker_counts(self):
        serial = parallel_map(_timed_storm_trace, [0, 1], workers=1)
        fanned = parallel_map(_timed_storm_trace, [0, 1], workers=2)
        assert serial == fanned
        assert serial[0] == serial[1]

    def test_trace_bytes_shape(self):
        engine = EventEngine(_fresh_network(seed=1, n_peers=8), record_trace=True)
        assert engine.trace_bytes() == b""
        engine.schedule(1.5, EventKind.TIMER, src=3, dst=4, tag=9)
        engine.run()
        assert engine.trace_bytes() == b"0|1.5|timer|3|4|9\n"

    def test_engine_never_draws_from_network_rng(self):
        network = _fresh_network()
        before = network.rng.bit_generator.state["state"]
        engine = EventEngine(
            network, seed=5, latency=LatencyModel(base=1.0, jitter=0.5)
        )
        _storm_tasks(network, engine)
        engine.run()
        assert network.rng.bit_generator.state["state"] == before


class TestImmediateReplay:
    """Immediate mode is the synchronous simulator, event by event."""

    def test_storm_reproduces_synchronous_ledger_and_owners(self):
        reference = _fresh_network()
        replayed = clone_network(reference)
        rng = np.random.default_rng(3)
        ids = reference.peer_ids()
        entries = rng.integers(0, len(ids), size=STORM)
        keys = rng.integers(0, reference.space.size, size=STORM, dtype=np.uint64)

        reference.reset_stats()
        expected = [
            route_to_key(reference, reference.node(ids[int(e)]), int(k))
            for e, k in zip(entries, keys)
        ]

        replayed.reset_stats()
        engine = EventEngine(replayed)  # IMMEDIATE latency, no service
        tasks = [
            schedule_lookup(engine, replayed.node(ids[int(e)]), int(k), tag=i)
            for i, (e, k) in enumerate(zip(entries, keys))
        ]
        engine.run()

        assert all(task.ok for task in tasks)
        assert [t.owner_ident for t in tasks] == [r.owner.ident for r in expected]
        assert [t.hops for t in tasks] == [r.hops for r in expected]
        assert [t.timeouts for t in tasks] == [r.timeouts for r in expected]
        assert replayed.stats.snapshot().by_type == reference.stats.snapshot().by_type
        # Immediate mode: everything fires at the start instant.
        assert engine.now == 0.0
        assert all(t.latency == 0.0 for t in tasks)

    def test_replay_holds_with_stale_pointers(self):
        # Crash a few peers without repair: routes now hit timeouts, and
        # the engine must count them exactly as the reference does.
        from repro.ring import chord

        reference = _fresh_network(seed=19)
        victims = list(reference.peer_ids())[3:30:9]
        for ident in victims:
            chord.crash(reference, ident)
        replayed = clone_network(reference)
        ids = list(reference.peer_ids())
        rng = np.random.default_rng(5)
        keys = rng.integers(0, reference.space.size, size=25, dtype=np.uint64)

        reference.reset_stats()
        expected = [
            route_to_key(reference, reference.node(ids[i % len(ids)]), int(k))
            for i, k in enumerate(keys)
        ]
        replayed.reset_stats()
        engine = EventEngine(replayed)
        tasks = [
            schedule_lookup(engine, replayed.node(ids[i % len(ids)]), int(k))
            for i, k in enumerate(keys)
        ]
        engine.run()
        assert sum(t.timeouts for t in tasks) == sum(r.timeouts for r in expected)
        assert [t.owner_ident for t in tasks] == [r.owner.ident for r in expected]
        assert replayed.stats.snapshot().by_type == reference.stats.snapshot().by_type

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_lossy_lookups_match_synchronous_draws(self, seed):
        """Under loss each lost send waits one delivery and retransmits;
        one lookup at a time in immediate mode consumes the network RNG
        exactly as the synchronous router does."""
        from repro.ring import chord
        from repro.ring.faults import FaultPlane
        from repro.ring.messages import MessageType

        def lossy_ring():
            network = RingNetwork.create(200, seed=seed)
            for ident in list(network.peer_ids())[5:200:20]:
                chord.crash(network, ident)
            network.install_faults(FaultPlane(loss_rate=0.3))
            network.reset_stats()
            return network

        reference, replayed, stepped = lossy_ring(), lossy_ring(), lossy_ring()
        ids = list(reference.peer_ids())
        rng = np.random.default_rng(seed + 50)
        entries = rng.integers(0, len(ids), size=20)
        keys = rng.integers(0, reference.space.size, size=20, dtype=np.uint64)
        initial = reference.rng.bit_generator.state
        expected = [
            route_to_key(reference, reference.node(ids[int(e)]), int(k))
            for e, k in zip(entries, keys)
        ]
        engine = EventEngine(replayed, record_trace=True)
        tasks = []
        for e, k in zip(entries, keys):
            tasks.append(schedule_lookup(engine, replayed.node(ids[int(e)]), int(k)))
            engine.run()
        # Who sends each message: a lost send or a timed-out probe leaves
        # the sender in place, a forward moves it to the receiver.
        links, lost = [], 0
        for e, k in zip(entries, keys):
            sender = ids[int(e)]
            for kind, ident, *_ in iter_route_steps(stepped, stepped.node(sender), int(k)):
                if kind != "done":
                    links.append((sender, ident))
                lost += kind == "lost"
                if kind == "forward":
                    sender = ident

        assert all(task.ok for task in tasks)
        assert [t.owner_ident for t in tasks] == [r.owner.ident for r in expected]
        assert [t.hops for t in tasks] == [r.hops for r in expected]
        assert [t.timeouts for t in tasks] == [r.timeouts for r in expected]
        assert replayed.stats.count_of(MessageType.LOOKUP_HOP) == reference.stats.count_of(
            MessageType.LOOKUP_HOP
        )
        assert replayed.rng.bit_generator.state == reference.rng.bit_generator.state
        assert reference.rng.bit_generator.state != initial
        assert lost > 0
        messages = [(ev.src, ev.dst) for ev in engine.trace if ev.kind is EventKind.MESSAGE]
        assert messages == links

    def test_gossip_matches_synchronous_ledger(self):
        network = _fresh_network(seed=2, n_peers=16)
        a, b = list(network.peer_ids())[:2]
        engine = EventEngine(network)
        schedule_gossip_push(engine, a, b, payload_units=3.0)
        engine.run()
        assert network.stats.snapshot().by_type == {"gossip_push": 1}
        assert network.stats.payload == pytest.approx(3.0)


class TestServiceQueueing:
    def test_queue_depth_tracks_hot_destination(self):
        network = _fresh_network(seed=4, n_peers=16)
        dst = list(network.peer_ids())[0]
        src = list(network.peer_ids())[1]
        engine = EventEngine(
            network, latency=LatencyModel.IMMEDIATE, service=ServiceModel(1.0)
        )
        for i in range(5):
            engine.deliver(src, dst, EventKind.MESSAGE, tag=i)
        assert engine.max_queue_depth == 5
        assert engine.hot_peer == dst
        engine.run()
        # Single-server FIFO: the k-th message completes at k * service.
        assert engine.now == 5.0
        # The backlog drained: a second burst of five queues no deeper.
        for i in range(5):
            engine.deliver(src, dst, EventKind.MESSAGE, tag=i)
        assert engine.max_queue_depth == 5

    def test_no_service_model_means_no_queueing(self):
        network = _fresh_network(seed=4, n_peers=16)
        ids = list(network.peer_ids())
        engine = EventEngine(network, latency=LatencyModel(base=2.0))
        for i in range(4):
            engine.deliver(ids[1], ids[0], EventKind.MESSAGE, tag=i)
        engine.run()
        assert engine.max_queue_depth == 0
        assert engine.hot_peer == -1
        assert engine.now == 2.0


class TestModels:
    def test_latency_sample_jitter_free_draws_nothing(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state["state"]
        assert LatencyModel(base=2.5).sample(rng) == 2.5
        assert rng.bit_generator.state["state"] == state
        assert LatencyModel.IMMEDIATE.sample(rng) == 0.0

    def test_latency_jitter_bounded_and_deterministic(self):
        model = LatencyModel(base=1.0, jitter=0.5)
        draws = [model.sample(np.random.default_rng(9)) for _ in range(2)]
        assert draws[0] == draws[1]
        assert 1.0 <= draws[0] <= 1.5

    def test_invalid_models_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(base=-1.0)
        with pytest.raises(ValueError):
            LatencyModel(jitter=-0.5)
        with pytest.raises(ValueError):
            ServiceModel(service_time=-0.1)

    def test_event_is_frozen(self):
        event = Event(time=0.0, seq=0, kind=EventKind.TIMER)
        with pytest.raises(AttributeError):
            event.time = 1.0

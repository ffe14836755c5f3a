"""F19 — lookup latency and hot-peer congestion under concurrent load.

Message counts say nothing about *when* messages arrive.  The event engine
(:mod:`repro.ring.events`) gives every hop a delivery delay and every peer
a single-server processing queue, so a storm of concurrent lookups exposes
what the synchronous simulator cannot: completion-latency percentiles and
queueing at hot peers (the high-in-degree fingers every storm converges
on).  This experiment sweeps the offered concurrency against per-peer
service time and reports the latency distribution alongside the deepest
queue observed — all in simulated time, so the table is a pure function of
``(seed, scale)`` like every other figure.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import scale_int, scale_list
from repro.experiments.results import ResultTable
from repro.ring.events import EventEngine, LatencyModel, ServiceModel, schedule_lookup
from repro.ring.network import RingNetwork

EXPERIMENT_ID = "F19"
TITLE = "Lookup latency and hot-peer congestion under concurrent load"
EXPECTATION = (
    "With zero service time, p50 latency sits near the hop latency times "
    "~log2(N)/2 hops and p99 roughly doubles it, independent of "
    "concurrency (pure delays do not queue).  With a nonzero service "
    "time, queueing kicks in: p99 latency and the hot peer's maximum "
    "queue depth grow with concurrency while mean hops stay flat — "
    "congestion, not path length, is what degrades."
)

#: Lookups in flight simultaneously (each storm starts at time zero).
CONCURRENCY = [16, 64, 256]
#: Per-message service time at the destination, in units of the base hop
#: latency (0 = infinite capacity, the pure-delay reference point).
SERVICE_TIMES = (0.0, 0.25)
#: Per-hop delivery delay: base 1.0 plus uniform jitter.
HOP_LATENCY = LatencyModel(base=1.0, jitter=0.5)


def run(scale: float = 1.0, seed: int = 0) -> ResultTable:
    """Sweep concurrency x service time on one fixed ring."""
    table = ResultTable(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        expectation=EXPECTATION,
        columns=[
            "concurrency",
            "service_time",
            "p50_latency",
            "p99_latency",
            "mean_hops",
            "max_queue_depth",
        ],
    )
    n_peers = scale_int(1024, scale, minimum=32)
    storms = scale_list(CONCURRENCY, min(scale, 1.0), minimum=4)

    for service_time in SERVICE_TIMES:
        for concurrency in storms:
            # Fresh fixture per cell: queue state, engine jitter and (under
            # a lossy fault profile) the lookups' delivery draws from the
            # network RNG must not leak between cells, so each cell is a
            # pure function of its seeds.
            network = RingNetwork.create(n_peers, seed=seed + 1)
            engine = EventEngine(
                network,
                seed=seed + 2,
                latency=HOP_LATENCY,
                service=ServiceModel(service_time) if service_time > 0.0 else None,
            )
            cell_rng = np.random.default_rng(seed * 31 + concurrency)
            ids = network.peer_ids()
            entries = cell_rng.integers(0, len(ids), size=concurrency)
            keys = cell_rng.integers(0, network.space.size, size=concurrency, dtype=np.uint64)
            tasks = [
                schedule_lookup(engine, network.node(ids[int(e)]), int(k), tag=i)
                for i, (e, k) in enumerate(zip(entries, keys))
            ]
            engine.run()
            latencies = np.asarray([task.latency for task in tasks], dtype=float)
            hops = np.asarray([task.hops for task in tasks], dtype=float)
            table.add_row(
                concurrency=concurrency,
                service_time=service_time,
                p50_latency=float(np.percentile(latencies, 50)),
                p99_latency=float(np.percentile(latencies, 99)),
                mean_hops=float(hops.mean()),
                max_queue_depth=engine.max_queue_depth,
            )
    return table

"""The benchmark's own test: its exact metrics repeat at a seed and follow it.

Runs every workload at a tiny size with its minimum number of ops.
Run from the checkout root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from run import end_to_end  # noqa: E402

EXACT = ("messages_per_op", "rounds_p50", "ks_p50", "coverage")


def tiny_run(name: str, seed: int, traced: bool) -> tuple[dict, dict, dict]:
    tracer = tracing.Tracer() if traced else tracing.NullTracer()
    if traced:
        tracing.install_probes(tracer)
    try:
        setup_s, phase, workload = workloads.run_workload(
            name, seed, 0.0, tracer, workloads.WORKLOADS[name].TINY
        )
    finally:
        if traced:
            tracer.restore()
    assert phase.failed == 0 and phase.checks and all(phase.checks.values()), phase.checks
    metrics = end_to_end(workload, setup_s, phase)
    exact = {key: metrics[key] for key in EXACT}
    counters = dict(tracer.counts) if traced else {}
    extra = workload.layer_counters()
    return exact, counters, extra


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_exact_metrics_repeat_at_a_seed_and_change_with_it(name: str) -> None:
    first = tiny_run(name, seed=3, traced=True)
    again = tiny_run(name, seed=3, traced=True)
    untraced = tiny_run(name, seed=3, traced=False)
    other_seed = tiny_run(name, seed=4, traced=True)
    assert first == again
    assert untraced[0] == first[0], "tracing changed an exact metric"
    assert other_seed[0] != first[0], "the seed does not reach the generator"
    assert other_seed[1] != first[1]

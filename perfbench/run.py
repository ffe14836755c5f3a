"""Benchmark entry point: one workload, one seed, one timed phase.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload estimate-1m --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
workload untraced in a child process and then traced in this one, and
prints the per-layer metrics plus the tracing overhead (traced minus
untraced, per end-to-end metric).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/NOTES.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"

E2E_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "messages_per_op": "count",
    "rounds_p50": "count",
    "ks_p50": "ratio",
    "coverage": "ratio",
    "peak_rss_mb": "MB",
}
# The end-to-end metrics BENCHMARK.json gates.  op_p50_ms, op_tail_ms and
# ops_per_s are printed but not gated: on the 2-vCPU VM the benchmark was
# tuned on, their spread across seeds exceeded the largest allowed bound
# (see NOTES.md).
GATED = ("setup_s", "op_p90_ms", "messages_per_op", "rounds_p50", "ks_p50", "coverage", "peak_rss_mb")


def nearest_rank(values: list[float], percentile: float) -> float:
    ordered = sorted(values)
    rank = max(math.ceil(percentile / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]


def tail_percentile(samples: int) -> float:
    """The highest percentile of the ladder with at least 10 samples beyond it."""
    for percentile in (99.9, 99.0, 95.0, 90.0):
        if samples - math.ceil(percentile / 100.0 * samples) >= 10:
            return percentile
    return 50.0


def end_to_end(workload: Any, setup_s: list[float], phase: Any) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_s),
        "op_p50_ms": nearest_rank(phase.op_s, 50.0) * 1e3,
        "op_p90_ms": nearest_rank(phase.op_s, 90.0) * 1e3,
        "op_tail_ms": nearest_rank(phase.op_s, tail_percentile(len(phase.op_s))) * 1e3,
        "ops_per_s": phase.attempted / phase.timed_s,
        "messages_per_op": phase.messages / phase.attempted,
        "rounds_p50": nearest_rank(phase.rounds, 50.0),
        "ks_p50": nearest_rank(phase.ks, 50.0),
        "coverage": phase.answered / phase.requested,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def report(workload: Any, setup_s: list[float], phase: Any, metrics: dict[str, float]) -> bool:
    """Print the human-readable report; returns whether every check passed."""
    tail = tail_percentile(len(phase.op_s))
    beyond = len(phase.op_s) - math.ceil(tail / 100.0 * len(phase.op_s))
    print(f"workload {workload.name}  seed {workload.seed}")
    print(f"  setups: {len(setup_s)} x [{', '.join(f'{s:.3f}' for s in setup_s)}] s")
    print(
        f"  ops: {phase.attempted} attempted, {phase.failed} failed, "
        f"{phase.timed_s:.2f} s timed"
    )
    print(f"  op_tail_ms is p{tail:g}: {len(phase.op_s)} samples, {beyond} beyond it")
    for name, unit in E2E_UNITS.items():
        print(f"  {name:<18} {metrics[name]:>14.6g} {unit}")
    if phase.write_s:
        write_p50 = nearest_rank(phase.write_s, 50.0) * 1e3
        print(f"  {'write_p50_ms':<18} {write_p50:>14.6g} ms  ({len(phase.write_s)} write steps)")
    for name, value in phase.counters.items():
        print(f"  {name:<32} {value:g}")
    ks_ok = metrics["ks_p50"] < workload.ks_bound
    phase.check(f"ks_p50<{workload.ks_bound:g}", ks_ok)
    for name, ok in phase.checks.items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    for error in phase.errors:
        print(f"  failed op: {error.strip()}", file=sys.stderr)
    return all(phase.checks.values())


def run_untraced_child(args: argparse.Namespace) -> dict[str, Any]:
    """The untraced reference run, in its own process (own peak RSS)."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=170, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"untraced reference run failed with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    if not args.trace:
        setup_s, phase, workload = workloads.run_workload(
            args.workload, args.seed, args.seconds, tracing.NullTracer()
        )
        measured = end_to_end(workload, setup_s, phase)
        correct = report(workload, setup_s, phase, measured)
        metrics = {name: measured[name] for name in GATED}
        units = E2E_UNITS
    else:
        untraced = run_untraced_child(args)
        tracer = tracing.Tracer()
        tracing.install_probes(tracer)
        tracer.watch_gc()
        try:
            setup_s, phase, workload = workloads.run_workload(
                args.workload, args.seed, args.seconds, tracer
            )
        finally:
            tracer.unwatch_gc()
            tracer.restore()
        traced = end_to_end(workload, setup_s, phase)
        print("traced run:")
        correct = report(workload, setup_s, phase, traced) and untraced["correct"]
        metrics, units = tracing.layer_metrics(tracer, phase, workload, setup_s)
        for name in GATED:
            metrics[f"overhead.{name}"] = traced[name] - untraced["metrics"][name]["value"]
            units[f"overhead.{name}"] = E2E_UNITS[name]
        path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.dump(path)
        print(f"per-layer metrics ({len(tracer.spans)} spans written to {path.relative_to(ROOT)}):")
        for name, value in metrics.items():
            print(f"  {name:<34} {value:>14.6g} {units[name]}")

    print(json.dumps({
        "correct": bool(correct),
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Steadiness check: interleaved sets of benchmark runs and their spreads.

Runs ``run.py`` for every (seed, workload) pair once per set, alternating
which set goes first, so slow drift of the machine's speed lands on both
sets alike.  For each set, workload and end-to-end metric it reports the
median and the spread -- the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median -- and
the ratio of the set medians.  Each run's result line is appended to
``perfbench/_out/steady.jsonl`` as it finishes.  Seeds 1-10, two sets,
every workload of ``BENCHMARK.json`` at its ``run_seconds``:

    python3 perfbench/steady.py
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
SETS = 2


def spread(values: list[float]) -> float:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def summarize(rows: list[dict], sets: int, bounds: dict[str, float]) -> None:
    workloads = sorted({row["workload"] for row in rows})
    for workload in workloads:
        print(f"\n{workload}")
        print(f"  {'metric':<16} {'bound':>6}" + "".join(
            f" {'median' + str(s):>12} {'spread' + str(s):>8}" for s in range(sets)
        ) + f" {'med ratio':>9}")
        for metric, bound in bounds.items():
            medians, cells = [], ""
            for s in range(sets):
                values = [
                    row["metrics"][metric]["value"]
                    for row in rows
                    if row["workload"] == workload and row["set"] == s
                ]
                if len(values) < 2:
                    cells += f" {'-':>12} {'-':>8}"
                    continue
                medians.append(statistics.median(values))
                cells += f" {medians[-1]:>12.6g} {spread(values):>8.3f}"
            ratio = medians[-1] / medians[0] if len(medians) > 1 and medians[0] else 1.0
            print(f"  {metric:<16} {bound:>6.2f}{cells} {ratio:>9.3f}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    workloads = [workload["name"] for workload in spec["workloads"]]
    seconds = str(spec["run_seconds"])
    log = HERE / "_out" / "steady.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    rows = []
    for turn, seed in enumerate(SEEDS):
        for workload in workloads:
            order = range(SETS) if turn % 2 == 0 else reversed(range(SETS))
            for which in order:
                started = time.perf_counter()
                done = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
                    capture_output=True, text=True, cwd=ROOT, timeout=180, check=False,
                )
                wall = time.perf_counter() - started
                if done.returncode != 0:
                    sys.stderr.write(done.stdout + done.stderr)
                    return 1
                row = json.loads(done.stdout.strip().splitlines()[-1])
                row.update(workload=workload, seed=seed, set=which, wall_s=wall)
                rows.append(row)
                with log.open("a") as handle:
                    handle.write(json.dumps(row) + "\n")
                print(f"{workload} seed {seed} set {which}: {wall:.1f} s wall, correct={row['correct']}",
                      flush=True)
    summarize(rows, SETS, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())

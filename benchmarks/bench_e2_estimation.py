"""E2 — the scale-estimation benchmark's acceptance assertions.

Plain pytest (no pytest-benchmark dependency): the CI memory-footprint
job runs this file directly to enforce the synopsis plane's contract —

* the full estimator stack completes an F1-class accuracy run at
  N=10^6 peers on the compact backend, with the process's peak RSS
  under the CI budget, and
* the resulting KS error against the loaded data's empirical CDF is
  within the Monte-Carlo band for the probe budget (the run answers
  correctly, not just quickly).

Like E1's smoke, the RSS budget is the measured peak plus a quarter
(~330 MB on Python 3.11, NumPy 2.4, x86-64 Linux; ~350 MB when E1 ran
first in the same process): room for another platform's allocator, not
for a second copy of the scan, an ``int64`` plane or O(n x buckets)
Python-object transients.
"""

from __future__ import annotations

import resource
import sys

import numpy as np

from repro.experiments.estimation_bench import run_estimation_bench

#: Peak-RSS ceiling for the million-peer estimation run, in bytes
#: (measured ~330 MB, plus a quarter).
PEAK_RSS_BUDGET = 416 * 1024**2

#: Post-load per-peer ceiling including the synopsis plane (measured 148
#: B/peer at N=10^6, scan width 25): the E1 loaded budget, which adds the
#: plane's 8 int32 buckets (32 B/peer) to the structural columns
#: explicitly rather than absorbing them into the structural budget.
BYTES_PER_PEER_LOADED_BUDGET = 160.0

#: Bytes per synopsis bucket: the plane's counts are ``int32``.
HIST_ITEMSIZE = np.dtype(np.int32).itemsize

#: KS ceiling at s=256 probes: the F1 Monte-Carlo band is ~1/sqrt(s) =
#: 0.0625; triple it so the assertion flags broken estimation (KS near
#: 0.5+) without flaking on an unlucky seed.
KS_BUDGET_256 = 0.1875


def _peak_rss_bytes() -> int:
    """The process's lifetime peak RSS (ru_maxrss is KiB on Linux)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


def test_e2_million_peer_estimation_accuracy_and_memory():
    metrics = run_estimation_bench(scale=1.0, seed=0)

    assert metrics["peers"] == 1_000_000.0
    assert metrics["items"] == 2_000_000.0

    # Accuracy: F1-class KS at scale, at both probe budgets.
    assert metrics["ks_256"] <= KS_BUDGET_256, metrics
    assert metrics["ks_64"] <= 2.0 * KS_BUDGET_256, metrics
    # The HT totals must land in the right decade, not just the CDF shape.
    assert 0.5 <= metrics["n_items_hat"] / metrics["items"] <= 2.0, metrics
    assert 0.5 <= metrics["n_peers_hat"] / metrics["peers"] <= 2.0, metrics

    # Memory: the loaded ring (columns + synopsis plane) stays columnar.
    assert metrics["bytes_per_peer"] <= BYTES_PER_PEER_LOADED_BUDGET, metrics
    # The plane is allocated, and is exactly B int32 buckets per peer plus
    # the one wrap row.
    plane_bytes = (metrics["peers"] + 1) * metrics["synopsis_buckets"] * HIST_ITEMSIZE
    assert metrics["synopsis_bytes_per_peer"] == plane_bytes / metrics["peers"], metrics

    assert _peak_rss_bytes() <= PEAK_RSS_BUDGET, (
        f"peak RSS {_peak_rss_bytes() / 1024**2:.0f} MB exceeds the "
        f"{PEAK_RSS_BUDGET / 1024**2:.0f} MB budget"
    )

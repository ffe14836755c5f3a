"""Span tracer for the traced benchmark run.

Spans are recorded from the benchmark's own files: either around a call the
benchmark makes itself (``tracer.span(name)``), or by replacing a function
in the namespace its caller looks it up in (``tracer.wrap``).  Nothing in
``src/`` is modified on disk; :meth:`Tracer.restore` undoes every patch.

A span is ``[name, start, end, parent_index, op_id]``.  Spans stay in
memory and are written out once, at the end of the run.  Counters are
recorded at the same boundaries (``tracer.counts``).
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import statistics
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

SETUP_OP = -1   # spans recorded while building the ring
WRITE_OP = -2   # spans recorded inside a write step


class NullTracer:
    """The untraced run: every hook is a no-op."""

    op = SETUP_OP

    def __init__(self) -> None:
        self._null = contextlib.nullcontext()

    def span(self, name: str) -> contextlib.AbstractContextManager[None]:
        return self._null


class Tracer:
    """In-memory spans and counters; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self.op = SETUP_OP
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self.gc_pauses: list[tuple[int, float]] = []
        self._gc_started = 0.0

    # -- spans ---------------------------------------------------------
    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    # -- patching ------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Optional[Callable[["Tracer", tuple[Any, ...], Any], None]] = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``.

        ``after(tracer, args, result)`` may record counters from the call.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if after is not None:
                after(tracer, args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def count_calls(
        self,
        owner: Any,
        attr: str,
        name: str,
        falsy_name: str = "",
        counts_if: Optional[Callable[..., bool]] = None,
    ) -> None:
        """Count calls of ``owner.attr`` (and its falsy results) without a span.

        With ``counts_if``, only calls for which it returns True (given the
        call's arguments) are counted.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        counts = self.counts

        @functools.wraps(original)
        def counted(*args: Any, **kwargs: Any) -> Any:
            result = original(*args, **kwargs)
            if counts_if is not None and not counts_if(*args, **kwargs):
                return result
            counts[name] += 1
            if falsy_name and not result:
                counts[falsy_name] += 1
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, counted)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- interpreter ---------------------------------------------------
    def _gc_callback(self, phase: str, info: dict[str, int]) -> None:
        if info.get("generation") != 2:
            return
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_pauses.append((self.op, time.perf_counter() - self._gc_started))

    def watch_gc(self) -> None:
        gc.callbacks.append(self._gc_callback)

    def unwatch_gc(self) -> None:
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (name, start, end, parent, op)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps([name, start, end, parent, op]) + "\n")


def install_probes(tracer: Tracer) -> None:
    """Patch the layer entry points the workloads reach.

    Each function is replaced where its caller looks it up:
    ``core.estimator``, ``core.tracking`` and ``core.confidence`` import
    ``collect_probes*`` and ``assemble_cdf_interpolated`` by name, so those
    namespaces are patched rather than only the defining module.
    """
    from repro.core import cdf_sampling, confidence, estimator, synopsis, tracking
    from repro.ring import mutation, routing
    from repro.ring.compact import CompactRing
    from repro.ring.faults import FaultPlane
    from repro.ring.network import RingNetwork
    from repro.ring.snapshot import RingSnapshot
    from repro.serve import service

    def route_batch_after(t: Tracer, args: tuple[Any, ...], result: Any) -> None:
        _, hops = result
        t.counts["compact.hops"] += int(hops.sum())
        t.counts["compact.probes"] += int(hops.size)

    def policy_after(t: Tracer, args: tuple[Any, ...], outcome: Any) -> None:
        t.counts["routing.retries"] += int(outcome.retries)

    def resilient_after(t: Tracer, args: tuple[Any, ...], result: Any) -> None:
        for failure in result[1]:
            t.counts[f"routing.failures.{failure.reason}"] += 1

    def lookup_after(t: Tracer, args: tuple[Any, ...], result: Any) -> None:
        t.counts["synopsis.lookups"] += 1

    def band_after(t: Tracer, args: tuple[Any, ...], band: Any) -> None:
        t.counts["confidence.replicates"] += int(band.replicates)

    def snapshot_refresh(original: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(original)
        def traced(snap: Any) -> Any:
            before = snap.version_token
            index = tracer._open("snapshot.refresh")
            try:
                return original(snap)
            finally:
                tracer._close(index)
                tracer.counts["snapshot.calls"] += 1
                if snap.version_token != before:
                    tracer.counts["snapshot.rebuilds"] += 1

        return traced

    for module in (estimator, tracking):
        tracer.wrap(module, "collect_probes", "sampling.collect")
        tracer.wrap(module, "assemble_cdf_interpolated", "sampling.assemble")
    tracer.wrap(estimator, "collect_probes_resilient", "sampling.collect", resilient_after)
    tracer.wrap(confidence, "assemble_cdf_interpolated", "sampling.assemble")
    tracer.wrap(confidence, "bootstrap_confidence_band", "confidence.bootstrap", band_after)
    tracer.wrap(cdf_sampling, "summarize_compact", "synopsis.materialize")
    tracer.wrap(cdf_sampling, "summarize_peer", "synopsis.materialize", lookup_after)
    tracer.wrap(cdf_sampling, "route_probes_batch", "routing.batch_route")
    tracer.count_calls(synopsis, "_build_summary", "synopsis.built")
    tracer.wrap(routing, "route_with_policy", "routing.policy_route", policy_after)
    tracer.wrap(CompactRing, "route_batch", "compact.route", route_batch_after)
    tracer.count_calls(CompactRing, "cached_summary", "synopsis.lookups")
    tracer.count_calls(CompactRing, "cache_summary", "synopsis.built")
    tracer.wrap(estimator.DistributionFreeEstimator, "estimate", "estimator.estimate")
    tracer.wrap(service, "drift_score_between", "tracking.drift_check")
    tracer.wrap(service.EstimationService, "_attempt_refresh", "serve.refresh")
    tracer.wrap(mutation, "plan_round", "churn.kernel")
    tracer.wrap(mutation, "apply_joins", "churn.kernel")
    tracer.wrap(mutation, "matrix_maintenance_round", "churn.maintenance")
    # Only calls that draw an outcome count: no loss rate, or no override
    # for the link, returns True without a draw.
    tracer.count_calls(
        RingNetwork, "delivery_succeeds", "faults.link_draws", "faults.drops",
        counts_if=lambda network: network.loss_rate > 0.0,
    )
    tracer.count_calls(
        FaultPlane, "link_delivers", "faults.link_draws", "faults.drops",
        counts_if=lambda plane, src, dst: plane._link_loss.get((src, dst), 0.0) > 0.0,
    )
    tracer.wrap(RingSnapshot, "_ensure_overlay", "snapshot.overlay")
    original_refresh = RingSnapshot.__dict__["refresh"]
    tracer._patches.append((RingSnapshot, "refresh", original_refresh))
    RingSnapshot.refresh = snapshot_refresh(original_refresh)  # type: ignore[method-assign]


FAILURE_REASONS = ("owner_unresponsive", "entry_stalled", "retry_exhausted", "hop_budget", "reply_lost")


def layer_metrics(
    tracer: Tracer, phase: Any, workload: Any, setup_s: list[float]
) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metrics of one traced run, with their units.

    Times "per op" are summed span durations over the timed phase divided
    by its read ops (by its write steps for the write-step layers); set-up
    times are medians over the set-ups.  Counts cover the timed phase,
    which is fixed work, so they repeat at a seed.  Layers a workload
    never reaches read 0.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    reads = max(phase.attempted, 1)
    writes = max(len(phase.write_s), 1)
    counts = tracer.counts
    extra = workload.layer_counters()

    def busy(name: str, op_filter: Callable[[int], bool], self_only: bool = False) -> float:
        total = 0.0
        for index, (span, start, end, parent, op) in enumerate(spans):
            if span == name and op_filter(op):
                total += end - start - (child[index] if self_only else 0.0)
        return total

    def per_read_ms(name: str, self_only: bool = False) -> float:
        return busy(name, lambda op: op >= 0, self_only) / reads * 1e3

    def per_write_ms(name: str) -> float:
        return busy(name, lambda op: op == WRITE_OP) / writes * 1e3

    def setup_median_s(name: str) -> float:
        times = [end - start for span, start, end, _, op in spans if span == name and op == SETUP_OP]
        return statistics.median(times) if times else 0.0

    def calls(name: str) -> float:
        return float(sum(1 for span in spans if span[0] == name and span[4] != SETUP_OP))

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    network = workload.network
    compact = hasattr(network, "memory_report")
    round_s = busy("churn.round", lambda op: op == WRITE_OP)
    kernel_s = busy("churn.kernel", lambda op: op == WRITE_OP) + busy(
        "churn.maintenance", lambda op: op == WRITE_OP
    )
    known = sum(counts[f"routing.failures.{reason}"] for reason in FAILURE_REASONS)
    all_failures = sum(v for k, v in counts.items() if k.startswith("routing.failures."))
    timed_gc = [pause for op, pause in tracer.gc_pauses if op != SETUP_OP]

    metrics: dict[str, tuple[float, str]] = {
        "compact.build_s": (setup_median_s("compact.build"), "s"),
        "compact.load_s": (setup_median_s("compact.load"), "s"),
        "compact.route_ms": (per_read_ms("compact.route"), "ms"),
        "compact.hops_per_probe": (ratio(counts["compact.hops"], counts["compact.probes"]), "count"),
        "compact.bytes_per_peer": (network.memory_report()["bytes_per_peer"] if compact else 0.0, "B"),
        "network.build_s": (setup_median_s("network.build"), "s"),
        "network.load_s": (setup_median_s("network.load"), "s"),
        "routing.policy_route_ms": (per_read_ms("routing.policy_route"), "ms"),
        "routing.retries": (float(counts["routing.retries"]), "count"),
        **{
            f"routing.failures.{reason}": (float(counts[f"routing.failures.{reason}"]), "count")
            for reason in FAILURE_REASONS
        },
        "routing.failures.other": (float(all_failures - known), "count"),
        "routing.batch_route_ms": (per_read_ms("routing.batch_route"), "ms"),
        "snapshot.refresh_ms": (
            per_read_ms("snapshot.refresh") + per_read_ms("snapshot.overlay"), "ms"
        ),
        "snapshot.rebuilds": (float(counts["snapshot.rebuilds"]), "count"),
        "snapshot.calls": (float(counts["snapshot.calls"]), "count"),
        "churn.round_ms": (per_write_ms("churn.round"), "ms"),
        "churn.maintenance_ms": (per_write_ms("churn.maintenance"), "ms"),
        "churn.kernel_share": (ratio(kernel_s, round_s), "ratio"),
        "churn.values_moved": (extra.get("churn.values_moved", 0.0), "count"),
        "storage.update_ms": (per_write_ms("storage.update"), "ms"),
        "faults.link_draws": (float(counts["faults.link_draws"]), "count"),
        "faults.drops": (float(counts["faults.drops"]), "count"),
        "synopsis.materialize_ms": (per_read_ms("synopsis.materialize"), "ms"),
        "synopsis.memo_hit_ratio": (
            1.0 - ratio(counts["synopsis.built"], counts["synopsis.lookups"])
            if counts["synopsis.lookups"] else 0.0,
            "ratio",
        ),
        "synopsis.memo_entries": (float(counts["synopsis.built"]), "count"),
        "sampling.collect_ms": (per_read_ms("sampling.collect"), "ms"),
        "sampling.assemble_ms": (per_read_ms("sampling.assemble"), "ms"),
        "sampling.assemble_calls": (calls("sampling.assemble"), "count"),
        "confidence.bootstrap_ms": (per_read_ms("confidence.bootstrap"), "ms"),
        "confidence.replicates": (float(counts["confidence.replicates"]), "count"),
        "estimator.estimate_ms": (per_read_ms("estimator.estimate"), "ms"),
        "estimator.self_ms": (per_read_ms("estimator.estimate", self_only=True), "ms"),
        "tracking.drift_check_ms": (per_read_ms("tracking.drift_check"), "ms"),
        "tracking.drift_checks": (calls("tracking.drift_check"), "count"),
        "cache.hit_rate": (extra.get("cache.hit_rate", 0.0), "ratio"),
        "cache.evictions": (extra.get("cache.evictions", 0.0), "count"),
        "serve.refreshes": (extra.get("serve.refreshes", 0.0), "count"),
        "serve.checks_kept": (extra.get("serve.checks_kept", 0.0), "count"),
        "serve.refresh_ms": (per_read_ms("serve.refresh"), "ms"),
        "serve.answer_ms": (per_read_ms("serve.batch", self_only=True), "ms"),
        "serve.write_p50_ms": (
            statistics.median(phase.write_s) * 1e3 if phase.write_s else 0.0, "ms"
        ),
        "gc.gen2_collections": (float(len(timed_gc)), "count"),
        "gc.pause_ms": (sum(timed_gc) * 1e3, "ms"),
    }
    return {k: v for k, (v, _) in metrics.items()}, {k: u for k, (_, u) in metrics.items()}

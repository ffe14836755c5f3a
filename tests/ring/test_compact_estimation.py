"""Equivalence pin: compact-backend estimation is bit-identical to the object backend.

The columnar synopsis plane exists so the full estimator stack can run at
N=10^6; its correctness contract is that at any scale the object backend
can also reach (N <= 10^4 here), every probe reply, every assembled
estimate, and every ledger entry is *bit-identical* between the two
backends at the same seed — across seeds, probe placements, and the
wrap-around peer whose ownership spans the ring origin.
"""

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveDensityEstimator
from repro.core.backend import ProbeBackend, RingBackend  # noqa: F401 - alias import pin
from repro.core.cdf_sampling import (
    collect_probes,
    collect_probes_at,
    collect_probes_resilient,
)
from repro.core.estimator import DistributionFreeEstimator
from repro.core.replies import ProbeReplies
from repro.core.synopsis import summarize_compact, summarize_peer
from repro.ring.compact import CompactRing
from repro.ring.network import RingNetwork
from repro.serve.service import EstimationService

DOMAIN = (0.0, 10.0)


def _pair(n=500, seed=11, domain=DOMAIN):
    """An object-backed network and its compact twin, same seed."""
    network = RingNetwork.create(n, seed=seed, domain=domain)
    compact = RingNetwork.create(n, seed=seed, domain=domain, compact=True)
    assert isinstance(compact, CompactRing)
    return network, compact


def _loaded_pair(n=500, seed=11, items=20_000, domain=DOMAIN):
    network, compact = _pair(n=n, seed=seed, domain=domain)
    values = np.random.default_rng(seed + 1000).uniform(*domain, size=items)
    network.load_data(values)
    compact.load_counts(values)
    return network, compact


def assert_replies_identical(obj_replies, compact_replies):
    """Column-by-column bit equality of two probe reply batches."""
    for name in (
        "target", "hops", "owner", "segment_length", "local_count",
        "seg_probe", "seg_low", "seg_high", "seg_counts",
    ):
        ours, theirs = getattr(compact_replies, name), getattr(obj_replies, name)
        assert ours.dtype == theirs.dtype and ours.tolist() == theirs.tolist(), name
    assert compact_replies.seg_buckets is None and obj_replies.seg_buckets is None
    assert compact_replies.seg_edges is None and obj_replies.seg_edges is None


class TestProbeBitIdentity:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    @pytest.mark.parametrize("placement", ["uniform", "stratified"])
    def test_collect_probes_identical(self, seed, placement):
        network, compact = _loaded_pair(seed=seed)
        obj = collect_probes(
            network, 64, 8, rng=np.random.default_rng(seed), placement=placement
        )
        ours = collect_probes(
            compact, 64, 8, rng=np.random.default_rng(seed), placement=placement
        )
        assert len(ours) == len(obj) == 64
        assert_replies_identical(obj, ours)

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_ledger_identical(self, seed):
        network, compact = _loaded_pair(seed=seed)
        collect_probes(network, 64, 8, rng=np.random.default_rng(seed))
        collect_probes(compact, 64, 8, rng=np.random.default_rng(seed))
        assert compact.stats.snapshot() == network.stats.snapshot()

    def test_every_peer_summary_identical(self):
        """Full census: all peers — including the wrap-around peer."""
        network, compact = _loaded_pair(n=300, seed=3, items=30_000)
        indices = np.arange(compact.n_peers, dtype=np.int64)
        theirs = ProbeReplies.from_summaries(
            [summarize_peer(network, network.node(int(ident)), 8) for ident in compact.ids]
        )
        assert_replies_identical(theirs, summarize_compact(compact, indices, 8))

    def test_wrap_around_peer_two_segments(self):
        """The origin-wrapping peer carries two segments, in object order."""
        network, compact = _loaded_pair(n=64, seed=1, items=50_000)
        wrap = summarize_compact(compact, [0], 8)
        node = network.node(int(compact.ids[0]))
        theirs = ProbeReplies.from_summaries([summarize_peer(network, node, 8)])
        assert theirs.seg_probe.tolist() == [0, 0]  # the seed places no peer at id 2^64-1
        assert_replies_identical(theirs, wrap)
        # Probing the origin (and just past the top peer) lands on it.
        top_key = int(compact.ids[-1]) + 1
        results = collect_probes_at(compact, [0, top_key], 8)
        assert results.owner.tolist() == [int(compact.ids[0])] * 2

    def test_collect_probes_at_explicit_targets(self):
        network, compact = _loaded_pair(seed=9)
        targets = [0, 1, int(compact.ids[17]), int(compact.ids[-1]), 2**63]
        obj = collect_probes_at(network, targets, 8)
        ours = collect_probes_at(compact, targets, 8)
        assert_replies_identical(obj, ours)

    def test_resilient_path_is_batch_plus_empty_failures(self):
        network, compact = _loaded_pair(seed=4)
        targets = [int(t) for t in np.random.default_rng(0).integers(0, 2**64, 32, dtype=np.uint64)]
        obj_results, obj_failures = collect_probes_resilient(network, targets, 8)
        ours_results, ours_failures = collect_probes_resilient(compact, targets, 8)
        assert ours_failures == [] and obj_failures == []
        assert_replies_identical(obj_results, ours_results)


class TestEstimateBitIdentity:
    @pytest.mark.parametrize(
        "estimator",
        [
            DistributionFreeEstimator(probes=64),
            DistributionFreeEstimator(probes=64, combine="mixture"),
            DistributionFreeEstimator(probes=64, placement="stratified"),
            DistributionFreeEstimator(probes=64, robust="winsorized"),
            AdaptiveDensityEstimator(probes=64),
        ],
        ids=lambda e: f"{e.name}-{getattr(e, 'combine', '')}{getattr(e, 'placement', '')}",
    )
    @pytest.mark.parametrize("seed", [0, 7])
    def test_estimates_identical(self, estimator, seed):
        network, compact = _loaded_pair(seed=seed)
        theirs = estimator.estimate(network, rng=np.random.default_rng(seed))
        ours = estimator.estimate(compact, rng=np.random.default_rng(seed))
        assert np.array_equal(ours.cdf.xs, theirs.cdf.xs)
        assert np.array_equal(ours.cdf.fs, theirs.cdf.fs)
        assert ours.n_items == theirs.n_items
        assert ours.n_peers == theirs.n_peers
        assert ours.cost == theirs.cost
        assert ours.latency_rounds == theirs.latency_rounds

    def test_repeat_estimates_share_memoized_summaries(self):
        _network, compact = _loaded_pair(seed=2)
        estimator = DistributionFreeEstimator(probes=32)
        first = estimator.estimate(compact, rng=np.random.default_rng(1))
        second = estimator.estimate(compact, rng=np.random.default_rng(1))
        assert np.array_equal(first.cdf.xs, second.cdf.xs)
        assert np.array_equal(first.cdf.fs, second.cdf.fs)

    def test_load_invalidates_memoized_summaries(self):
        _network, compact = _loaded_pair(seed=2)
        before = summarize_compact(compact, [5], 8)
        compact.load_counts(np.full(1000, float(before.seg_low[-1])))
        after = summarize_compact(compact, [5], 8)
        assert after.local_count.tolist() == [before.local_count[0] + 1000]


class TestCompactValidation:
    def test_load_counts_rejects_non_numeric(self):
        _network, compact = _pair(n=32, seed=0)
        with pytest.raises(ValueError):
            compact.load_counts(["not-a-number"])

    def test_load_counts_rejects_non_finite(self):
        _network, compact = _pair(n=32, seed=0)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                compact.load_counts([0.5, bad])
        # A rejected load leaves the counts untouched.
        assert compact.total_count == 0

    def test_summarize_rejects_other_bucket_widths(self):
        _network, compact = _loaded_pair(n=32, seed=0, items=100)
        with pytest.raises(ValueError, match="B=8"):
            summarize_compact(compact, [0], 16)

    def test_summarize_rejects_equi_depth(self):
        _network, compact = _loaded_pair(n=32, seed=0, items=100)
        with pytest.raises(ValueError, match="equi-width"):
            summarize_compact(compact, [0], 8, kind="equi-depth")
        with pytest.raises(ValueError, match="unknown synopsis kind"):
            summarize_compact(compact, [0], 8, kind="bogus")

    def test_estimator_equi_depth_raises_on_compact(self):
        _network, compact = _loaded_pair(n=32, seed=0, items=100)
        estimator = DistributionFreeEstimator(probes=8, synopsis_kind="equi-depth")
        with pytest.raises(ValueError, match="equi-width"):
            estimator.estimate(compact, rng=np.random.default_rng(0))

    def test_backend_protocol_conformance(self):
        network, compact = _pair(n=16, seed=0)
        assert isinstance(network, ProbeBackend)
        assert isinstance(compact, ProbeBackend)


class TestServingOnCompact:
    def test_service_refresh_and_queries(self):
        _network, compact = _loaded_pair(n=400, seed=6, items=40_000)
        service = EstimationService(compact, rng=np.random.default_rng(0))
        estimate = service.refresh()
        xs = np.linspace(*DOMAIN, 17)
        batch = service.cdf_batch(xs)
        assert np.array_equal(batch, np.asarray(estimate.cdf(xs), dtype=float))
        assert service.epoch_key[:2] == compact.version_token

    def test_service_matches_object_backend(self):
        network, compact = _loaded_pair(n=400, seed=6, items=40_000)
        xs = np.linspace(*DOMAIN, 33)
        theirs = EstimationService(network, rng=np.random.default_rng(0)).cdf_batch(xs)
        ours = EstimationService(compact, rng=np.random.default_rng(0)).cdf_batch(xs)
        assert np.array_equal(ours, theirs)

    def test_reload_bumps_version_and_triggers_policy(self):
        _network, compact = _loaded_pair(n=200, seed=8, items=10_000)
        service = EstimationService(compact, rng=np.random.default_rng(0))
        service.refresh()
        token = compact.version_token
        compact.load_counts(np.random.default_rng(3).uniform(*DOMAIN, size=1000))
        assert compact.version_token == (token[0], token[1] + 1)
        service.cdf_batch(np.array([5.0]))  # must not raise; policy sees the bump
        assert service.stats.batches == 1


class TestSynopsisPlaneShape:
    def test_plane_is_lazy_until_load(self):
        _network, compact = _pair(n=64, seed=0)
        assert compact.hist is None
        report = compact.memory_report()
        assert "synopsis_hist" not in report
        assert report["synopsis_seg_low"] == 64 * 8.0
        compact.load_counts(np.random.default_rng(0).uniform(*DOMAIN, 100))
        report = compact.memory_report()
        assert report["synopsis_hist"] == 64 * compact.synopsis_buckets * 8.0

    def test_memory_report_itemizes_synopsis_plane(self):
        _network, compact = _loaded_pair(n=64, seed=0, items=1000)
        report = compact.memory_report()
        for key in (
            "synopsis_seg_low",
            "synopsis_seg_high",
            "synopsis_hist",
            "synopsis_wrap_hist",
            "synopsis_bytes",
            "synopsis_buckets",
        ):
            assert key in report
        assert report["synopsis_bytes"] == (
            report["synopsis_seg_low"]
            + report["synopsis_seg_high"]
            + report["synopsis_hist"]
            + report["synopsis_wrap_hist"]
        )
        itemized = [v for k, v in report.items() if k not in (
            "total_bytes", "bytes_per_peer", "scan_width", "synopsis_bytes", "synopsis_buckets",
        )]
        assert report["total_bytes"] == sum(itemized)

    def test_hist_totals_match_counts(self):
        _network, compact = _loaded_pair(n=128, seed=5, items=10_000)
        hist, wrap_hist = compact.synopsis_plane()
        binned = hist.sum(axis=1)
        binned[0] += wrap_hist.sum()
        assert np.array_equal(binned, compact.counts)

    def test_custom_bucket_width(self):
        compact = RingNetwork.create(
            64, seed=0, domain=DOMAIN, compact=True, synopsis_buckets=16
        )
        assert isinstance(compact, CompactRing)
        compact.load_counts(np.random.default_rng(0).uniform(*DOMAIN, 5000))
        assert summarize_compact(compact, [3], 16).seg_counts.shape == (1, 16)
        estimate = DistributionFreeEstimator(probes=16, synopsis_buckets=16).estimate(
            compact, rng=np.random.default_rng(0)
        )
        assert estimate.n_items > 0

    def test_single_peer_ring_owns_whole_domain(self):
        compact = CompactRing.build(1, domain=DOMAIN, seed=0)
        compact.load_counts(np.random.default_rng(0).uniform(*DOMAIN, 100))
        reply = summarize_compact(compact, [0], 8)
        assert reply.segment_length.tolist() == [compact.space.size]
        assert reply.local_count.tolist() == [100]
        assert (reply.seg_low.tolist(), reply.seg_high.tolist()) == ([DOMAIN[0]], [DOMAIN[1]])

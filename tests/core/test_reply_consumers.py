"""The columnar reply consumers match their object-at-a-time oracles bit for bit.

Every estimator, combiner and baseline reads a
:class:`~repro.core.replies.ProbeReplies` batch.  The loops over
:class:`~repro.core.synopsis.PeerSummary` records they replaced live in
``tests/core/reference_assembly.py``; on hypothesis batches with the
origin-wrapping peer, repeated owners, empty peers, equi-depth point
masses and mixed resolutions, the columns must give the same bytes: the
local CDFs, the HT mixture (both interpolation kinds), the density trim,
winsorization and the parametric baseline's moments.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.baselines.parametric import weighted_moments
from repro.core.byzantine import trim_outlier_replies
from repro.core.cdf_sampling import _local_cdfs, assemble_cdf
from repro.core.replies import ProbeReplies
from repro.core.robust import winsorize_replies
from repro.core.synopsis import PeerSummary, SegmentSummary

from tests.core.reference_assembly import (
    local_cdf,
    peer_summary,
    reference_assemble_cdf,
    trim_outlier_summaries,
    weighted_moments as reference_moments,
    winsorize_summaries,
)
from tests.core.reply_samples import probe_samples
from tests.core.test_probe_replies import assert_same_batch

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: One batch with every corner at once: the origin-wrapping peer (two
#: segments), a repeated owner, an empty peer, equi-depth point masses
#: (zero-width buckets) and three resolutions.
POINT_MASSES = SegmentSummary.from_quantiles(0.5, 0.8, np.asarray([0.6] * 5 + [0.7] * 3), 4)
CORNERS = [
    peer_summary(1, [(0.8, 1.0), (0.0, 0.1)], [[1, 2], [3, 0]]),
    peer_summary(2, [(0.4, 0.5)], [[2, 5, 0, 1]]),
    peer_summary(3, [(0.1, 0.4)], [[0]]),
    PeerSummary(peer_id=4, segment_length=10, local_count=8, segments=(POINT_MASSES,)),
    peer_summary(2, [(0.4, 0.5)], [[0, 9, 0, 1]]),
]


def batches(mixed: bool = True):
    """Hypothesis reply records, with every resolution mix."""
    return probe_samples(mixed_buckets=mixed).map(lambda sample: sample[0])


def samples():
    return st.one_of(batches(False), batches(True), st.just(CORNERS))


def weights_for(data, count: int) -> np.ndarray:
    """Non-negative weights, some exactly zero."""
    return np.asarray(
        data.draw(
            st.lists(
                st.sampled_from([0.0, 0.25, 1.0, 1.0 / 3.0, 7.5]),
                min_size=count,
                max_size=count,
            )
        )
    )


def cdf_bytes(assemble, *args):
    try:
        cdf = assemble(*args)
    except ValueError as error:
        return ("error", str(error))
    return (cdf.kind, cdf.xs.tobytes(), cdf.fs.tobytes())


@SETTINGS
@given(summaries=samples())
def test_local_cdfs_match_oracle(summaries):
    try:
        oracles = [local_cdf(summary) for summary in summaries]
    except ValueError as error:  # a reply whose segments overlap
        with pytest.raises(ValueError, match=str(error)):
            _local_cdfs(ProbeReplies.from_summaries(summaries))
        return
    xs, fs, bounds = _local_cdfs(ProbeReplies.from_summaries(summaries))
    for row, oracle in enumerate(oracles):
        run = slice(bounds[row], bounds[row + 1])
        assert xs[run].tobytes() == oracle.xs.tobytes()
        assert fs[run].tobytes() == oracle.fs.tobytes()


@SETTINGS
@given(summaries=samples(), kind=st.sampled_from(["linear", "step"]), data=st.data())
def test_mixture_matches_oracle(summaries, kind, data):
    weights = weights_for(data, len(summaries))
    domain = (-4.0, 18.0)
    ours = cdf_bytes(assemble_cdf, ProbeReplies.from_summaries(summaries), weights, domain, kind)
    theirs = cdf_bytes(reference_assemble_cdf, summaries, weights, domain, kind)
    assert ours == theirs


@SETTINGS
@given(summaries=samples(), ratio=st.sampled_from([1.5, 4.0, 20.0]), k=st.integers(1, 4))
def test_density_trim_matches_oracle(summaries, ratio, k):
    replies = ProbeReplies.from_summaries(summaries)
    kept = {summary.peer_id for summary in trim_outlier_summaries(summaries, ratio, k)}
    rows = [row for row, summary in enumerate(summaries) if summary.peer_id in kept]
    assert_same_batch(trim_outlier_replies(replies, ratio, k), replies.take(rows))


@SETTINGS
@given(summaries=samples(), fraction=st.sampled_from([0.0, 0.1, 0.25, 0.49]))
def test_winsorize_matches_oracle(summaries, fraction):
    ours = winsorize_replies(ProbeReplies.from_summaries(summaries), fraction)
    theirs = ProbeReplies.from_summaries(winsorize_summaries(summaries, fraction))
    assert_same_batch(ours, theirs)


@SETTINGS
@given(summaries=samples(), data=st.data())
def test_weighted_moments_match_oracle(summaries, data):
    weights = weights_for(data, len(summaries))
    ours = weighted_moments(ProbeReplies.from_summaries(summaries), weights)
    theirs = reference_moments(summaries, weights)
    assert np.asarray(ours).tobytes() == np.asarray(theirs).tobytes()


def test_corner_batch_reaches_every_branch():
    replies = ProbeReplies.from_summaries(CORNERS)
    assert replies.seg_buckets is not None  # mixed resolutions
    assert len(replies.latest()) == 4  # a repeated owner
    assert (replies.local_count == 0).any()  # an empty peer
    assert np.bincount(replies.seg_probe).max() == 2  # the wrapping peer
    point = np.diff(replies.bucket_edges()[4, :5]) == 0
    assert (point & (replies.seg_counts[4] > 0)).any()  # an equi-depth point mass

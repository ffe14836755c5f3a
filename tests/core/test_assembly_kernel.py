"""The columnar reconstruction kernel matches the scalar reference bit for bit.

:func:`repro.core.cdf_sampling.assemble_cdf_interpolated` runs one row of
the columnar kernel; ``tests/core/reference_assembly.py`` keeps the
per-segment loop it replaced.  Hypothesis builds synthetic rings whose
probe samples hit every corner of that loop — equi-width and equi-depth
synopses (zero-width point-mass buckets included), the origin-wrapping
peer's two segments, repeated and replaced replies, one-ulp widened
segments tied with their neighbour, empty peers, equal edge densities,
and samples with and without lead and trail gaps — and the two
implementations must agree on breakpoints, CDF values, total mass, gap
masses, and errors, in both gap modes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cdf_sampling import assemble_cdf_interpolated
from repro.core.replies import ProbeReplies

from tests.core.reference_assembly import peer_summary, reference_assemble
from tests.core.reply_samples import probe_samples

# Sub-ulp buckets in the synthetic rings can overflow a density to inf; both
# implementations then warn identically, and the comparison still holds.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

SETTINGS = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def assemble_columns(summaries, domain, mode):
    """The kernel on the packed reply records."""
    return assemble_cdf_interpolated(ProbeReplies.from_summaries(summaries), domain, mode)


def outcome(assemble, summaries, domain, mode):
    """Everything a reconstruction reports, exactly (or its error)."""
    try:
        result = assemble(summaries, domain, mode)
    except ValueError as error:
        return ("error", str(error))
    gaps = np.asarray([[float(v) for v in gap] for gap in result.gap_masses])
    return (
        result.cdf.xs.tobytes(),
        result.cdf.fs.tobytes(),
        np.float64(result.total_items).tobytes(),
        gaps.tobytes(),
        gaps.shape,
    )


def assert_matches_reference(summaries, domain, mode):
    kernel = outcome(assemble_columns, summaries, domain, mode)
    reference = outcome(reference_assemble, summaries, domain, mode)
    assert kernel == reference


@SETTINGS
@given(sample=probe_samples(), mode=st.sampled_from(["linear", "log"]))
def test_kernel_matches_reference(sample, mode):
    summaries, domain = sample
    assert_matches_reference(summaries, domain, mode)


@SETTINGS
@given(sample=probe_samples(mixed_buckets=True), mode=st.sampled_from(["linear", "log"]))
def test_kernel_matches_reference_with_mixed_resolutions(sample, mode):
    summaries, domain = sample
    assert_matches_reference(summaries, domain, mode)


class TestBranches:
    """Each named corner, pinned once explicitly."""

    @pytest.mark.parametrize("mode", ["linear", "log"])
    def test_wrap_peer_and_gaps(self, mode):
        wrap = peer_summary(1, [(0.8, 1.0), (0.0, 0.1)], [[1, 2], [3, 0]])
        middle = peer_summary(2, [(0.4, 0.5)], [[2, 5]])
        summaries = [middle, wrap, middle]
        assert_matches_reference(summaries, (0.0, 1.0), mode)
        result = assemble_columns(summaries, (0.0, 1.0), mode)
        # No lead or trail gap: the wrap peer covers both domain ends.
        assert [(a, b) for a, b, _ in result.gap_masses] == [(0.1, 0.4), (0.5, 0.8)]

    @pytest.mark.parametrize("mode", ["linear", "log"])
    def test_lead_and_trail_gaps(self, mode):
        summaries = [peer_summary(1, [(0.3, 0.6)], [[4, 4, 1]])]
        assert_matches_reference(summaries, (0.0, 1.0), mode)
        result = assemble_columns(summaries, (0.0, 1.0), mode)
        assert [(a, b) for a, b, _ in result.gap_masses] == [(0.0, 0.3), (0.6, 1.0)]

    def test_zero_density_edge_takes_linear_rule_in_log_mode(self):
        summaries = [
            peer_summary(1, [(0.1, 0.2)], [[0, 3]]),
            peer_summary(2, [(0.5, 0.7)], [[2, 0]]),
        ]
        assert_matches_reference(summaries, (0.0, 1.0), "log")

    def test_equal_densities_take_flat_log_branch(self):
        summaries = [
            peer_summary(1, [(0.0, 0.25)], [[2, 2]]),
            peer_summary(2, [(0.5, 0.75)], [[2, 2]]),
        ]
        assert_matches_reference(summaries, (0.0, 1.0), "log")

    def test_one_ulp_segment_beside_neighbour(self):
        tip = float(np.nextafter(0.5, np.inf))
        narrow = peer_summary(1, [(0.5, tip)], [[1, 1]])
        neighbour = peer_summary(2, [(0.5, 0.75)], [[1, 2]])
        for summaries in ([narrow, neighbour], [neighbour, narrow]):
            for mode in ("linear", "log"):
                assert_matches_reference(summaries, (0.0, 1.0), mode)

    def test_denormal_segment_leaves_other_edges_alone(self):
        # A one-ulp segment at 0.0 has a bucket step that underflows to
        # zero; a shared 2-D linspace would then switch the (0.3, 0.9)
        # row to its other formula and move an inner edge by an ulp.
        tiny = float(np.nextafter(0.0, 1.0))
        summaries = [
            peer_summary(1, [(0.0, tiny)], [[1, 2, 0]]),
            peer_summary(2, [(0.3, 0.9)], [[2, 1, 4]]),
        ]
        for mode in ("linear", "log"):
            assert_matches_reference(summaries, (0.0, 1.0), mode)

    def test_all_empty_raises_like_reference(self):
        summaries = [peer_summary(1, [(0.1, 0.2)], [[0, 0]]), peer_summary(2, [(0.6, 0.9)], [[0]])]
        with pytest.raises(ValueError, match="all probed peers were empty"):
            assemble_columns(summaries, (0.0, 1.0), "linear")
        assert_matches_reference(summaries, (0.0, 1.0), "linear")

    def test_no_evidence_raises_like_reference(self):
        assert outcome(assemble_columns, [], (0.0, 1.0), "linear") == outcome(
            reference_assemble, [], (0.0, 1.0), "linear"
        )

"""Sampling the global CDF — the paper's core mechanism.

The cheap estimation path probes ``s ≪ N`` ring positions.  Each probe is a
routed lookup to the peer owning a position, answered with that peer's
segment length, item count and histogram synopsis (a batch of answers
travels as the columns of a :class:`~repro.core.replies.ProbeReplies`).
Because a uniform ring position lands on a peer with probability
proportional to its segment length ``ℓ_p``, pooling the replies
*unweighted* is biased; the Horvitz–Thompson correction (weight
``∝ c_p / ℓ_p``) makes the pooled estimate

    F̂(x) = Σ_i w_i · H_i(x),   w_i = (c_i/ℓ_i) / Σ_j (c_j/ℓ_j)

an asymptotically unbiased, distribution-free estimate of the global CDF —
``H_i`` being peer ``i``'s local CDF from its synopsis.  The same probes
yield, for free, the total-count estimate ``n̂ = (2^m/s) Σ c_i/ℓ_i`` and
the network-size estimate ``N̂ = (2^m/s) Σ 1/ℓ_i``.

Probe placement is pluggable: iid uniform positions (the baseline analysed
above) or a stratified grid with jitter (same unbiasedness, lower variance
— an ablation the benchmarks measure).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Literal, Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from repro.core.backend import RingBackend
from repro.core.cdf import PiecewiseCDF
from repro.core.replies import ProbeReplies
from repro.core.synopsis import summarize_compact, summarize_peer
from repro.ring.compact import CompactRing
from repro.ring.messages import MessageType
from repro.ring.network import NetworkError
from repro.ring.routing import route_probes_batch

if TYPE_CHECKING:  # runtime import stays local to avoid a module cycle
    from repro.ring.faults import RetryPolicy

__all__ = [
    "ProbeReplies",
    "ProbeFailure",
    "probe_positions",
    "collect_probes",
    "collect_probes_at",
    "collect_probes_resilient",
    "ht_weights",
    "estimate_total_items",
    "estimate_peer_count",
    "assemble_cdf",
    "assemble_cdf_interpolated",
    "assemble_rows",
    "InterpolatedReconstruction",
    "RowAssembly",
    "SegmentTable",
]

Placement = Literal["uniform", "stratified"]


@dataclass(frozen=True)
class ProbeFailure:
    """One probe that did not come back: where it went and why it failed.

    ``reason`` is the routing failure class (see
    :class:`~repro.ring.routing.RouteOutcome`) or ``"reply_lost"`` when the
    owner was reached but the request/reply exchange exhausted its retry
    budget.  ``hops`` is what the failed attempt still cost — failures are
    paid for, and the ledger reflects them.
    """

    target: int
    reason: str
    hops: int


def probe_positions(
    count: int,
    ring_size: int,
    rng: np.random.Generator,
    placement: Placement = "uniform",
) -> NDArray[np.uint64]:
    """Ring positions to probe.

    ``uniform``: iid uniform draws — the textbook HT design.
    ``stratified``: one uniform draw inside each of ``count`` equal strata —
    identical marginal distribution (hence identical unbiasedness) with
    strictly smaller variance for any monotone integrand.
    """
    if count < 1:
        raise ValueError(f"need at least one probe, got {count}")
    if placement == "uniform":
        return rng.integers(0, ring_size, size=count, dtype=np.uint64)
    if placement == "stratified":
        stratum = ring_size / count
        offsets = rng.uniform(0.0, 1.0, size=count)
        # Clip in float before the cast: a product that rounds up to
        # ``ring_size`` (2^64 overflows uint64) stays in the last stratum.
        top = np.nextafter(float(ring_size), 0.0)
        return np.minimum((np.arange(count) + offsets) * stratum, top).astype(np.uint64)
    raise ValueError(f"unknown placement {placement!r}")


def collect_probes(
    network: RingBackend,
    count: int,
    buckets: int,
    rng: Optional[np.random.Generator] = None,
    placement: Placement = "uniform",
    synopsis_kind: str = "equi-width",
) -> ProbeReplies:
    """Route ``count`` probes and gather their replies.

    Each probe starts at a uniformly chosen entry peer (as a real client
    would), routes to the target position (counted hops), and exchanges one
    request/reply pair with the owner.  Repeat hits on the same peer are
    kept — deduplicating would break the Horvitz–Thompson design.

    Works against either backend: on a :class:`CompactRing` the probes
    route in one vectorized batch and replies gather from the columnar
    synopsis plane, with targets, entry draws, hop counts, reply contents,
    and ledger records all bit-identical to the object backend at the same
    seed.
    """
    generator = rng if rng is not None else network.rng
    targets = probe_positions(count, network.space.size, generator, placement)
    return collect_probes_at(network, targets, buckets, synopsis_kind)


def collect_probes_at(
    network: RingBackend,
    targets: Sequence[int],
    buckets: int,
    synopsis_kind: str = "equi-width",
) -> ProbeReplies:
    """Probe explicit ring positions (used by adaptive refinement).

    Every probe routes as :func:`~repro.ring.routing.route_to_key` does
    (the unbounded legacy retry model; a fault plane's stalls and
    partitions are not consulted), and a lost request or reply is
    retransmitted end to end until both legs arrive — every attempt is
    paid for.  The probes run as one batch (see :func:`_collect_batch`):
    on a reliable network hop counts, reply contents and the ledger are
    exactly those of routing the probes one at a time.

    A lookup that raises :class:`~repro.ring.routing.RoutingError` (an
    overlay disconnected past the hop budget) raises out of the whole
    batch.  The ledger then holds the hops of every lookup routed so far
    and no exchange: probe after probe, the probes before the failing one
    would also have exchanged with their owners.
    """
    replies, _failures = _collect_batch(network, targets, buckets, synopsis_kind, None)
    return replies


def collect_probes_resilient(
    network: RingBackend,
    targets: Sequence[int],
    buckets: int,
    synopsis_kind: str = "equi-width",
    policy: Optional[RetryPolicy] = None,
) -> tuple[ProbeReplies, list[ProbeFailure]]:
    """Probe explicit ring positions, reporting failures instead of raising.

    The fault-aware counterpart of :func:`collect_probes_at`: every probe
    routes as :func:`~repro.ring.routing.route_with_policy` does (which
    consults the network's fault plane and the retry policy's budgets), and
    probes that cannot be answered come back as :class:`ProbeFailure`
    entries rather than exceptions.  The request/reply exchange itself is
    also bounded: a probe whose exchange is lost ``policy.max_attempts``
    times turns into a ``"reply_lost"`` failure.  All cost — including the
    cost of the failures — lands in the message ledger as usual.

    ``policy=None`` selects :data:`~repro.ring.faults.RetryPolicy.DEFAULT`
    (bounded attempts): a resilient collection exists to terminate under
    faults, so unbounded retry must be requested explicitly.

    The compact backend has no fault plane (it models the stabilized
    loss-free ring), so resilient collection there always comes back with
    an empty failure list — callers keep one code path for both backends.
    """
    from repro.ring.faults import RetryPolicy

    if policy is None:
        policy = RetryPolicy.DEFAULT
    return _collect_batch(network, targets, buckets, synopsis_kind, policy)


def _collect_batch(
    network: RingBackend,
    targets: Sequence[int],
    buckets: int,
    synopsis_kind: str,
    policy: Optional[RetryPolicy],
) -> tuple[ProbeReplies, list[ProbeFailure]]:
    """A probe batch on either backend: lockstep routing, vectorized exchange.

    Entry peers come from one vectorized ``network.rng`` draw, the same
    stream as per-probe :meth:`RingNetwork.random_peer` draws.  The
    probes then route in one lockstep batch (``policy=None``: the law of
    :func:`~repro.ring.routing.route_to_key`, which raises on a lost
    lookup; else that of :func:`~repro.ring.routing.route_with_policy`),
    and the routed probes exchange request and reply in rounds, each
    round drawing every pending leg's fate in one vector.  Without loss no
    draw is made past the entry peers, so owners, hops, failures, replies
    and ledger are bit-identical to routing and exchanging probe after
    probe; under loss they are equal in distribution.  Replies gather
    from synopsis-plane columns (:func:`summarize_compact`) or one
    memoized summary per owner node (:func:`summarize_peer`).
    """
    count = len(targets)
    keys = np.asarray(targets, dtype=np.uint64)
    owners = hops = np.empty(0, dtype=np.int64)
    reasons: dict[int, str] = {}
    if count and network.n_peers == 0:
        if policy is None:
            raise NetworkError("network has no peers")
        reasons = dict.fromkeys(range(count), "empty_ring")
        owners = np.full(count, -1, dtype=np.int64)
        hops = np.zeros(count, dtype=np.int64)
    elif count:
        entries = network.rng.integers(0, network.n_peers, size=count)
        if isinstance(network, CompactRing):
            owners, hops = network.route_batch(entries, keys)
        else:
            routes = route_probes_batch(network, entries, keys, policy)
            owners, hops = routes.owner_idx, routes.hops
            reasons = {i: routes.reason(i) for i in np.flatnonzero(owners < 0).tolist()}
        routed = np.flatnonzero(owners >= 0)
        cap = None if policy is None else policy.max_attempts
        for index in routed[~_exchange(network, routed.size, buckets, cap)].tolist():
            reasons[index] = "reply_lost"
    answered = np.ones(count, dtype=bool)
    answered[list(reasons)] = False
    failures = [
        ProbeFailure(target=int(keys[i]), reason=reasons[i], hops=int(hops[i]))
        for i in sorted(reasons)
    ]
    if isinstance(network, CompactRing):
        replies = summarize_compact(
            network, owners, buckets, kind=synopsis_kind, targets=keys, hops=hops
        )
        return replies, failures
    ids = network.sorted_ids_array()
    summaries = [
        summarize_peer(network, network.node(ident), buckets, kind=synopsis_kind)
        for ident in ids[owners[answered]].tolist()
    ]
    return ProbeReplies.from_summaries(summaries, keys[answered], hops[answered]), failures


def _exchange(
    network: RingBackend, count: int, buckets: int, max_attempts: Optional[int]
) -> NDArray[np.bool_]:
    """Request/reply exchanges with ``count`` owners; which came back.

    A lost request or reply sends the request again, up to
    ``max_attempts`` times (``None``: until both legs arrive).  Each round
    draws the fate of every pending request, then of every reply sent, in
    one vector each; the ledger gets one record per message type.
    """
    if isinstance(network, CompactRing) or network.loss_rate <= 0.0:
        back = np.ones(count, dtype=bool)
        requests = replies = count
    else:
        loss = network.loss_rate
        back = np.zeros(count, dtype=bool)
        pending = np.arange(count)
        requests = replies = attempts = 0
        while pending.size and (max_attempts is None or attempts < max_attempts):
            attempts += 1
            arrived = network.rng.random(pending.size) >= loss
            returned = np.zeros(pending.size, dtype=bool)
            returned[arrived] = network.rng.random(int(arrived.sum())) >= loss
            requests += pending.size
            replies += int(arrived.sum())
            back[pending[returned]] = True
            pending = pending[~returned]
    if requests:
        network.record(MessageType.PROBE_REQUEST, count=requests)
    if replies:
        network.record(MessageType.PROBE_REPLY, count=replies, payload=(buckets + 2) * replies)
    return back


def ht_weights(replies: ProbeReplies) -> NDArray[np.float64]:
    """Normalised Horvitz–Thompson weights ``w_i ∝ c_i / ℓ_i``.

    Peers with no data get weight zero.  Raises if *all* probed peers are
    empty — there is then no evidence to build a distribution from.
    """
    raw = replies.density
    total = raw.sum()
    if total <= 0:
        raise ValueError("all probed peers were empty; cannot estimate a distribution")
    return raw / total


def estimate_total_items(replies: ProbeReplies, ring_size: int) -> float:
    """Unbiased estimate of the global item count, ``n̂ = (2^m/s) Σ c/ℓ``."""
    if not len(replies):
        raise ValueError("need at least one probe summary")
    return float(ring_size * replies.density.mean())


def estimate_peer_count(replies: ProbeReplies, ring_size: int) -> float:
    """Unbiased estimate of the live peer count, ``N̂ = (2^m/s) Σ 1/ℓ``."""
    if not len(replies):
        raise ValueError("need at least one probe summary")
    return float(ring_size * replies.inverse_length.mean())


def _local_cdfs(
    replies: ProbeReplies,
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.int64]]:
    """Every reply's local CDF ``H_i`` as runs ``(xs, fs, bounds)``.

    Reply ``i``'s breakpoints are ``xs[bounds[i]:bounds[i + 1]]``: the
    bucket edges of its segments in value order, where ``H_i`` is its
    running item count over ``max(c_i, 1)``.  Duplicate breakpoints
    collapse to their *last* value, so point masses (zero-width
    equi-depth buckets) keep their jump; the edges that pad a
    lower-resolution segment repeat its last edge and value and collapse
    away.  One pass over the ``(K, B)`` columns builds every reply.
    Raises ``ValueError`` when a reply's segments overlap (its kept
    breakpoints do not strictly increase), as a :class:`PiecewiseCDF`
    built from them would.
    """
    order = np.lexsort((replies.seg_low, replies.seg_probe))
    probe = replies.seg_probe[order]
    counts = replies.seg_counts[order]
    running = np.zeros((counts.shape[0], counts.shape[1] + 1), dtype=np.int64)
    np.cumsum(counts, axis=1, out=running[:, 1:])
    # A wrapping peer's second segment (in value order) starts at the
    # first one's total.
    follows = np.zeros(probe.size, dtype=bool)
    follows[1:] = probe[1:] == probe[:-1]
    running[follows] += running[np.flatnonzero(follows) - 1, -1:]
    total = np.maximum(replies.local_count, 1)[probe]
    xs = replies.bucket_edges()[order].ravel()
    fs = (running / total[:, None]).ravel()
    slots = np.bincount(probe, minlength=len(replies)) * running.shape[1]
    ends = np.cumsum(slots)
    keep = np.empty(xs.size, dtype=bool)
    keep[:-1] = np.diff(xs) > 0
    keep[ends - 1] = True
    bounds = np.zeros(len(replies) + 1, dtype=np.int64)
    np.cumsum(np.add.reduceat(keep.astype(np.int64), ends - slots), out=bounds[1:])
    xs, fs = xs[keep], fs[keep]
    descending = np.diff(xs) <= 0
    descending[bounds[1:-1] - 1] = False  # one run's end to the next run's start
    if descending.any():
        raise ValueError("breakpoints must be strictly increasing")
    return xs, fs, bounds


def assemble_cdf(
    replies: ProbeReplies,
    weights: Sequence[float],
    domain: tuple[float, float],
    interpolation: Literal["linear", "step"] = "linear",
) -> PiecewiseCDF:
    """Combine per-peer local CDFs into the global estimate ``Σ w_i H_i``.

    Replies with zero weight or no data take no part.  The result is
    pinned to the domain: ``F̂(low) = 0`` and ``F̂(high) = 1`` exactly, so
    downstream quantile/selectivity queries behave at the edges even when
    no probe landed there.
    """
    weight_arr = np.asarray(weights, dtype=float)
    if len(replies) != weight_arr.size:
        raise ValueError("one weight per reply required")
    active = (weight_arr > 0) & (replies.local_count > 0)
    if not active.any():
        raise ValueError("no probed peer carried any data")
    xs, fs, bounds = _local_cdfs(replies.take(np.flatnonzero(active)))
    mixture = PiecewiseCDF.mixture(xs, fs, bounds, weight_arr[active], kind=interpolation)

    low, high = domain
    xs = mixture.xs
    fs = mixture.fs
    if xs[0] > low:
        xs = np.concatenate(([low], xs))
        fs = np.concatenate(([0.0], fs))
    if xs[-1] < high:
        xs = np.concatenate((xs, [high]))
        fs = np.concatenate((fs, [1.0]))
    fs = fs / fs[-1] if fs[-1] > 0 else fs
    return PiecewiseCDF(xs, fs, kind=mixture.kind)


@dataclass(frozen=True)
class InterpolatedReconstruction:
    """Result of :func:`assemble_cdf_interpolated`.

    ``total_items`` is the integral of the reconstructed absolute density —
    itself an estimate of the global data volume (exact over probed
    segments, interpolated over gaps).  ``gap_masses`` lists, per
    inter-segment gap, ``(gap_start_value, gap_end_value, estimated_mass)``
    — the information adaptive refinement allocates follow-up probes by.
    """

    cdf: PiecewiseCDF
    total_items: float
    gap_masses: tuple[tuple[float, float, float], ...]


def _gap_masses(
    d_left: NDArray[np.float64],
    d_right: NDArray[np.float64],
    width: NDArray[np.float64],
    mode: str,
) -> NDArray[np.float64]:
    """Estimated item mass of unprobed gaps from their edge densities.

    ``linear`` uses the trapezoid rule; ``log`` uses the logarithmic mean
    (exact for exponentially varying density, better for heavy tails),
    falling back to the trapezoid when an edge density is not positive and
    to ``d_left * width`` when the two densities agree to ``1e-9`` in log
    ratio.  Gaps of non-positive width carry no mass.  Elementwise; lanes
    that are not gaps may hold anything and are masked by the caller.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        mass = 0.5 * (d_left + d_right) * width
        if mode == "log":
            positive = (d_left > 0) & (d_right > 0)
            log_ratio = np.log(d_right / d_left)
            flat = np.abs(log_ratio) < 1e-9
            log_mean = np.where(
                flat, d_left * width, width * (d_right - d_left) / log_ratio
            )
            mass = np.where(positive, log_mean, mass)
    return np.where(width <= 0, 0.0, mass)


@dataclass(frozen=True)
class SegmentTable:
    """The probed value segments as columns, sorted by ``value_low``.

    Built once per reconstruction from a reply batch: row ``k`` holds one
    segment's bounds, its ``B + 1`` bucket edges (equi-width rows come from
    one 2-D ``np.linspace``, explicit equi-depth edges are copied), its
    float bucket counts, and the densities at both of its edges.  Segments
    with fewer than ``B`` buckets (mixed resolutions) are padded with
    zero-width, zero-count buckets that ``valid`` marks as absent.
    ``owner`` and ``rank`` give each row's probe (its row in the batch)
    and its position among that reply's segments.

    The sort is stable, so segments that share a ``value_low`` keep their
    batch order — the order the reconstruction's breakpoint sequence
    depends on.
    """

    low: NDArray[np.float64]
    high: NDArray[np.float64]
    edges: NDArray[np.float64]
    counts: NDArray[np.float64]
    valid: Optional[NDArray[np.bool_]]
    d_left: NDArray[np.float64]
    d_right: NDArray[np.float64]
    owner: NDArray[np.int64]
    rank: NDArray[np.int64]

    @property
    def size(self) -> int:
        """Number of segments ``K``."""
        return int(self.low.size)

    @classmethod
    def from_replies(cls, replies: ProbeReplies) -> "SegmentTable":
        """Tabulate every segment of ``replies`` (duplicates included)."""
        low, high = replies.seg_low, replies.seg_high
        if not low.size:
            raise ValueError("no probe evidence to reconstruct from")
        counts = replies.seg_counts.astype(float)
        width = counts.shape[1]
        edges = replies.bucket_edges()
        valid = None
        if replies.seg_buckets is not None:
            valid = np.arange(width) < replies.seg_buckets[:, None]
        segment = np.arange(low.size)
        rank = segment - np.searchsorted(replies.seg_probe, replies.seg_probe)

        # Edge densities: each side uses its outermost bucket with positive
        # width (equi-depth synopses can carry zero-width point-mass
        # buckets whose density is not finite); a segment without one
        # falls back to its average density.
        widths = np.diff(edges, axis=1)
        positive = widths > 0
        has_positive = positive.any(axis=1)
        span = high - low
        first = positive.argmax(axis=1)
        last = width - 1 - positive[:, ::-1].argmax(axis=1)
        safe = np.where(positive, widths, 1.0)
        with np.errstate(over="ignore"):  # a tiny bucket's density may overflow, as a float would
            fallback = np.where(
                span > 0, counts.sum(axis=1) / np.where(span > 0, span, 1.0), 0.0
            )
            d_left = np.where(has_positive, counts[segment, first] / safe[segment, first], fallback)
            d_right = np.where(has_positive, counts[segment, last] / safe[segment, last], fallback)

        order = np.argsort(low, kind="stable")
        return cls(
            low=low[order],
            high=high[order],
            edges=edges[order],
            counts=counts[order],
            valid=None if valid is None else valid[order],
            d_left=d_left[order],
            d_right=d_right[order],
            owner=replies.seg_probe[order],
            rank=rank[order],
        )


@dataclass(frozen=True)
class RowAssembly:
    """Reconstructions of several segment subsets, one row each.

    Row ``r``'s breakpoints and cumulative item masses are
    ``xs[bounds[r]:bounds[r + 1]]`` and ``cum[bounds[r]:bounds[r + 1]]``:
    its chosen pieces in order, duplicate breakpoints collapsed to their
    last slot.  ``total`` is each row's item mass, ``increasing`` whether
    its breakpoints strictly increase.  The ``gap_*`` columns list each
    row's gaps in reconstruction order — lead gap, one slot per segment,
    trail gap — with ``gap_on`` marking the ones present.
    """

    xs: NDArray[np.float64]
    cum: NDArray[np.float64]
    bounds: NDArray[np.int64]
    total: NDArray[np.float64]
    increasing: NDArray[np.bool_]
    gap_on: NDArray[np.bool_]
    gap_low: NDArray[np.float64]
    gap_high: NDArray[np.float64]
    gap_mass: NDArray[np.float64]


def assemble_rows(
    table: SegmentTable,
    chosen: NDArray[np.bool_],
    domain: tuple[float, float],
    gap_interpolation: str,
    order: Optional[NDArray[np.intp]] = None,
) -> RowAssembly:
    """The columnar reconstruction kernel behind :func:`assemble_cdf_interpolated`.

    Row ``r`` reconstructs from the segments ``chosen[r]`` selects (every
    row must choose at least one).  ``order``, when given, permutes each
    row's segments before assembly (a per-row tie order for segments that
    share a ``value_low``); by default the table order is used.

    Every row is laid out as the same ``(K + 2, B + 1)`` block of slots —
    a head block holding the domain start and the lead gap, one block per
    segment holding its gap and its ``B`` inner bucket edges, and a tail
    block holding the trail gap — and slots a row does not use carry an
    exact zero mass.  A ufunc ``np.add.accumulate`` is strictly sequential
    along a row, and adding ``0.0`` leaves a partial sum unchanged, so each
    row's cumulative masses are bit-identical to accumulating only its own
    pieces in order.  Every mass is non-negative, so the cumulative masses
    never decrease and need no running maximum.
    """
    low, high = domain
    n_rows, n_seg = chosen.shape
    n_inner = table.counts.shape[1]

    def rows_of(column: NDArray[Any]) -> NDArray[Any]:
        if order is None:
            return np.broadcast_to(column, (n_rows,) + column.shape)
        return column[order]

    if order is not None:
        chosen = np.take_along_axis(chosen, order, axis=1)
    seg_low, seg_high = rows_of(table.low), rows_of(table.high)
    d_left, d_right = rows_of(table.d_left), rows_of(table.d_right)
    row = np.arange(n_rows)
    first = chosen.argmax(axis=1)
    last = n_seg - 1 - chosen[:, ::-1].argmax(axis=1)
    first_low = seg_low[row, first]
    last_high = seg_high[row, last]

    # The ring is a cycle: the gap after the last segment wraps into the
    # gap before the first one, so both shares of it are interpolated
    # between the last and first chosen segments' outer edge densities.
    lead = first_low - low
    trail = high - last_high
    wrap_width = np.maximum(lead, 0.0) + np.maximum(trail, 0.0)
    wrap_mass = _gap_masses(
        d_right[row, last], d_left[row, first], wrap_width, gap_interpolation
    )
    safe_wrap = np.where(wrap_width > 0, wrap_width, 1.0)
    lead_on, trail_on = lead > 0, trail > 0

    # Interior gaps: a chosen segment starting past every earlier chosen
    # segment's end (and the first chosen start) opens a gap whose left
    # density is the previous chosen segment's right edge density.
    ends = np.maximum.accumulate(np.where(chosen, seg_high, -np.inf), axis=1)
    prev_end = np.maximum(
        first_low[:, None],
        np.concatenate((np.full((n_rows, 1), -np.inf), ends[:, :-1]), axis=1),
    )
    source = np.maximum.accumulate(np.where(chosen, np.arange(n_seg), -1), axis=1)
    prev = np.concatenate((np.full((n_rows, 1), -1), source[:, :-1]), axis=1)
    gap = chosen & (prev >= 0) & (seg_low > prev_end)
    prev_density = d_right[row[:, None], np.maximum(prev, 0)]
    interior = _gap_masses(prev_density, d_left, seg_low - prev_end, gap_interpolation)
    with np.errstate(invalid="ignore"):  # absent lead/trail shares are masked below
        lead_mass = wrap_mass * (lead / safe_wrap)
        trail_mass = wrap_mass * (trail / safe_wrap)

    # Slot blocks: head [start, lead gap, unused...], one [gap, inner
    # edges...] block per segment, tail [trail gap, unused...].
    inner_on = np.broadcast_to(chosen[:, :, None], (n_rows, n_seg, n_inner))
    if table.valid is not None:
        inner_on = inner_on & rows_of(table.valid)
    active = np.zeros((n_rows, n_seg + 2, n_inner + 1), dtype=bool)
    active[:, 0, 0] = True
    active[:, 0, 1] = lead_on
    active[:, 1:-1, 0] = gap
    active[:, 1:-1, 1:] = inner_on
    active[:, -1, 0] = trail_on
    deltas = np.zeros(active.shape)
    deltas[:, 0, 1] = np.where(lead_on, lead_mass, 0.0)
    deltas[:, 1:-1, 0] = np.where(gap, interior, 0.0)
    # Padding buckets count zero: only unchosen segments need silencing.
    np.multiply(chosen[:, :, None], rows_of(table.counts), out=deltas[:, 1:-1, 1:])
    deltas[:, -1, 0] = np.where(trail_on, trail_mass, 0.0)
    if order is None:
        slot_x = np.empty((1,) + active.shape[1:])
    else:
        slot_x = np.empty(active.shape)
    slot_x[:, 0] = low
    slot_x[:, 1:-1, 0] = table.low if order is None else table.low[order]
    slot_x[:, 1:-1, 1:] = table.edges[:, 1:] if order is None else table.edges[order, 1:]
    slot_x[:, -1] = high

    n_slots = slot_x[0].size
    cum = deltas.reshape(n_rows, n_slots)
    np.add.accumulate(cum, axis=1, out=cum)
    used = np.flatnonzero(active)
    cum = cum.ravel()[used]
    counts = active.reshape(n_rows, n_slots).sum(axis=1)
    row_end = np.cumsum(counts)
    if order is None:
        xs = slot_x.ravel()[used - np.repeat(row * n_slots, counts)]
    else:
        xs = slot_x.ravel()[used]
    # The lead gap's breakpoint is its row's first chosen start.
    xs[(row_end - counts)[lead_on] + 1] = first_low[lead_on]

    # Collapse duplicate breakpoints keeping the *last* cumulative value at
    # each x, so no mass is dropped when a degenerate piece has zero width.
    keep = np.empty(xs.size, dtype=bool)
    keep[:-1] = np.diff(xs) > 0
    keep[row_end - 1] = True
    if not keep.all():
        row_end = np.cumsum(np.bincount(np.repeat(row, counts)[keep], minlength=n_rows))
        xs, cum = xs[keep], cum[keep]
    # Kept breakpoints must strictly increase within each row; the drop
    # from one row's end to the next row's start does not count.
    drops = np.flatnonzero(np.diff(xs) <= 0)
    drops = drops[~np.isin(drops + 1, row_end)]
    increasing = np.ones(n_rows, dtype=bool)
    increasing[np.searchsorted(row_end, drops, side="right")] = False
    bounds = np.concatenate(([0], row_end))
    return RowAssembly(
        xs=xs,
        cum=cum,
        bounds=bounds,
        total=cum[bounds[1:] - 1],
        increasing=increasing,
        gap_on=np.concatenate((lead_on[:, None], gap, trail_on[:, None]), axis=1),
        gap_low=np.concatenate(
            (np.full((n_rows, 1), low), prev_end, last_high[:, None]), axis=1
        ),
        gap_high=np.concatenate(
            (first_low[:, None], seg_low, np.full((n_rows, 1), high)), axis=1
        ),
        gap_mass=np.concatenate(
            (lead_mass[:, None], interior, trail_mass[:, None]), axis=1
        ),
    )


def assemble_cdf_interpolated(
    replies: ProbeReplies,
    domain: tuple[float, float],
    gap_interpolation: Literal["linear", "log"] = "linear",
) -> InterpolatedReconstruction:
    """Reconstruct the global CDF by density interpolation — the default.

    Probed segments contribute their *exact* synopsis counts; the unprobed
    gaps between them get mass interpolated from the adjacent segments'
    edge densities (the ring wrap makes the leading and trailing domain
    gaps one logical gap).  Compared with the pure HT mixture
    (:func:`assemble_cdf`), this uses the same evidence but does not assume
    zero mass off the probed segments, cutting variance several-fold on
    smooth densities while remaining distribution-free: no parametric form
    is assumed anywhere, and the reconstruction converges to the exact
    global CDF as probes cover the ring.

    Repeat replies of the same peer are collapsed (repeat probes add no
    evidence to a reconstruction); the last reply of a peer wins, in the
    position of its first.  The work is one :class:`SegmentTable` and one
    row of :func:`assemble_rows`.
    """
    if gap_interpolation not in ("linear", "log"):
        raise ValueError(f"unknown gap interpolation mode {gap_interpolation!r}")
    table = SegmentTable.from_replies(replies.latest())
    rows = assemble_rows(
        table, np.ones((1, table.size), dtype=bool), domain, gap_interpolation
    )
    total = float(rows.total[0])
    if total <= 0:
        raise ValueError("all probed peers were empty; cannot estimate a distribution")
    cdf = PiecewiseCDF(rows.xs, rows.cum / total, kind="linear")
    on = rows.gap_on[0]
    gaps = zip(
        rows.gap_low[0][on].tolist(),
        rows.gap_high[0][on].tolist(),
        rows.gap_mass[0][on].tolist(),
    )
    return InterpolatedReconstruction(
        cdf=cdf, total_items=total, gap_masses=tuple(gaps)
    )

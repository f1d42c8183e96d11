"""Private record matching via PSD blocking (Section 8.3, after [12]).

Two parties hold spatial datasets and want to find matching records (points
that are close to each other) without revealing their data.  A full secure
multiparty computation (SMC) over all ``|A| x |B|`` candidate pairs is
prohibitively expensive, so [12] first releases a *differentially private*
index of one party's data and uses it to discard regions that cannot contain
matches; only the surviving candidate pairs go to SMC.

The quality metric is the **reduction ratio**:

    ``RR = 1 - (candidate pairs after blocking) / (all pairs)``,

so larger is better (the paper notes that improving RR from 0.93 to 0.95 is a
28 % cut in SMC work); see the "Matching layer" subsection of README.md's
Performance architecture section for how RR, the padding semantics and the
scoring pipeline fit together.  In this application the entire count budget
goes to the leaves and queries are answered over the leaf grid, so the
hierarchical post-processing does not apply — exactly the configuration of
Figure 7(b).

This module reproduces the blocking step.  The SMC phase itself is out of
scope (its cost is what RR measures), so matching quality after blocking is
reported simply as the fraction of true matching pairs whose blocks survive
(the *pairs completeness*), letting users check that the blocking is not
discarding real matches.

:func:`blocking_from_engine` (behind :func:`blocking_from_psd`) evaluates
the blocking: surviving leaves come straight from the compiled flat engine's
arrays, candidate counting runs over a
:class:`~repro.engine.points.PointGrid` of the seekers, pairs completeness
over a :class:`~repro.engine.points.CellJoinIndex` neighbor join, and the
whole evaluation fans seeker chunks across :mod:`repro.parallel.matching`
(``workers=N`` bitwise equal to ``workers=1``).  This is the path that
carries a 10^6 x 10^6 linkage; the seed-era per-leaf / per-seeker loop it
reproduces bitwise is kept in ``tests/oracle`` as the executable
specification for parity tests and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.builder import build_psd
from ..core.splits import KDSplit, QuadSplit
from ..core.tree import PrivateSpatialDecomposition
from ..engine.points import CellJoinIndex, PointGrid, matching_cell_layout
from ..geometry.domain import Domain
from ..obs import trace_span
from ..privacy.rng import RngLike, ensure_rng, spawn_generators

__all__ = [
    "BlockingResult",
    "MatchingOutcome",
    "blocking_from_engine",
    "blocking_from_psd",
    "build_blocking_tree",
    "record_matching_experiment",
]


@dataclass(frozen=True)
class BlockingResult:
    """Outcome of the private blocking step.

    Attributes
    ----------
    reduction_ratio:
        ``1 - candidate_pairs / total_pairs`` — the paper's metric.
    candidate_pairs:
        Number of (a, b) pairs that survive blocking and would be handed to SMC.
    total_pairs:
        ``|A| * |B|``.
    pairs_completeness:
        Fraction of truly matching pairs retained by the blocking (quality
        check; not plotted in the paper but reported by our harness).
    surviving_leaves:
        Number of leaf regions whose noisy count exceeded the threshold.
    """

    reduction_ratio: float
    candidate_pairs: int
    total_pairs: int
    pairs_completeness: float
    surviving_leaves: int


@dataclass(frozen=True)
class MatchingOutcome:
    """One row of :func:`record_matching_experiment`, in sweep order."""

    method: str
    epsilon: float
    result: BlockingResult


def build_blocking_tree(
    points: np.ndarray,
    domain: Domain,
    height: int,
    epsilon: float,
    method: str = "kd-standard",
    rng: RngLike = None,
) -> PrivateSpatialDecomposition:
    """Build the private index used for blocking.

    ``method`` is one of the three configurations of Figure 7(b):
    ``"quad-baseline"`` (data-independent quadtree), ``"kd-noisymean"`` (the
    original approach of [12]) or ``"kd-standard"`` (the paper's EM-median
    kd-tree).  In this application all count budget goes to the leaves and no
    post-processing is applied.
    """
    gen = ensure_rng(rng)
    key = method.lower()
    if key in ("quad", "quad-baseline", "quadtree"):
        return build_psd(
            points,
            domain,
            height,
            QuadSplit(),
            epsilon=epsilon,
            count_budget="leaf-only",
            rng=gen,
            name="quad-baseline",
            postprocess=False,
        )
    if key in ("kd-noisymean", "noisymean"):
        split = KDSplit(median_method="noisymean")
    elif key in ("kd-standard", "kd", "em"):
        split = KDSplit(median_method="em")
    else:
        raise KeyError(f"unknown blocking method {method!r}")
    return build_psd(
        points,
        domain,
        height,
        split,
        epsilon=epsilon,
        count_budget="leaf-only",
        rng=gen,
        name=key,
        postprocess=False,
    )


def _validate_parties(holders_points: np.ndarray, seekers_points: np.ndarray):
    holders = np.asarray(holders_points, dtype=float)
    seekers = np.asarray(seekers_points, dtype=float)
    if holders.ndim != 2 or seekers.ndim != 2:
        raise ValueError("point arrays must be two-dimensional (n, d)")
    return holders, seekers


def blocking_from_engine(
    engine,
    holders_points: np.ndarray,
    seekers_points: np.ndarray,
    matching_distance: float,
    count_threshold: float = 0.0,
    workers: Optional[int] = None,
    seeker_chunk: Optional[int] = None,
) -> BlockingResult:
    """Evaluate the blocking induced by a compiled released engine.

    Surviving leaves are selected straight from the
    :class:`~repro.engine.flat.FlatPSD` leaf arrays (a leaf survives when it
    carries a usable released count above ``count_threshold``), each of B's
    records is counted against the expanded leaf rects through a seekers
    :class:`~repro.engine.points.PointGrid`, and pairs completeness comes
    from a holder-side grid neighbor join — every step exact, so the result
    is bitwise identical to the seed-era per-leaf loop on the same tree.
    ``workers`` fans seeker chunks across a process pool with the same
    guarantee (``workers=N`` equals ``workers=1``).

    As in [12], A cannot reveal how many records truly fall in a block — it
    pads the block with dummy records up to the *released noisy count* — so
    the SMC cost of a surviving leaf is ``ceil(noisy count) x (B records
    within matching distance of the leaf)``.
    """
    from ..parallel.matching import score_seeker_chunks

    holders, seekers = _validate_parties(holders_points, seekers_points)
    total_pairs = holders.shape[0] * seekers.shape[0]
    if total_pairs == 0:
        return BlockingResult(1.0, 0, 0, 1.0, 0)

    with trace_span("matching.blocking", n_holders=holders.shape[0], n_seekers=seekers.shape[0]):
        released = engine.released.astype(np.float64, copy=False)
        surviving = (
            engine.is_leaf
            & engine.has_count
            & np.isfinite(released)
            & (released > count_threshold)
        )
        leaf_ids = np.nonzero(surviving)[0]
        lo = engine.lo[leaf_ids].astype(np.float64, copy=False)
        hi = engine.hi[leaf_ids].astype(np.float64, copy=False)
        a_padded = np.ceil(np.maximum(released[leaf_ids], 0.0)).astype(np.int64)
        exp_lo = lo - matching_distance
        exp_hi = hi + matching_distance

        # Which holder records sit in a surviving (unexpanded) leaf.
        holder_grid = PointGrid.build(holders)
        surviving_mask = holder_grid.mask_in_rects(lo, hi)

        # Holder-side join index with the shared cell layout: built once in
        # the parent so every seeker chunk scores against identical state.
        origin, side, extents = matching_cell_layout(holders, seekers, matching_distance)
        join_index = CellJoinIndex.build(holders, origin, side, extents)

        b_in, matched_total, matched_retained = score_seeker_chunks(
            exp_lo,
            exp_hi,
            join_index,
            seekers,
            matching_distance,
            surviving_mask,
            workers=workers,
            chunk=seeker_chunk,
        )
        candidate_pairs = int(np.multiply(a_padded, b_in).sum())

    completeness = 1.0 if matched_total == 0 else matched_retained / matched_total
    reduction = 1.0 - candidate_pairs / total_pairs
    return BlockingResult(
        reduction_ratio=float(reduction),
        candidate_pairs=int(candidate_pairs),
        total_pairs=int(total_pairs),
        pairs_completeness=float(completeness),
        surviving_leaves=int(leaf_ids.size),
    )


def blocking_from_psd(
    psd: PrivateSpatialDecomposition,
    holders_points: np.ndarray,
    seekers_points: np.ndarray,
    matching_distance: float,
    count_threshold: float = 0.0,
    workers: Optional[int] = None,
    seeker_chunk: Optional[int] = None,
) -> BlockingResult:
    """Evaluate the blocking induced by a released PSD.

    ``holders_points`` is the dataset the PSD was built on (party A) and
    ``seekers_points`` the other party's records (party B).  Compiles (and
    memoises) the flat engine, then scores through
    :func:`blocking_from_engine`.

    A leaf survives if its released count exceeds ``count_threshold``; each
    of B's records is then a candidate against the records A contributes for
    that leaf.  A pads every surviving block with dummy records up to the
    released noisy count, which is exactly why a fine-grained
    data-independent grid with small per-leaf budgets performs poorly here:
    noise alone makes thousands of empty cells survive, and every one of
    them ships dummy records into the SMC.
    """
    return blocking_from_engine(
        psd.compile(),
        holders_points,
        seekers_points,
        matching_distance,
        count_threshold=count_threshold,
        workers=workers,
        seeker_chunk=seeker_chunk,
    )


def record_matching_experiment(
    holders_points: np.ndarray,
    seekers_points: np.ndarray,
    domain: Domain,
    epsilons: Sequence[float],
    height: int = 6,
    matching_distance: float = 0.01,
    methods: Sequence[str] = ("quad-baseline", "kd-noisymean", "kd-standard"),
    rng: RngLike = None,
    workers: Optional[int] = None,
) -> List[MatchingOutcome]:
    """The Figure 7(b) sweep: one :class:`MatchingOutcome` per (epsilon,
    method) pair, in sweep order (epsilons outer, methods inner).

    RNG contract: every *distinct* ``(epsilon, method)`` pair gets its own
    ``SeedSequence.spawn`` child stream, derived in sorted-pair order — so
    reordering ``methods`` or ``epsilons`` never changes any pair's released
    bits, exactly as ``run_sweep`` guarantees for its cases.  Repeating a
    pair (e.g. ``methods=("kd", "kd")``) is allowed and yields one row per
    occurrence: occurrences consume the pair's stream in order, giving
    deterministic independent repetitions rather than the silent dict
    collapse of earlier versions.

    Each pair is scored by :func:`blocking_from_psd`, honouring ``workers``.
    """
    pairs = sorted({(float(epsilon), str(method)) for epsilon in epsilons for method in methods})
    streams = dict(zip(pairs, spawn_generators(rng, len(pairs))))
    rows: List[MatchingOutcome] = []
    for epsilon in epsilons:
        for method in methods:
            gen = streams[(float(epsilon), str(method))]
            psd = build_blocking_tree(holders_points, domain, height, epsilon, method=method, rng=gen)
            outcome = blocking_from_psd(
                psd, holders_points, seekers_points, matching_distance, workers=workers
            )
            rows.append(MatchingOutcome(str(method), float(epsilon), outcome))
    return rows

"""The seed-era record-matching blocking evaluation (Section 8.3).

:func:`blocking_reference` walks pointer-tree leaves and scans every seeker
against every holder — O(leaves * |B| + |A| * |B|) with Python-loop
constants, fine up to ~10^4 records per party.
:func:`repro.applications.record_matching.blocking_from_engine` reproduces
its values bitwise; parity tests and ``benchmarks/bench_matching_scale.py``
hold the production path to this implementation.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

import repro.applications.record_matching as _record_matching
from repro.applications.record_matching import BlockingResult, _validate_parties
from repro.geometry.rect import Rect

from .tree import pointer_view

__all__ = ["blocking_reference", "reference_blocking"]


def blocking_reference(
    psd,
    holders_points: np.ndarray,
    seekers_points: np.ndarray,
    matching_distance: float,
    count_threshold: float = 0.0,
) -> BlockingResult:
    """The seed-era blocking evaluation, kept as the executable reference.

    A leaf survives if its released count exceeds ``count_threshold``; each
    of B's records is then a candidate against the records A contributes for
    that leaf.  A pads every surviving block with dummy records up to the
    released noisy count.
    """
    holders, seekers = _validate_parties(holders_points, seekers_points)
    total_pairs = holders.shape[0] * seekers.shape[0]
    if total_pairs == 0:
        return BlockingResult(1.0, 0, 0, 1.0, 0)

    leaves = [leaf for leaf in pointer_view(psd).leaves() if np.isfinite(leaf.released_count)
              and leaf.released_count > count_threshold]

    candidate_pairs = 0
    matched_retained = 0
    matched_total = 0

    # Per surviving leaf: A contributes records padded (or truncated) to the
    # released noisy count — its true count is never revealed — and B
    # contributes every record within matching distance of the leaf rectangle.
    for leaf in leaves:
        expanded = Rect(
            tuple(lo - matching_distance for lo in leaf.rect.lo),
            tuple(hi + matching_distance for hi in leaf.rect.hi),
        )
        a_padded = int(np.ceil(max(leaf.released_count, 0.0)))
        b_mask = expanded.contains_points(seekers, closed_hi=True)
        b_in = int(np.count_nonzero(b_mask))
        candidate_pairs += a_padded * b_in

    # Pairs completeness: fraction of true matches whose A-record sits in a
    # surviving leaf (B's side never filters out its own record).
    if holders.shape[0] and seekers.shape[0]:
        surviving_mask = np.zeros(holders.shape[0], dtype=bool)
        for leaf in leaves:
            surviving_mask |= leaf.rect.contains_points(holders, closed_hi=True)
        # A pair (a, b) is a true match when ||a - b||_inf <= matching_distance.
        for b in seekers:
            diffs = np.max(np.abs(holders - b), axis=1)
            matches = diffs <= matching_distance
            matched_total += int(np.count_nonzero(matches))
            matched_retained += int(np.count_nonzero(matches & surviving_mask))

    completeness = 1.0 if matched_total == 0 else matched_retained / matched_total
    reduction = 1.0 - candidate_pairs / total_pairs
    return BlockingResult(
        reduction_ratio=float(reduction),
        candidate_pairs=int(candidate_pairs),
        total_pairs=int(total_pairs),
        pairs_completeness=float(completeness),
        surviving_leaves=len(leaves),
    )


@contextmanager
def reference_blocking():
    """Score ``record_matching_experiment`` / ``run_fig7b`` with
    :func:`blocking_reference` in place of ``blocking_from_psd``."""
    original = _record_matching.blocking_from_psd

    def scored_by_reference(psd, holders_points, seekers_points, matching_distance,
                            count_threshold=0.0, workers=None, seeker_chunk=None):
        return blocking_reference(psd, holders_points, seekers_points, matching_distance,
                                  count_threshold=count_threshold)

    _record_matching.blocking_from_psd = scored_by_reference
    try:
        yield
    finally:
        _record_matching.blocking_from_psd = original

"""The Hilbert-interval formulation of a planar range query.

A Hilbert R-tree answers a planar query in production R-tree style, over the
bounding boxes of its nodes (:func:`repro.engine.flat.compile_psd`).
The alternative the paper also describes decomposes the query rectangle into
contiguous Hilbert-index intervals (:func:`rect_to_ranges`) and sums the 1-D
canonical-decomposition answers over them (:func:`range_query_intervals`).
Tests keep it to check the two formulations against each other.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.tree import PrivateSpatialDecomposition
from repro.geometry.hilbert import HilbertCurve
from repro.geometry.rect import Rect

__all__ = ["rect_to_ranges", "range_query_intervals"]


def rect_to_ranges(curve: HilbertCurve, rect: Rect,
                   max_ranges: int = 256) -> List[Tuple[int, int]]:
    """Decompose ``rect`` into contiguous Hilbert-index intervals of ``curve``.

    Returns a sorted list of inclusive intervals ``(lo, hi)`` whose union
    covers exactly the grid cells intersecting ``rect`` — up to the
    granularity forced by ``max_ranges``: when the exact decomposition
    would exceed ``max_ranges`` intervals the recursion stops early and
    whole sub-squares are reported even if only partially covered, which
    over-approximates the query slightly (the same effect as the finite
    curve order itself).
    """
    query = curve.domain.intersection(rect)
    if query is None:
        return []

    # Work in grid coordinates: inclusive cell bounds of the query.
    lo = np.asarray(curve.domain.lo)
    widths = curve.domain.widths
    widths = np.where(widths > 0, widths, 1.0)
    cell_w = widths / curve.side
    qlo = np.floor((np.asarray(query.lo) - lo) / cell_w).astype(np.int64)
    qhi = np.ceil((np.asarray(query.hi) - lo) / cell_w).astype(np.int64) - 1
    qlo = np.clip(qlo, 0, curve.side - 1)
    qhi = np.clip(qhi, qlo, curve.side - 1)

    intervals: List[Tuple[int, int]] = []

    def covered(cx0: int, cy0: int, size: int) -> str:
        """Classify the sub-square [cx0, cx0+size) x [cy0, cy0+size)."""
        cx1, cy1 = cx0 + size - 1, cy0 + size - 1
        if cx1 < qlo[0] or cx0 > qhi[0] or cy1 < qlo[1] or cy0 > qhi[1]:
            return "outside"
        if cx0 >= qlo[0] and cx1 <= qhi[0] and cy0 >= qlo[1] and cy1 <= qhi[1]:
            return "inside"
        return "partial"

    # Recursive descent over the curve's quadrant structure.  At each
    # square of side `size` starting at Hilbert offset `base`, the curve
    # visits the four child quadrants contiguously in an order determined
    # by encoding their corner cells, so each fully-covered child maps to
    # one contiguous interval of length (size/2)^2.
    def recurse(cx0: int, cy0: int, size: int) -> None:
        state = covered(cx0, cy0, size)
        if state == "outside":
            return
        if state == "inside" or size == 1:
            intervals.append(_square_range(curve, cx0, cy0, size))
            return
        if len(intervals) >= max_ranges:
            # Budget exhausted: over-approximate with the whole square.
            intervals.append(_square_range(curve, cx0, cy0, size))
            return
        half = size // 2
        for dx in (0, half):
            for dy in (0, half):
                recurse(cx0 + dx, cy0 + dy, half)

    recurse(0, 0, curve.side)
    return _merge_intervals(intervals)


def _square_range(curve: HilbertCurve, cx0: int, cy0: int, size: int) -> Tuple[int, int]:
    """The contiguous Hilbert interval covered by an aligned square."""
    # An aligned square of side `size` (a node of the curve's quadtree)
    # covers exactly size^2 consecutive indices; its start is the minimum
    # index among its corner cells' aligned block.
    corner = int(curve.encode_cells(np.array([cx0]), np.array([cy0]))[0])
    block = size * size
    start = (corner // block) * block
    return start, start + block - 1


def _merge_intervals(intervals: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Sort inclusive intervals and merge the adjacent/overlapping ones."""
    if not intervals:
        return []
    intervals = sorted(intervals)
    merged = [intervals[0]]
    for lo, hi in intervals[1:]:
        last_lo, last_hi = merged[-1]
        if lo <= last_hi + 1:
            merged[-1] = (last_lo, max(last_hi, hi))
        else:
            merged.append((lo, hi))
    return merged


def range_query_intervals(tree, query: Rect, max_ranges: int = 1024) -> float:
    """A Hilbert R-tree's answer to ``query``, summed over Hilbert intervals.

    When ``max_ranges`` is too small the decomposition over-approximates the
    query region and the estimate is biased upwards.
    """
    intervals = rect_to_ranges(tree.curve, query, max_ranges=max_ranges)
    rects = [Rect((float(lo),), (float(hi) + 1.0,)) for lo, hi in intervals]
    # The 1-D index tree alone, without the curve, answers index intervals.
    index_tree = PrivateSpatialDecomposition(tree.flat_tree, tree.domain, tree.count_epsilons)
    return float(sum(index_tree.batch_range_query(rects).tolist()))

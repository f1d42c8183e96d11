"""Exact vectorised point-set kernels: grid range counting and neighbor joins.

The record-matching pipeline (:mod:`repro.applications.record_matching`) asks
two geometric questions at scale: *how many of party B's points fall in each
of thousands of leaf rectangles* and *which pairs of points lie within an
L-infinity matching distance of each other*.  Both are answered here with
uniform-grid indexes whose results are **bitwise identical** to the brute
force — no tolerance, no "approximately equal":

* :class:`PointGrid` bins a point set once and answers batched closed-rect
  containment counts (and membership masks).  Cells *strictly between* a
  rectangle's corner cells are counted wholesale from a dense prefix-sum
  table; only the thin shell of cells that contain a corner coordinate fall
  back to exact per-point comparisons.  The classification is sound because
  the cell map ``c(x) = floor((x - origin) / side)`` is monotone in ``x``
  (float subtraction and division are monotone under IEEE round-to-nearest),
  so ``c(p) > c(rect_lo)`` implies ``p > rect_lo`` exactly — interior cells
  can only hold interior points.

* :class:`CellJoinIndex` supports the neighbor join behind pairs
  completeness: with a cell side of at least ``distance * (1 + 1e-9)`` (and
  at most ~10^6 cells per axis, which keeps the accumulated rounding of the
  cell map well under that margin), any two points within ``distance`` land
  in the same or adjacent cells, so comparing each point against the 3^d
  neighboring cells of its own finds every matching pair.  The candidate
  pairs are then filtered with exactly the brute-force predicate
  ``max(|a - b|) <= distance`` — identical floats, identical counts.

Everything is ragged-array NumPy built on the same
:func:`~repro.engine.flat.expand_ranges` primitive as the batch query
evaluator; there are no per-point Python loops.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .flat import expand_ranges
from .grid import box_sums, prefix_sums

__all__ = [
    "CellJoinIndex",
    "PointGrid",
    "matching_cell_layout",
]

#: Total dense-cell budget of a :class:`PointGrid` (the prefix table is a
#: dense ``prod(shape)`` array; 4M int64 cells is ~32 MiB).
_DENSE_CELL_BUDGET = 4_000_000

#: Relative safety margin on the neighbor-join cell side: with at most
#: ``_MAX_JOIN_CELLS`` cells per axis the cell map's rounding error is below
#: ``~4e-10`` cells, so a side of ``distance * (1 + 1e-9)`` guarantees that
#: points within ``distance`` differ by at most one cell per axis.
_SIDE_MARGIN = 1e-9
_MAX_JOIN_CELLS = 1_000_000

#: Clamp applied to cell coordinates before the float -> int64 conversion;
#: preserves ordering (values this large are always "far outside the grid")
#: while avoiding undefined casts for callers with unbounded rectangles.
_CELL_CLAMP = float(2**62)


def _as_points(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("point arrays must be two-dimensional (n, d)")
    return pts


@dataclass
class PointGrid:
    """A uniform grid over one point set answering exact batched rect counts.

    Attributes
    ----------
    points:
        The ``(n, d)`` float64 point array the grid indexes (referenced, not
        copied).
    origin, side:
        The cell map parameters: point ``p`` lives in cell
        ``floor((p - origin) / side)`` per axis (``side > 0`` elementwise).
    shape:
        ``(d,)`` dense cell extents; every point's cell is in
        ``[0, shape)``.
    order, indptr:
        CSR layout of points grouped by flattened cell id: cell ``c`` holds
        points ``order[indptr[c]:indptr[c + 1]]``.
    prefix:
        Dense ``shape + 1`` cumulative count table (zero-padded on the low
        side), giving any axis-aligned cell-box population in ``2^d`` reads.
    """

    points: np.ndarray
    origin: np.ndarray
    side: np.ndarray
    shape: np.ndarray
    order: np.ndarray
    indptr: np.ndarray
    prefix: np.ndarray

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, points: np.ndarray, target_cells: Optional[int] = None) -> "PointGrid":
        pts = _as_points(points)
        n, d = pts.shape
        if d < 1:
            raise ValueError("points must have at least one dimension")
        if n == 0:
            shape = np.ones(d, dtype=np.int64)
            return cls(
                points=pts,
                origin=np.zeros(d, dtype=np.float64),
                side=np.ones(d, dtype=np.float64),
                shape=shape,
                order=np.empty(0, dtype=np.int64),
                indptr=np.zeros(2, dtype=np.int64),
                prefix=np.zeros(tuple(shape + 1), dtype=np.int64),
            )
        budget = _DENSE_CELL_BUDGET if target_cells is None else max(1, int(target_cells))
        per_axis_cap = max(1, int(budget ** (1.0 / d)))
        # ~2 points per cell keeps both the dense table and the boundary
        # shells cheap across the sizes the matching pipeline sees.
        g = min(max(int(np.ceil((n / 2.0) ** (1.0 / d))), 1), per_axis_cap)
        origin = pts.min(axis=0)
        extent = pts.max(axis=0) - origin
        side = np.where(extent > 0.0, extent / g, 1.0)
        cells = np.floor((pts - origin) / side).astype(np.int64)
        shape = cells.max(axis=0) + 1
        flat = cells[:, 0].copy()
        for k in range(1, d):
            flat = flat * shape[k] + cells[:, k]
        n_cells = int(np.prod(shape))
        order = np.argsort(flat, kind="stable").astype(np.int64)
        counts = np.bincount(flat, minlength=n_cells)
        indptr = np.zeros(n_cells + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        prefix = np.zeros(tuple(shape + 1), dtype=np.int64)
        prefix[tuple(slice(1, None) for _ in range(d))] = counts.reshape(tuple(shape))
        return cls(pts, origin, side, shape, order, indptr, prefix_sums(prefix))

    # ------------------------------------------------------------------
    @property
    def dims(self) -> int:
        return int(self.points.shape[1])

    def cell_of(self, values: np.ndarray) -> np.ndarray:
        """Unclipped cell coordinates of arbitrary points (may be negative or
        beyond ``shape`` — the same monotone map the build applied)."""
        raw = np.floor((np.asarray(values, dtype=np.float64) - self.origin) / self.side)
        return np.clip(raw, -_CELL_CLAMP, _CELL_CLAMP).astype(np.int64)

    # -- internal geometry helpers -------------------------------------
    def _interior_bounds(self, clo: np.ndarray, chi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Half-open per-axis ranges of cells strictly between the corner
        cells (whose points are guaranteed strictly inside the rect)."""
        a = np.clip(clo + 1, 0, self.shape)
        b = np.maximum(a, np.clip(chi, 0, self.shape))
        return a, b

    def _covered_bounds(self, clo: np.ndarray, chi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Half-open per-axis ranges of every cell that can hold an in-rect
        point (cells outside ``[clo, chi]`` provably cannot)."""
        a = np.clip(clo, 0, self.shape)
        b = np.maximum(a, np.clip(chi + 1, 0, self.shape))
        return a, b

    def _boundary_boxes(
        self, clo: np.ndarray, chi: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The shell of cells containing a rect corner coordinate, as a
        disjoint union of thin axis-aligned cell boxes.

        Axis ``k`` contributes the (at most two) slabs whose ``k``-coordinate
        equals a corner cell, restricted to *interior* ranges on axes before
        ``k`` and *covered* ranges after it — a standard disjoint tiling of
        covered-minus-interior.  Returns ``(rect_owner, box_lo, box_hi)``.
        """
        n_rects, d = clo.shape
        ia, ib = self._interior_bounds(clo, chi)
        ca, cb = self._covered_bounds(clo, chi)
        owners, los, his = [], [], []
        for k in range(d):
            for hi_slab in (False, True):
                coord = chi[:, k] if hi_slab else clo[:, k]
                valid = (coord >= 0) & (coord < self.shape[k])
                if hi_slab:
                    valid &= chi[:, k] != clo[:, k]
                rect_ids = np.nonzero(valid)[0]
                if rect_ids.size == 0:
                    continue
                blo = np.empty((rect_ids.size, d), dtype=np.int64)
                bhi = np.empty((rect_ids.size, d), dtype=np.int64)
                for j in range(d):
                    if j < k:
                        blo[:, j] = ia[rect_ids, j]
                        bhi[:, j] = ib[rect_ids, j]
                    elif j > k:
                        blo[:, j] = ca[rect_ids, j]
                        bhi[:, j] = cb[rect_ids, j]
                blo[:, k] = coord[rect_ids]
                bhi[:, k] = coord[rect_ids] + 1
                owners.append(rect_ids)
                los.append(blo)
                his.append(bhi)
        if not owners:
            empty = np.empty((0, d), dtype=np.int64)
            return np.empty(0, dtype=np.int64), empty, empty
        return np.concatenate(owners), np.concatenate(los), np.concatenate(his)

    def _enumerate_cells(self, blo: np.ndarray, bhi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Flattened ids of every cell in each half-open box, axis by axis via
        :func:`expand_ranges`; returns ``(box_index, flat_cell)``."""
        n_boxes, d = blo.shape
        item = np.arange(n_boxes, dtype=np.int64)
        acc = np.zeros(n_boxes, dtype=np.int64)
        for k in range(d):
            starts = blo[item, k]
            ends = np.maximum(bhi[item, k], starts)
            coords = expand_ranges(starts, ends)
            widths = ends - starts
            item = np.repeat(item, widths)
            acc = np.repeat(acc, widths) * self.shape[k] + coords
        return item, acc

    def _cell_point_pairs(
        self, rect_of_cell: np.ndarray, flat_cells: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        starts = self.indptr[flat_cells]
        ends = self.indptr[flat_cells + 1]
        pair_rect = np.repeat(rect_of_cell, ends - starts)
        pair_point = self.order[expand_ranges(starts, ends)]
        return pair_rect, pair_point

    # ------------------------------------------------------------------
    def count_in_rects(
        self, qlo: np.ndarray, qhi: np.ndarray, rect_block: int = 4096
    ) -> np.ndarray:
        """Per-rect counts of points with ``lo <= p <= hi`` (closed on both
        sides, the :meth:`Rect.contains_points(closed_hi=True)` predicate),
        exact for every input including inverted or off-grid rectangles."""
        qlo = np.asarray(qlo, dtype=np.float64)
        qhi = np.asarray(qhi, dtype=np.float64)
        if qlo.shape != qhi.shape or qlo.ndim != 2 or qlo.shape[1] != self.dims:
            raise ValueError("rect bounds must both have shape (n_rects, dims)")
        n_rects = qlo.shape[0]
        out = np.zeros(n_rects, dtype=np.int64)
        if n_rects == 0 or self.points.shape[0] == 0:
            return out
        for start in range(0, n_rects, max(1, int(rect_block))):
            stop = min(n_rects, start + max(1, int(rect_block)))
            blo, bhi = qlo[start:stop], qhi[start:stop]
            clo, chi = self.cell_of(blo), self.cell_of(bhi)
            ia, ib = self._interior_bounds(clo, chi)
            block = box_sums(self.prefix, ia, ib)  # interior cells, read wholesale
            rect_ids, box_lo, box_hi = self._boundary_boxes(clo, chi)
            cell_item, flat_cells = self._enumerate_cells(box_lo, box_hi)
            pair_rect, pair_point = self._cell_point_pairs(rect_ids[cell_item], flat_cells)
            if pair_rect.size:
                pts = self.points[pair_point]
                inside = np.all(pts >= blo[pair_rect], axis=1)
                inside &= np.all(pts <= bhi[pair_rect], axis=1)
                block += np.bincount(pair_rect[inside], minlength=stop - start)
            out[start:stop] = block
        return out

    def mask_in_rects(
        self, qlo: np.ndarray, qhi: np.ndarray, rect_block: int = 2048
    ) -> np.ndarray:
        """Boolean mask of points contained (closed on both sides) in the
        union of the given rectangles."""
        qlo = np.asarray(qlo, dtype=np.float64)
        qhi = np.asarray(qhi, dtype=np.float64)
        if qlo.shape != qhi.shape or qlo.ndim != 2 or qlo.shape[1] != self.dims:
            raise ValueError("rect bounds must both have shape (n_rects, dims)")
        mask = np.zeros(self.points.shape[0], dtype=bool)
        if qlo.shape[0] == 0 or self.points.shape[0] == 0:
            return mask
        for start in range(0, qlo.shape[0], max(1, int(rect_block))):
            stop = min(qlo.shape[0], start + max(1, int(rect_block)))
            blo, bhi = qlo[start:stop], qhi[start:stop]
            clo, chi = self.cell_of(blo), self.cell_of(bhi)
            # Interior cells: strictly inside the rect, no per-point test.
            ia, ib = self._interior_bounds(clo, chi)
            _, flat_cells = self._enumerate_cells(ia, ib)
            starts = self.indptr[flat_cells]
            ends = self.indptr[flat_cells + 1]
            mask[self.order[expand_ranges(starts, ends)]] = True
            # Boundary shell: exact per-point containment.
            rect_ids, box_lo, box_hi = self._boundary_boxes(clo, chi)
            cell_item, shell_cells = self._enumerate_cells(box_lo, box_hi)
            pair_rect, pair_point = self._cell_point_pairs(rect_ids[cell_item], shell_cells)
            if pair_rect.size:
                pts = self.points[pair_point]
                inside = np.all(pts >= blo[pair_rect], axis=1)
                inside &= np.all(pts <= bhi[pair_rect], axis=1)
                mask[pair_point[inside]] = True
        return mask


# ----------------------------------------------------------------------
# Neighbor join
# ----------------------------------------------------------------------
def matching_cell_layout(
    a_points: np.ndarray, b_points: np.ndarray, distance: float
) -> Tuple[np.ndarray, float, np.ndarray]:
    """The shared cell map for a neighbor join between two point sets.

    Returns ``(origin, side, extents)``: a joint origin (elementwise minimum
    over both sets, so every cell coordinate is non-negative), a scalar cell
    side of at least ``distance * (1 + 1e-9)`` — large enough that any two
    points within L-infinity ``distance`` land in same-or-adjacent cells
    despite cell-map rounding — and per-axis key extents sized for the
    ``+/-1`` neighbor offsets of *either* set's coordinates without int64
    key collisions.
    """
    a = _as_points(a_points)
    b = _as_points(b_points)
    d = a.shape[1] if a.size or not b.size else b.shape[1]
    mins = [pts.min(axis=0) for pts in (a, b) if pts.shape[0]]
    maxs = [pts.max(axis=0) for pts in (a, b) if pts.shape[0]]
    if mins:
        origin = np.minimum.reduce(mins)
        span = np.maximum.reduce(maxs) - origin
    else:
        origin = np.zeros(d, dtype=np.float64)
        span = np.zeros(d, dtype=np.float64)
    # Cap the per-axis cell count both for the rounding-margin argument and
    # so the composed int64 keys cannot overflow in any dimension count.
    cells_cap = max(2, min(_MAX_JOIN_CELLS, int((2.0**62) ** (1.0 / max(d, 1)) / 4)))
    side = max(float(distance) * (1.0 + _SIDE_MARGIN), float(span.max(initial=0.0)) / cells_cap)
    if not (side > 0.0 and np.isfinite(side)):
        side = 1.0
    if mins:
        cmax = np.floor((np.maximum.reduce(maxs) - origin) / side).astype(np.int64)
    else:
        cmax = np.zeros(d, dtype=np.int64)
    # Shifted coordinates plus a +/-1 offset live in [0, cmax + 2].
    extents = cmax + 3
    return origin, side, extents


@dataclass
class CellJoinIndex:
    """One side of a grid neighbor join, grouped by int64 cell key.

    Build it over the larger (or reused) point set with
    :func:`matching_cell_layout`'s shared parameters, then stream the other
    side through :meth:`join_count` in chunks.  All candidate enumeration is
    sparse — only nonempty cells occupy memory — and the final predicate is
    the exact brute-force comparison, so counts are bitwise reproducible.
    """

    points: np.ndarray
    origin: np.ndarray
    side: float
    strides: np.ndarray
    keys: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    order: np.ndarray

    @classmethod
    def build(
        cls,
        points: np.ndarray,
        origin: np.ndarray,
        side: float,
        extents: np.ndarray,
    ) -> "CellJoinIndex":
        pts = _as_points(points)
        n, d = pts.shape
        extents = np.asarray(extents, dtype=np.int64)
        strides = np.ones(d, dtype=np.int64)
        for k in range(d - 2, -1, -1):
            strides[k] = strides[k + 1] * extents[k + 1]
        if n:
            coords = np.floor((pts - origin) / side).astype(np.int64) + 1
            keys_all = (coords * strides).sum(axis=1)
        else:
            keys_all = np.empty(0, dtype=np.int64)
        order = np.argsort(keys_all, kind="stable").astype(np.int64)
        keys, starts, counts = np.unique(keys_all[order], return_index=True, return_counts=True)
        return cls(
            points=pts,
            origin=np.asarray(origin, dtype=np.float64),
            side=float(side),
            strides=strides,
            keys=keys.astype(np.int64),
            starts=starts.astype(np.int64),
            counts=counts.astype(np.int64),
            order=order,
        )

    def join_count(
        self,
        other: np.ndarray,
        distance: float,
        index_mask: Optional[np.ndarray] = None,
    ) -> Tuple[int, int]:
        """Count pairs within L-infinity ``distance`` of each other.

        Returns ``(total, kept)`` where ``total`` counts every matching
        (index point, other point) pair and ``kept`` only those whose index
        point has ``index_mask`` set (``kept == total`` without a mask).
        Exact: candidates come from the 3^d adjacent cells, the decision from
        ``max(|a - b|) <= distance`` on the original float64 coordinates.
        """
        other = _as_points(other)
        if other.shape[0] == 0 or self.points.shape[0] == 0 or not (float(distance) >= 0.0):
            return 0, 0
        d = self.points.shape[1]
        if other.shape[1] != d:
            raise ValueError("point sets must share a dimensionality")
        coords = np.floor((other - self.origin) / self.side).astype(np.int64) + 1
        total = 0
        kept = 0
        for offset in itertools.product((-1, 0, 1), repeat=d):
            nkeys = ((coords + np.asarray(offset, dtype=np.int64)) * self.strides).sum(axis=1)
            pos = np.searchsorted(self.keys, nkeys)
            hit = self.keys[np.minimum(pos, self.keys.size - 1)] == nkeys
            other_ids = np.nonzero(hit)[0]
            if other_ids.size == 0:
                continue
            runs = pos[other_ids]
            run_starts = self.starts[runs]
            run_counts = self.counts[runs]
            pair_other = np.repeat(other_ids, run_counts)
            pair_index = self.order[expand_ranges(run_starts, run_starts + run_counts)]
            diffs = np.max(np.abs(self.points[pair_index] - other[pair_other]), axis=1)
            matched = diffs <= distance
            total += int(np.count_nonzero(matched))
            if index_mask is not None:
                kept += int(np.count_nonzero(matched & index_mask[pair_index]))
        return total, (total if index_mask is None else kept)

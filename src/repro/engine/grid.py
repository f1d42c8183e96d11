"""Closed-form range queries over complete quadtree engines.

A complete 2-D quadtree is a stack of grids: its ``4^d`` nodes at depth ``d``
(paper level ``h - d``; level 0 holds the leaves) are the cells of a
``2^d x 2^d`` tensor grid, and each depth's per-axis cell edges refine those
of the depth above by one cut per cell.  On such an engine the canonical
decomposition of Section 4.1 (Lemma 2) has a closed form per level:

* at a depth whose level released counts, the decomposition sums the block
  of cells contained in the query, minus the footprint of the contained
  block at the nearest released depth above (those cells' ancestors
  already answered).  Both are rectangles of cells, so two lookups in a
  prefix-sum table of the level's counts give their sum, and their sizes
  give the level's share of ``n(Q)`` and, times the level's count
  variance, of ``Err(Q)``;
* depths whose level released no count (``eps_i = 0``) are skipped, as the
  frontier walk skips them;
* the partially covered leaves form at most 8 boxes around the contained
  leaf block: 4 edge strips and 4 corners.  A leaf's uniformity fraction is
  separable, ``(overlap/width on x) * (overlap/width on y)``, and constant
  along a strip, so each box is one more lookup times one fraction.

That is ``O(h)`` table reads per query, where the level-synchronous frontier
of :mod:`repro.engine.batch` visits every one of the query's ``n(Q)`` nodes
and their intersecting ancestors.  :meth:`GridIndex.evaluate` makes those
reads for a whole batch and every released level at once: the levels' tables
are views of one concatenated prefix table, and each level's contained block
and footprint are ``(levels, Q)`` index arrays.

Eligibility is read from the engine's own arrays, never from header fields:
2-D nodes in BFS level sizes ``4^k``; node ``t``'s children at
``4t+1 .. 4t+4``, holding its 4 sub-cells in quadrant order, and leaves only
at level 0; strictly increasing per-axis edges, each depth cutting every
cell of the depth above in two on each axis; ``has_count`` uniform per
level; finite released counts and level variances; leaf ``area`` equal to
the product of the edge widths.  Every quadtree the builder produces
qualifies.  Every other engine -- pruned trees, kd-trees, Hilbert R-trees,
a tampered file -- is answered by the frontier walk.

Precision contract
------------------
``n(Q)`` is identical to the frontier's.  The estimate and ``Err(Q)`` are
the same sums in another association: the tables hold float64 prefix sums,
accumulated in ``np.longdouble`` and rounded once, so each table entry is
within half an ulp of its exact value and each lookup adds a few more
roundings at the magnitude of the level's total released mass ``M``.  The
difference from the frontier is therefore a few ulps of ``M`` per released
level -- under 5e-10 absolute on a million-point release -- and the serving
stack checks it against ``1e-9 * max(|frontier|, 1)``.  Every per-query
quantity is computed element-wise, so a query's answer does not change by a
single bit with the batch it arrives in or its chunking.

The index is derived once per process per engine (:func:`grid_index`) and
memoised on the engine; it is never pickled, so a memory-mapped engine still
ships to pool workers as file handles, and each worker derives its own copy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from ..obs import trace_span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .flat import FlatPSD

__all__ = ["GridIndex", "box_sums", "grid_index", "prefix_sums"]

#: Fan-out of the grids this module answers: 2 cuts on each of 2 axes.
_FANOUT = 4

#: Rows of a prefix table summed per step (bounds its working memory).
_PREFIX_BLOCK_ROWS = 64

#: Queries answered per step of :meth:`GridIndex.evaluate` (bounds its working memory).
_EVALUATE_BLOCK_ROWS = 2048


def prefix_sums(table: np.ndarray, accumulate=None) -> np.ndarray:
    """Turn a zero-padded table into its prefix sums over every axis, in place.

    On entry ``table[1:, ..., 1:]`` holds the values and the first entry of
    every axis is zero; on return ``table[i_1, ..., i_d]`` is the sum of the
    values in ``[0, i_1) x ... x [0, i_d)``.  The running sums are carried in
    ``accumulate`` (default: the table's dtype) and rounded once into the
    table, a block of rows at a time.  Returns ``table``.
    """
    accumulate = table.dtype if accumulate is None else np.dtype(accumulate)
    carry = np.zeros(table.shape[1:], dtype=accumulate)  # sums of every row above the block
    for start in range(1, table.shape[0], _PREFIX_BLOCK_ROWS):
        block = table[start : start + _PREFIX_BLOCK_ROWS].astype(accumulate)
        for axis in range(table.ndim):
            np.cumsum(block, axis=axis, out=block)
        block += carry
        table[start : start + _PREFIX_BLOCK_ROWS] = block
        carry = block[-1]
    return table


def box_sums(table: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sums of the half-open cell boxes ``[a, b)`` over a :func:`prefix_sums` table.

    ``a`` and ``b`` are ``(n_boxes, d)`` index arrays with ``a <= b``; each
    box costs ``2^d`` inclusion-exclusion reads.
    """
    n_boxes, d = a.shape
    shape = table.shape
    flat = table.reshape(-1)
    total = np.zeros(n_boxes, dtype=table.dtype)
    for picks in itertools.product((0, 1), repeat=d):
        idx = np.zeros(n_boxes, dtype=np.int64)
        for k in range(d):
            idx = idx * shape[k] + (a[:, k] if picks[k] else b[:, k])
        if sum(picks) % 2:
            total -= flat[idx]
        else:
            total += flat[idx]
    return total


@dataclass(frozen=True)
class GridIndex:
    """The per-level tables that answer a complete quadtree in closed form.

    Depth ``d`` (level ``h - d``) is a ``2^d x 2^d`` grid whose cell edges
    are every ``2^(h - d)``-th leaf edge, so the leaf edges locate a query
    at every depth.
    """

    xs: np.ndarray  # (2^h + 1,) strictly increasing leaf edges on x
    ys: np.ndarray  # (2^h + 1,) strictly increasing leaf edges on y
    #: The released levels' prefix tables, root first, in one flat array.
    prefix: np.ndarray
    depths: np.ndarray  # the depths whose level released counts, root first
    offsets: np.ndarray  # per released depth: where its table starts in ``prefix``
    #: Per depth, root first: the ``(2^d + 1, 2^d + 1)`` prefix sums of the
    #: level's released counts indexed ``[x cell, y cell]`` (a view of
    #: ``prefix``), or ``None`` when the level released none.
    tables: Tuple[Optional[np.ndarray], ...]
    variances: Tuple[float, ...]  # per depth: the level's count variance (Equation 1)
    #: The narrowest leaf on each axis: bounds below every ``overlap * width``
    #: the frontier forms along a boundary strip.
    min_width: Tuple[float, float]

    # ------------------------------------------------------------------
    @classmethod
    def derive(cls, engine: "FlatPSD") -> Optional["GridIndex"]:
        """The engine's index, or ``None`` when its arrays are not a complete
        2-D fanout-4 grid (see the module docstring for the conditions).

        Reads one depth at a time through views, so its only temporaries
        are boolean masks the size of one depth and the tables themselves.
        """
        if engine.dims != 2:
            return None
        n = engine.n_nodes
        sizes = [1]
        while sum(sizes) < n:
            sizes.append(_FANOUT * sizes[-1])
        height = len(sizes) - 1
        level_variance = np.asarray(engine.level_variance, dtype=np.float64)
        if not (sum(sizes) == n and level_variance.shape == (height + 1,)
                and np.all(np.isfinite(level_variance))):
            return None

        # One prefix table per released level, all views of one flat array;
        # a level released its counts when its first node did (checked below).
        starts = np.cumsum([0] + sizes[:-1])
        depths = np.flatnonzero(engine.has_count[starts])
        widths = (1 << depths) + 1
        offsets = np.cumsum(np.append(0, widths * widths))
        prefix = np.zeros(int(offsets[-1]))
        tables: List[Optional[np.ndarray]] = []
        xs = ys = None
        s = 0
        for depth, size in enumerate(sizes):
            e = s + size
            if depth < height:
                # BFS: node t's children are nodes 4t+1 .. 4t+4.
                first_child = _FANOUT * np.arange(s, e, dtype=np.int64) + 1
                links = (np.array_equal(engine.child_start[s:e], first_child)
                         and np.array_equal(engine.child_end[s:e], first_child + _FANOUT)
                         and not engine.is_leaf[s:e].any())
            else:
                links = (np.array_equal(engine.child_start[s:e], engine.child_end[s:e])
                         and engine.is_leaf[s:e].all())
            if not (links and np.all(engine.level[s:e] == height - depth)):
                return None

            # The edges are the low bounds of the first row and column, plus
            # the high bounds of the last node, cell (2^d - 1, 2^d - 1).
            lo_x, lo_y = _node_axes(engine.lo[s:e, 0], depth), _node_axes(engine.lo[s:e, 1], depth)
            every, first = (slice(None),) * depth, (0,) * depth
            next_xs = np.append(lo_x[every + first].reshape(-1), engine.hi[e - 1, 0])
            next_ys = np.append(lo_y[first + every].reshape(-1), engine.hi[e - 1, 1])
            widths_x, widths_y = np.diff(next_xs), np.diff(next_ys)
            # Each depth cuts every cell of the one above in two on each axis.
            nested = depth == 0 or (np.array_equal(next_xs[::2], xs) and np.array_equal(next_ys[::2], ys))
            if not (
                nested and np.all(widths_x > 0) and np.all(widths_y > 0)
                and np.all(lo_x == _along(next_xs[:-1], depth, 0))
                and np.all(lo_y == _along(next_ys[:-1], depth, 1))
                and np.all(_node_axes(engine.hi[s:e, 0], depth) == _along(next_xs[1:], depth, 0))
                and np.all(_node_axes(engine.hi[s:e, 1], depth) == _along(next_ys[1:], depth, 1))
            ):
                return None
            xs, ys = next_xs, next_ys

            released = engine.has_count[s:e]
            table = None
            if released.all():
                counts = _node_axes(engine.released[s:e], depth)
                if not np.all(np.isfinite(counts)):
                    return None
                k = int(np.searchsorted(depths, depth))
                table = prefix[offsets[k]:offsets[k + 1]].reshape(widths[k], widths[k])
                np.copyto(table[1:, 1:].reshape(counts.shape), counts)
                prefix_sums(table, accumulate=np.longdouble)
            elif released.any():
                return None
            tables.append(table)
            s = e

        # The frontier divides partial leaves' overlaps by the stored area.
        area = _node_axes(engine.area[s - sizes[-1]:], height)
        if not (np.all(area == _along(np.diff(xs), height, 0) * _along(np.diff(ys), height, 1))
                and np.all(area > 0)):
            return None
        return cls(xs=xs, ys=ys, prefix=prefix, depths=depths, offsets=offsets[:-1],
                   tables=tuple(tables),
                   variances=tuple(float(v) for v in level_variance[::-1]),
                   min_width=(float(np.diff(xs).min()), float(np.diff(ys).min())))

    # ------------------------------------------------------------------
    def evaluate(
        self, qlo: np.ndarray, qhi: np.ndarray, use_uniformity: bool
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per query: estimate, ``n(Q)``, ``Err(Q)`` and whether it is exact.

        A query is not exact when one of its boundary strips is so thin
        that ``overlap * width`` underflows to zero for some leaf: the
        frontier skips such leaves, and only its walk says which.  Callers
        answer those queries by the walk.

        The batch is answered in blocks of ``_EVALUATE_BLOCK_ROWS`` queries,
        which bounds the ``(depths, Q)`` index arrays; every output is
        element-wise, so the blocks change no bit.
        """
        blocks = [self._evaluate_block(qlo[start:start + _EVALUATE_BLOCK_ROWS],
                                       qhi[start:start + _EVALUATE_BLOCK_ROWS], use_uniformity)
                  for start in range(0, max(qlo.shape[0], 1), _EVALUATE_BLOCK_ROWS)]
        return blocks[0] if len(blocks) == 1 else tuple(map(np.concatenate, zip(*blocks)))

    def _evaluate_block(
        self, qlo: np.ndarray, qhi: np.ndarray, use_uniformity: bool
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`evaluate` on one block: every released depth at once, as
        ``(depths, Q)`` arrays, then the partial leaves as ``(8, Q)`` arrays.

        Each depth's contribution, then each leaf box's, is added to
        zero-initialised accumulators in that order, as a loop over the
        depths would add them, so no output depends on the fusion.
        """
        n_queries = qlo.shape[0]
        estimates = np.zeros(n_queries)
        variances = np.zeros(n_queries)
        exact = np.ones(n_queries, dtype=bool)
        depths = self.depths
        if not depths.size:
            return estimates, np.zeros(n_queries, dtype=np.int64), variances, exact
        height = len(self.tables) - 1
        qx0, qy0, qx1, qy1 = qlo[:, 0], qlo[:, 1], qhi[:, 0], qhi[:, 1]
        # Per released depth (rows) and query (columns), the block
        # [x0, x1) x [y0, y1) of the depth's cells inside [q0, q1].  A depth's
        # edges are every 2^shift-th leaf edge, and a cell lies inside when
        # its low edge is >= q0 and its high edge <= q1, so the block follows
        # from the counts of leaf edges below q0 and at or below q1.
        x_below, x_upto = np.searchsorted(self.xs, qx0, "left"), np.searchsorted(self.xs, qx1, "right")
        y_below, y_upto = np.searchsorted(self.ys, qy0, "left"), np.searchsorted(self.ys, qy1, "right")
        shift = (height - depths)[:, None]
        round_up = (1 << shift) - 1
        n_cells = (1 << depths)[:, None]
        x0 = np.minimum((x_below + round_up) >> shift, n_cells)
        x1 = np.maximum(((x_upto + round_up) >> shift) - 1, x0)
        y0 = np.minimum((y_below + round_up) >> shift, n_cells)
        y1 = np.maximum(((y_upto + round_up) >> shift) - 1, y0)
        # Cells under a contained cell of the released depth above were
        # answered there: each depth but the first loses the footprint of
        # the block above it.
        gap = np.diff(depths)[:, None]
        fx0, fx1, fy0, fy1 = (v[:-1] << gap for v in (x0, x1, y0, y1))
        offsets, widths = self.offsets[:, None], n_cells + 1
        sums = _box_sums(self.prefix, offsets, widths, x0, x1, y0, y1)
        sums[1:] -= _box_sums(self.prefix, offsets[1:], widths[1:], fx0, fx1, fy0, fy1)
        cells = (x1 - x0) * (y1 - y0)
        cells[1:] -= (fx1 - fx0) * (fy1 - fy0)
        touched = cells.sum(axis=0)
        level_variances = np.asarray(self.variances)[depths]
        for depth_sum, depth_cells, variance in zip(sums, cells, level_variances):
            estimates += depth_sum
            variances += depth_cells * variance
        if depths[-1] < height:
            return estimates, touched, variances, exact  # no leaf counts: no partial leaves

        # The partially covered leaves: 8 boxes around the contained leaf
        # block, each with a separable uniformity fraction.
        xlo, xhi, xcount, xover, xfrac = _leaf_columns(self.xs, qx0, qx1, x_below, x_upto,
                                                       x0[-1], x1[-1])
        ylo, yhi, ycount, yover, yfrac = _leaf_columns(self.ys, qy0, qy1, y_below, y_upto,
                                                       y0[-1], y1[-1])
        count = xcount[_BOX_X] * ycount[_BOX_Y]
        # A corner leaf: the frontier's own test on its overlap area.
        count[_CORNERS] = xover[_CORNER_X] * yover[_CORNER_Y] > 0
        # Along a strip the frontier forms overlap * the leaf's width.
        thin = np.concatenate([xover * self.min_width[1] == 0, yover * self.min_width[0] == 0])
        exact &= ~np.any((count[_STRIPS] > 0) & thin, axis=0)
        leaf_sums = _box_sums(self.prefix, self.offsets[-1], widths[-1],
                              xlo[_BOX_X], xhi[_BOX_X], ylo[_BOX_Y], yhi[_BOX_Y])
        leaf_sums[count == 0] = 0.0
        fraction = xfrac[_BOX_X] * yfrac[_BOX_Y]
        touched += count.sum(axis=0)
        for box_sum, box_count, box_fraction in zip(leaf_sums, count, fraction):
            if use_uniformity:
                estimates += box_fraction * box_sum
            variances += box_fraction * box_fraction * box_count * self.variances[-1]
        return estimates, touched, variances, exact


def _node_axes(values: np.ndarray, depth: int) -> np.ndarray:
    """A view of one depth's per-node values with one length-2 axis per
    split: the ``depth`` x splits, root first, then the ``depth`` y splits.

    Children sit in quadrant order -- low x before high x, then low y
    before high y -- so a node's index within its depth interleaves the
    bits of its cell's x and y indices, and the view indexes it by cell.
    """
    x_bits, y_bits = tuple(range(1, 2 * depth, 2)), tuple(range(0, 2 * depth, 2))
    return np.asarray(values).reshape((2,) * (2 * depth)).transpose(x_bits + y_bits)


def _along(values: np.ndarray, depth: int, axis: int) -> np.ndarray:
    """Per-cell values of one axis, shaped to broadcast against
    :func:`_node_axes` views."""
    shape = ((2,) * depth + (1,) * depth) if axis == 0 else ((1,) * depth + (2,) * depth)
    return values.reshape(shape)


#: The 8 partial-leaf boxes around the contained leaf block, in row-major
#: order of their parts on each axis (0: the cell straddling q0, 1: the
#: contained cells, 2: the cell straddling q1); the contained block (1, 1)
#: is summed with its depth.
_BOX_X = np.array([0, 0, 0, 1, 1, 2, 2, 2])
_BOX_Y = np.array([0, 1, 2, 0, 2, 0, 1, 2])
#: The corner boxes, and their straddling cell on each axis (0: low, 1: high).
_CORNERS = np.array([0, 2, 5, 7])
_CORNER_X = np.array([0, 0, 1, 1])
_CORNER_Y = np.array([0, 1, 0, 1])
#: The strips: those along the low and high x cells, then along the y cells.
_STRIPS = np.array([1, 6, 3, 4])


def _box_sums(prefix: np.ndarray, offset, width, x0: np.ndarray, x1: np.ndarray,
              y0: np.ndarray, y1: np.ndarray) -> np.ndarray:
    """Sums of the boxes of cells ``[x0, x1) x [y0, y1)`` over the prefix
    table that starts at ``offset`` in ``prefix``, ``width`` entries a row.

    The four corners are read in :func:`box_sums`' order into zeros, and an
    empty box sums to exactly zero.
    """
    high, low = offset + x1 * width, offset + x0 * width
    total = np.zeros(x0.shape)
    total += prefix[high + y1]
    total -= prefix[high + y0]
    total -= prefix[low + y1]
    total += prefix[low + y0]
    total[(x0 == x1) | (y0 == y1)] = 0.0
    return total


def _leaf_columns(edges: np.ndarray, q0: np.ndarray, q1: np.ndarray, below: np.ndarray,
                  upto: np.ndarray, a: np.ndarray, b: np.ndarray):
    """The query's three column ranges on one axis of the leaf grid.

    ``below`` and ``upto`` count the edges below ``q0`` and at or below
    ``q1``.  Returns ``(3, Q)`` rows ``lo``, ``hi``, ``count`` and
    ``fraction`` for the cell straddling ``q0``, the contained cells
    ``[a, b)`` (fraction 1: every cell is covered in full) and the cell
    straddling ``q1``, and ``(2, Q)`` rows of the two straddling cells'
    ``overlap``.  A straddling range holds at most one cell; its ``count``
    is 1 where it does and the query overlaps it.
    """
    last = edges.shape[0] - 2
    # The edges at or below q0 and below q1: the strictly increasing edges
    # hold each value at most once.
    first = np.maximum(below + (edges[np.minimum(below, last + 1)] == q0) - 1, 0)
    stop = np.minimum(upto - (edges[np.maximum(upto - 1, 0)] == q1), last + 1)
    lo, hi = np.array([first, a, b]), np.array([a, b, stop])
    cell = np.minimum(lo[::2], last)
    overlap = np.where(hi[::2] > lo[::2],
                       np.minimum(edges[cell + 1], q1) - np.maximum(edges[cell], q0), 0.0)
    fraction = np.ones(lo.shape)
    fraction[::2] = overlap / (edges[cell + 1] - edges[cell])
    return lo, hi, np.array([overlap[0] > 0, b - a, overlap[1] > 0]), overlap, fraction


_UNSET = object()


def grid_index(engine: "FlatPSD") -> Optional[GridIndex]:
    """The engine's closed-form index, derived on first use; ``None`` when
    the engine is not a complete 2-D quadtree grid.

    Memoised on the engine (per process, never pickled); the engine's lock
    makes concurrent first callers wait for one derivation.
    """
    index = engine.__dict__.get("_grid", _UNSET)
    if index is _UNSET:
        with engine._grid_lock:
            index = engine.__dict__.get("_grid", _UNSET)
            if index is _UNSET:
                with trace_span("engine.grid_index", nodes=engine.n_nodes):
                    index = GridIndex.derive(engine)
                engine._grid = index
    return index

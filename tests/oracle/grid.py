"""The per-depth closed form: the reference the fused evaluator must match bit for bit.

:meth:`repro.engine.grid.GridIndex.evaluate` answers a batch of queries on a
complete quadtree with whole-batch array operations over one concatenated
prefix table.  :func:`evaluate_per_depth` is the form it replaced: a Python
loop over the released depths, one inclusion-exclusion read of the depth's
own table per contained block and footprint, then one pass per partial-leaf
box.  Both add every depth's contribution, then every box's, to
zero-initialised accumulators in the same order, so their outputs are
identical bit for bit; the tests hold the production evaluator to this one.
"""

from __future__ import annotations

import itertools
from typing import Tuple

import numpy as np

from repro.engine.grid import GridIndex, box_sums

__all__ = ["evaluate_per_depth"]


def evaluate_per_depth(
    index: GridIndex, qlo: np.ndarray, qhi: np.ndarray, use_uniformity: bool
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per query: estimate, ``n(Q)``, ``Err(Q)`` and whether it is exact,
    one released depth at a time (see :meth:`GridIndex.evaluate`)."""
    n_queries = qlo.shape[0]
    height = len(index.tables) - 1
    qx0, qy0, qx1, qy1 = qlo[:, 0], qlo[:, 1], qhi[:, 0], qhi[:, 1]
    # Leaf edges below q0 and at or below q1, per axis.
    x_below, x_upto = np.searchsorted(index.xs, qx0, "left"), np.searchsorted(index.xs, qx1, "right")
    y_below, y_upto = np.searchsorted(index.ys, qy0, "left"), np.searchsorted(index.ys, qy1, "right")
    estimates = np.zeros(n_queries)
    touched = np.zeros(n_queries, dtype=np.int64)
    variances = np.zeros(n_queries)
    exact = np.ones(n_queries, dtype=bool)
    above = None  # (depth, contained block) of the nearest released depth
    for depth, table in enumerate(index.tables):
        if table is None:
            continue
        shift = height - depth
        block = (*_contained(x_below, x_upto, shift, 1 << depth),
                 *_contained(y_below, y_upto, shift, 1 << depth))
        cells = _cells(block)
        boxes = [block]
        if above is not None:
            # Cells under a contained cell of the released depth above
            # were answered there.
            footprint = tuple(np.left_shift(v, depth - above[0]) for v in above[1])
            cells = cells - _cells(footprint)
            boxes.append(footprint)
        sums = _sums(table, boxes)
        estimates += sums[0] - sums[1] if above is not None else sums[0]
        touched += cells
        variances += cells * index.variances[depth]
        above = (depth, block)

    leaf_table = index.tables[-1]
    if leaf_table is None:
        return estimates, touched, variances, exact
    x0, x1, y0, y1 = above[1]
    parts_x = _axis_parts(index.xs, qx0, qx1, x0, x1)
    parts_y = _axis_parts(index.ys, qy0, qy1, y0, y1)
    boxes, counts, fractions = [], [], []
    for (xlo, xhi, xcount, xover, xfrac), (ylo, yhi, ycount, yover, yfrac) in (
        itertools.product(parts_x, parts_y)
    ):
        if xover is None and yover is None:
            continue  # the contained block, already summed
        if xover is not None and yover is not None:
            # A corner leaf: the frontier's own test on its overlap area.
            count = (xover * yover > 0).astype(np.int64)
        else:
            count = xcount * ycount
            over, width = (xover, index.min_width[1]) if yover is None else (yover, index.min_width[0])
            exact &= ~((count > 0) & (over * width == 0))
        boxes.append((xlo, xhi, ylo, yhi))
        counts.append(count)
        fractions.append(xfrac * yfrac)
    sums = _sums(leaf_table, boxes)
    for box_sum, count, fraction in zip(sums, counts, fractions):
        box_sum[count == 0] = 0.0
        if use_uniformity:
            estimates += fraction * box_sum
        touched += count
        variances += fraction * fraction * count * index.variances[-1]
    return estimates, touched, variances, exact


def _contained(below: np.ndarray, upto: np.ndarray, shift: int,
               cells: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per query, the half-open range ``[a, b)`` of one axis's cells at a
    depth whose edges are every ``2^shift``-th leaf edge, given the counts of
    leaf edges below ``q0`` and at or below ``q1``: cell ``i`` lies inside
    ``[q0, q1]`` when its low edge is ``>= q0`` and its high edge ``<= q1``."""
    round_up = (1 << shift) - 1
    a = np.minimum((below + round_up) >> shift, cells)
    b = np.maximum(((upto + round_up) >> shift) - 1, a)
    return a, b


def _cells(box) -> np.ndarray:
    x0, x1, y0, y1 = box
    return (x1 - x0) * (y1 - y0)


def _sums(table: np.ndarray, boxes) -> np.ndarray:
    """``(len(boxes), n_queries)`` sums of per-query boxes ``(x0, x1, y0, y1)``;
    an empty box sums to exactly zero."""
    x0, x1, y0, y1 = (np.concatenate(axis) for axis in zip(*boxes))
    sums = box_sums(table, np.stack([x0, y0], axis=1), np.stack([x1, y1], axis=1))
    sums[(x0 == x1) | (y0 == y1)] = 0.0
    return sums.reshape(len(boxes), -1)


def _axis_parts(edges: np.ndarray, q0: np.ndarray, q1: np.ndarray,
                a: np.ndarray, b: np.ndarray):
    """The query's three column ranges on one axis of the leaf grid.

    Returns ``(lo, hi, count, overlap, fraction)`` for the cell straddling
    ``q0``, the contained cells ``[a, b)`` (``overlap`` is ``None``:
    every cell is covered in full) and the cell straddling ``q1``.  A
    straddling range holds at most one cell; ``count`` is 1 where it does
    and the query overlaps it.
    """
    last = edges.shape[0] - 2
    first = np.maximum(np.searchsorted(edges, q0, side="right") - 1, 0)
    stop = np.minimum(np.searchsorted(edges, q1, side="left"), last + 1)
    parts = []
    for lo, hi in ((first, a), (b, stop)):
        cell = np.minimum(lo, last)
        overlap = np.where(hi > lo, np.minimum(edges[cell + 1], q1) - np.maximum(edges[cell], q0), 0.0)
        parts.append((lo, hi, (overlap > 0).astype(np.int64), overlap,
                      overlap / (edges[cell + 1] - edges[cell])))
    low, high = parts
    return [low, (a, b, b - a, None, 1.0), high]

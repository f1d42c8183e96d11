"""Figure 4: quality and cost of the private-median mechanisms.

Setup (Section 8.2): a synthetic one-dimensional dataset of ``2^20`` points
uniform in ``[0, 2^26]``; a binary tree of splits is grown to depth 10 with
each mechanism choosing every split, using a per-level budget of
``eps = 0.01`` (and ``delta = 1e-4`` for smooth sensitivity); the figure
reports, per depth,

* (a) the average normalized rank error of the chosen splits (values outside
  the data range count as 100 %), and
* (b) the wall-clock time spent selecting the splits at that depth,

for six methods: EM, SS, their 1 %-sampled variants EMs and SSs, the noisy
mean NM, and the cell-based approach (cell length ``2^10``).

The tree grows a level at a time over one sorted array: a node is a
contiguous range of it, its left child keeps the values ``<= split``, and a
depth's medians are one batch call over its nodes in BFS order, which draws
exactly what per-node calls in that order would (the draw-order contract of
:mod:`repro.privacy.median`).

The paper's conclusions, which the reproduction should echo: EM is the most
accurate at every depth; sampling speeds both EM and SS up by an order of
magnitude, slightly hurting EM and actually *helping* SS; NM is fast but poor
for small node sizes; cell is slow and weak at the top of the tree.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

import numpy as np

from ..data.synthetic import MEDIAN_STUDY_DOMAIN, uniform_1d
from ..privacy.median import MEDIAN_METHODS
from ..privacy.rng import RngLike, ensure_rng

__all__ = ["run_fig4", "PAPER_MEDIAN_METHODS", "DEFAULT_DEPTH"]

#: The six methods of Figure 4, keyed by the paper's labels.
PAPER_MEDIAN_METHODS = ("em", "ss", "ems", "sss", "noisymean", "cell")

#: Number of levels of splits measured (the paper plots depths 0..9).
DEFAULT_DEPTH = 10

#: Cell width used for the cell-based method in the paper (length 2^10 over 2^26).
PAPER_CELL_WIDTH = float(2**10)

#: Nodes with fewer points are not split (nor measured).
MIN_NODE_SIZE = 8


def _ranges(starts: np.ndarray, sizes: np.ndarray):
    """Indices of the ranges ``[starts[i], starts[i] + sizes[i])`` laid end to
    end, and the offsets of each range in them."""
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    return np.repeat(starts - offsets[:-1], sizes) + np.arange(offsets[-1]), offsets


def _cell_counts(los: np.ndarray, his: np.ndarray) -> np.ndarray:
    """The cell method's ``n_cells`` per node: cells of the paper's width,
    between 2 and ``2^16``."""
    cells = np.round((his - los) / PAPER_CELL_WIDTH).astype(np.int64)
    return np.minimum(np.maximum(cells, 2), 1 << 16)


def _level_medians(method_name: str, sorted_vals: np.ndarray, offsets: np.ndarray,
                   epsilon: float, los: np.ndarray, his: np.ndarray, gen) -> np.ndarray:
    """One private median per node of a level, drawn in BFS node order.

    ``cell`` lays ``_cell_counts`` cells over each node, so its draws per node
    vary: the level's uniforms are drawn at once in node order and every
    group of nodes sharing an ``n_cells`` gets its rows through ``uniforms=``.
    """
    record = MEDIAN_METHODS[method_name]
    if method_name != "cell":
        return record.batch(sorted_vals, offsets, epsilon, los, his, rng=gen, validate=False)
    n_cells = _cell_counts(los, his)
    node_start = np.concatenate(([0], np.cumsum(n_cells)[:-1]))
    u = gen.random(int(n_cells.sum()))
    out = np.empty(los.shape[0])
    for cells in np.unique(n_cells):
        nodes = np.flatnonzero(n_cells == cells)
        picked, group_offsets = _ranges(offsets[nodes], offsets[nodes + 1] - offsets[nodes])
        out[nodes] = record.batch(sorted_vals[picked], group_offsets, epsilon, los[nodes], his[nodes],
                                  uniforms=u[node_start[nodes, None] + np.arange(cells)],
                                  validate=False, n_cells=int(cells))
    return out


def run_fig4(
    n_points: int = 2**17,
    depth: int = DEFAULT_DEPTH,
    epsilon_per_level: float = 0.01,
    methods: Sequence[str] = PAPER_MEDIAN_METHODS,
    rng: RngLike = 0,
) -> List[Dict[str, object]]:
    """Run the Figure 4 experiment.

    ``n_points`` defaults to ``2^17`` so the run takes seconds; pass ``2**20``
    to match the paper exactly.  Returns one row per (method, depth) with the
    mean normalized rank error of the depth's splits (in percent, Figure 4a:
    ``|rank(split) - n/2| / n`` per node of ``n`` values, or 1 for a split
    outside the node's values), the time of the depth's median batch
    (seconds, Figure 4b) and the number of nodes split.
    """
    gen = ensure_rng(rng)
    lo, hi = MEDIAN_STUDY_DOMAIN
    values = np.sort(uniform_1d(n_points, lo=lo, hi=hi, rng=gen))

    rows: List[Dict[str, object]] = []
    for method_name in methods:
        # Nodes of the current depth in BFS order: value ranges and domains.
        starts, ends = np.array([0]), np.array([values.size])
        los, his = np.array([lo]), np.array([hi])
        for level in range(depth):
            live = (ends - starts >= MIN_NODE_SIZE) & (his > los)
            starts, ends, los, his = starts[live], ends[live], los[live], his[live]
            sizes = ends - starts
            error_pct, elapsed = float("nan"), 0.0
            if sizes.size:
                picked, offsets = _ranges(starts, sizes)
                begin = time.perf_counter()
                split = _level_medians(method_name, values[picked], offsets, epsilon_per_level,
                                       los, his, gen)
                elapsed = time.perf_counter() - begin
                # Values <= split go left: the cut, and the split's rank in its node.
                cut = np.clip(np.searchsorted(values, split, side="right"), starts, ends)
                inside = (split >= values[starts]) & (split <= values[ends - 1])
                n = sizes.astype(float)
                errors = np.where(inside, np.abs((cut - starts).astype(float) - n / 2.0) / n, 1.0)
                error_pct = 100.0 * float(np.mean(errors))
                starts, ends = np.stack([starts, cut], 1).ravel(), np.stack([cut, ends], 1).ravel()
                los, his = np.stack([los, split], 1).ravel(), np.stack([split, his], 1).ravel()
            rows.append({
                "method": method_name,
                "depth": level,
                "rank_error_pct": error_pct,
                "time_sec": float(elapsed),
                "nodes": int(sizes.size),
            })
    return rows

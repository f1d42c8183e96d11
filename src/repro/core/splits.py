"""Split rules: how each PSD variant divides a node's region among children.

The paper frames PSDs as a design space in which the only structural choice is
how a node is split:

* **data-independent** splits (quadtree): every axis is halved at its
  midpoint, producing ``2^d`` equal children; the structure is public, so no
  privacy budget is spent on it;
* **data-dependent** splits (kd-tree family): the node is split at a
  *privately chosen* median of the points it contains; every private median
  consumes part of the median budget ``eps_median``;
* **hybrid** splits: data-dependent for the first ``l`` levels below the root
  and data-independent afterwards (Section 3.2, found in Section 8.2 to be the
  most reliably accurate kd variant);
* **cell-based** splits [26]: medians are read off a fixed-resolution noisy
  grid paid for once, so individual splits are free;
* the **noisy-mean** surrogate [12] is a data-dependent split with the mean
  heuristic as its "median" method.

All rules here produce **fanout-4** children in two dimensions.  For the
kd-style rules this implements the paper's *flattening*: each level performs a
private split on the x-axis followed by private splits of the two halves on
the y-axis, which is equivalent to connecting a binary kd-tree's nodes to
their grandchildren.  The two sub-splits happen on the same root-to-leaf path,
so a level's median budget is divided between them (the second stage's two
medians act on disjoint halves and compose in parallel).

Every rule splits a whole level at once through :meth:`SplitRule.split_level`,
the only way the build pipeline divides nodes.  Routing is **exclusive**: a
point goes to the high side of a split when ``coordinate >= split``, so each
point lands in exactly one child — one node per level — which is what the
paper's parallel composition of a level's count noise assumes (Section 4).
A point on the domain's top face sits in the topmost child, never in two.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..index.grid import NoisyGrid
from ..privacy.median import MedianMethod, resolve_median_method
from ..privacy.rng import ensure_rng

__all__ = [
    "LevelSplit",
    "SplitRule",
    "QuadSplit",
    "KDSplit",
    "HybridSplit",
    "CellKDSplit",
]

#: One whole level split in a single vectorized call: ``(child_lo, child_hi,
#: child_of_point, points)`` where the bound arrays have ``n_nodes * fanout``
#: rows (children of node ``j`` at rows ``j*fanout .. (j+1)*fanout - 1``),
#: ``points`` holds the level's points, each exactly once (possibly
#: reordered; the next level receives them in this order), and
#: ``child_of_point[p]`` is the global child index of ``points[p]``.
LevelSplit = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: Upper bound on the bytes of one temporary of the cell-based split: its
#: per-rect grid arithmetic runs over blocks of nodes sized to fit.
_CELL_BLOCK_BYTES = 2 * 1024 * 1024


def _stable_argsort(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` of integer keys, as a radix sort.

    Least-significant digit first over the 16-bit digits of ``keys -
    keys.min()``: each pass is NumPy's stable sort of ``uint16``, which NumPy
    runs as a radix sort, where int64 keys would take a timsort.  Node and
    child indices need one or two passes.
    """
    keys = np.asarray(keys, dtype=np.int64)
    if keys.shape[0] == 0:
        return np.argsort(keys, kind="stable")
    low = keys.min()
    span = int(keys.max()) - int(low)
    rel = (keys - low).view(np.uint64)  # exact even where int64 wraps: span < 2**64
    order = np.argsort(rel.astype(np.uint16), kind="stable")
    for shift in range(16, span.bit_length(), 16):
        digit = (rel >> np.uint64(shift)).astype(np.uint16)
        order = order[np.argsort(digit[order], kind="stable")]
    return order


def _segment_sorted_order(values: np.ndarray, seg: np.ndarray) -> Optional[np.ndarray]:
    """The order sorting a level's points by ``(seg, values)``.

    Points arrive in whatever order the previous level's rule returned them.
    Returns ``None`` when they are already grouped by segment (``seg``
    non-decreasing) and sorted by value within each segment: the kd and
    Hilbert rules hand each level back sorted by ``(child, value)``, so after
    their first level two O(n) checks replace an O(n log n) sort.  Points in
    any other order (a data-independent rule keeps its input's) are sorted.
    """
    if values.shape[0] <= 1:
        return None
    step = np.diff(seg)
    if not np.any(step < 0) and not np.any(np.diff(values)[step == 0] < 0):
        return None
    by_value = np.argsort(values)  # stability irrelevant: equal floats are identical
    return by_value[_stable_argsort(seg[by_value])]


def _by_child(child_of_point: np.ndarray, points: np.ndarray,
              order: Optional[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Hand a level back grouped by child and sorted by value within each child.

    ``order`` sorts the level by ``(node, value)`` (``None``: it arrived
    sorted); refining it by child is a stable radix sort of the child indices,
    and it lets the next level's first median stage skip its value sort.
    """
    base = np.arange(points.shape[0], dtype=np.int64) if order is None else order
    ret = base[_stable_argsort(child_of_point[base])]
    return child_of_point[ret], points[ret]


def _level_epsilons(epsilon_median, k: int) -> np.ndarray:
    """Normalise a scalar-or-per-node median budget into a ``(k,)`` vector.

    The multi-release sweep passes one epsilon per stacked node (releases
    differ in budget); single builds pass a scalar.  The draw layout of a
    level must be uniform across its nodes, so a mixed zero/positive vector
    raises; the release planner (``_structure_draw_plan`` in
    :mod:`repro.core.builder`) refuses such a batch before anything is drawn.
    """
    eps = np.asarray(epsilon_median, dtype=float)
    if eps.ndim == 0:
        eps = np.full(k, float(eps))
    elif eps.shape != (k,):
        raise ValueError("epsilon_median must be a scalar or hold one value per node")
    positive = eps > 0
    if positive.any() and not positive.all():
        raise ValueError("a level's median budgets must be all zero or all positive")
    return eps


def _method_level_draws(method: MedianMethod, n_nodes: int, stages: int,
                        n_values: int, epsilon_median: float) -> int:
    """Uniforms a ``split_level`` with ``stages`` median stages consumes.

    ``stages * draws_per_call * n_nodes + draws_per_value * n_values``, where
    ``n_values`` is the number of values the level's stages read in all.
    Shared by :meth:`KDSplit.level_random_draws` (three stages: one x-median
    plus two y-medians per node, reading every point twice) and the Hilbert
    binary split (one stage, every point once).  Zero without median budget;
    the exact median's record draws nothing per call or per value.
    """
    if float(epsilon_median) <= 0:
        return 0
    return stages * method.draws_per_call * n_nodes + method.draws_per_value * n_values


def _draw_level(method: MedianMethod, eps: np.ndarray, per_node: np.ndarray,
                rng) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """Draw a level's uniforms in one call: ``(u, node_start)``.

    ``per_node`` is each node's draw count; node ``i``'s draws start at
    ``u[node_start[i]]``.  ``u`` is ``None`` (and nothing is drawn) for the
    exact median or a level without median budget.
    """
    node_base = np.concatenate(([0], np.cumsum(per_node))).astype(np.int64)
    if not method.draws_per_call or not np.all(eps > 0):
        return None, node_base[:-1]
    return ensure_rng(rng).random(int(node_base[-1])), node_base[:-1]


def _median_stage(method: MedianMethod, sorted_vals: np.ndarray, offsets: np.ndarray,
                  los: np.ndarray, his: np.ndarray, eps: np.ndarray, u: Optional[np.ndarray],
                  starts: np.ndarray) -> np.ndarray:
    """One private median per segment, clamped into ``[los, his]``.

    Segment ``i`` reads its uniforms from ``u[starts[i]:]`` in the layout of
    :mod:`repro.privacy.median` — one mask draw per value for sampled
    methods, then the base method's ``draws_per_call`` draws.  The exact
    median (the record that draws nothing) splits at the true median with or
    without budget; without uniforms a private method has no budget here and
    splits at the data-independent (and therefore free) midpoint.
    """
    if not method.draws_per_call:
        split = method.batch(sorted_vals, offsets, 1.0, los, his, validate=False)
    elif u is None:
        split = (los + his) / 2.0
    else:
        d = np.arange(method.draws_per_call)
        if method.draws_per_value:
            counts = np.diff(offsets)
            seg = np.repeat(np.arange(counts.shape[0], dtype=np.int64), counts)
            rank = np.arange(sorted_vals.shape[0], dtype=np.int64) - offsets[:-1][seg]
            uniforms = (u[starts[seg] + rank], u[(starts + counts)[:, None] + d[None, :]])
        else:
            uniforms = u[starts[:, None] + d[None, :]]
        split = method.batch(sorted_vals, offsets, eps, los, his, uniforms=uniforms,
                             validate=False)
    return np.minimum(np.maximum(np.asarray(split, dtype=float), los), his)


def _kd_children(lo: np.ndarray, hi: np.ndarray, split_a: np.ndarray,
                 split_b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The fanout-4 children of a two-stage kd split, in the order (lowX, lowY),
    (lowX, highY), (highX, lowY), (highX, highY); ``split_b`` holds the low
    half's y-split, then the high half's, per node."""
    k, dims = lo.shape
    child_lo = np.repeat(lo[:, None, :], 4, axis=1)
    child_hi = np.repeat(hi[:, None, :], 4, axis=1)
    child_hi[:, :2, 0] = split_a[:, None]
    child_lo[:, 2:, 0] = split_a[:, None]
    split_b = split_b.reshape(k, 2)
    child_hi[:, 0::2, 1] = split_b
    child_lo[:, 1::2, 1] = split_b
    return child_lo.reshape(4 * k, dims), child_hi.reshape(4 * k, dims)


class SplitRule(ABC):
    """Interface of a node-splitting policy."""

    #: Number of children produced per split.
    fanout: int = 4

    @abstractmethod
    def is_data_dependent(self, level: int, height: int) -> bool:
        """Whether splitting a node at ``level`` consumes median budget."""

    @abstractmethod
    def split_level(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        points: np.ndarray,
        point_node: np.ndarray,
        level: int,
        height: int,
        epsilon_median,
        rng=None,
    ) -> LevelSplit:
        """Split **every** node of a level in one vectorized call.

        ``lo`` / ``hi`` are the ``(n_nodes, d)`` bounds of the level's nodes,
        ``points`` the level's points in the order the previous level's split
        returned them (not necessarily grouped by node) and ``point_node[p]``
        the node index of point ``p``; a rule that needs another order sorts
        what it reads.  ``epsilon_median`` is the median budget of this level
        (zero for data-independent levels), a scalar or one value per node.
        Every point is routed to exactly one child (``coordinate >= split``
        goes high), and data-dependent rules draw the level's randomness
        node-major in BFS order — the stream a loop of per-node splits would
        consume.
        """

    def data_dependent_levels(self, height: int) -> List[int]:
        """Levels (of the node being split) whose splits consume median budget."""
        return [level for level in range(1, height + 1) if self.is_data_dependent(level, height)]

    def level_random_draws(
        self, level: int, height: int, n_nodes: int, n_points: int, epsilon_median: float
    ) -> int:
        """Exact ``Generator.random`` uniforms :meth:`split_level` consumes.

        ``n_nodes`` and ``n_points`` are one release's node and point counts
        at ``level``.  The multi-release builder pre-draws every release's
        uniforms in sequential (release-major) order and replays them into
        level-stacked calls, so the count must be known before the first
        draw.  Exclusive routing makes it so: every point sits in exactly one
        node per level, so even a sampled median's one uniform per value adds
        up to a count fixed by ``n_points``.  Rules that draw nothing (the
        data-independent ones) return 0.
        """
        return 0

    def median_path_delta(self, level: int, height: int) -> float:
        """The δ one root-to-leaf path spends on the medians of a split at
        ``level`` (charged only where that level has median budget); zero for
        rules without (ε, δ) medians."""
        return 0.0


@dataclass(frozen=True)
class QuadSplit(SplitRule):
    """Data-independent split into ``2^d`` equal orthants (quadtree)."""

    name: str = "quad"

    @property
    def fanout(self) -> int:  # type: ignore[override]
        return 4

    def is_data_dependent(self, level: int, height: int) -> bool:
        return False

    def split_level(self, lo, hi, points, point_node, level, height, epsilon_median,
                    rng=None):
        """Vectorized midpoint split of a whole level (no RNG, no budget).

        Child ``code`` has bit ``k`` set when it is the high half on axis
        ``k`` (the order of ``Rect.quad_children``), and a point takes bit
        ``k`` when it lies at or above the node's midpoint on axis ``k``.
        """
        dims = lo.shape[1]
        mid = (lo + hi) / 2.0
        high = ((np.arange(1 << dims)[:, None] >> np.arange(dims)) & 1).astype(bool)
        child_lo = np.where(high, mid[:, None, :], lo[:, None, :])
        child_hi = np.where(high, hi[:, None, :], mid[:, None, :])
        at_or_above = points >= mid[point_node]
        code = np.zeros(points.shape[0], dtype=np.int64)
        for axis in range(dims):
            code |= at_or_above[:, axis].astype(np.int64) << axis
        return (child_lo.reshape(-1, dims), child_hi.reshape(-1, dims),
                point_node * (1 << dims) + code, points)


@dataclass(frozen=True)
class KDSplit(SplitRule):
    """Flattened (fanout-4) kd split with a private median method.

    ``median_method`` is a label of :data:`repro.privacy.MEDIAN_METHODS`
    (``"em"``, ``"ss"``, ``"noisymean"``, ``"cell"``, ``"true"``, ``"ems"``,
    ``"sss"``); anything else is refused here.  Each level splits x first,
    then the two halves on y.
    """

    median_method: str = "em"
    name: str = "kd"

    def __post_init__(self) -> None:
        resolve_median_method(self.median_method)

    @property
    def fanout(self) -> int:  # type: ignore[override]
        return 4

    def is_data_dependent(self, level: int, height: int) -> bool:
        return True

    def level_random_draws(self, level, height, n_nodes, n_points, epsilon_median):
        # Per node: one x-median plus two y-medians, each drawing
        # ``draws_per_call`` uniforms; the x stage reads every point and the
        # two halves' y stages read them again — the layout of ``split_level``.
        return _method_level_draws(
            resolve_median_method(self.median_method), n_nodes, 3, 2 * n_points,
            epsilon_median,
        )

    def median_path_delta(self, level, height):
        # A path meets the node's x-median and one of its two y-medians.
        return 2 * resolve_median_method(self.median_method).delta

    def split_level(self, lo, hi, points, point_node, level, height, epsilon_median,
                    rng=None):
        """Split a whole level with one batched private median per stage.

        The level's entire randomness is drawn as **one** ``Generator.random``
        vector laid out node-major — per node: the x-median's draws, then the
        two y-medians' (low half first) — which is exactly the stream per-node
        splits in BFS order consume (see the draw-order contract in
        :mod:`repro.privacy.median`).  Exclusive routing keeps the layout
        static: the halves' point counts add up to the node's, so even the
        sampled methods' one-draw-per-value layout is known before any draw.
        The y-medians' budget domain is the node's y-interval (unchanged by
        the x-cut).
        """
        k, dims = lo.shape
        if dims < 2:
            raise ValueError("the kd split needs a domain of at least two dimensions")
        method = resolve_median_method(self.median_method)
        # The x-split and the y-splits lie on the same root-to-leaf path, so the
        # level's budget is halved between the two stages; the two y-medians act
        # on disjoint halves and compose in parallel, so each gets the full half.
        eps_stage = _level_epsilons(epsilon_median, k) / 2.0
        seg = np.asarray(point_node, dtype=np.int64)
        x, y = points[:, 0], points[:, 1]
        counts = np.bincount(seg, minlength=k)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        d = method.draws_per_call
        per_value = method.draws_per_value
        u, start_x = _draw_level(method, eps_stage, 2 * per_value * counts + 3 * d, rng)

        # x-medians, one per node.  The points usually arrive sorted by
        # (node, x) — this rule hands them back that way — so the sort is an
        # O(n) check after the first level.
        order_x = _segment_sorted_order(x, seg)
        split_x = _median_stage(method, x if order_x is None else x[order_x], offsets,
                                lo[:, 0], hi[:, 0], eps_stage, u, start_x)
        half = 2 * seg + (x >= split_x[seg])

        # y-medians, one per half (low, then high)
        order_y = np.argsort(y)  # equal floats are identical: no stability needed
        order_y = order_y[_stable_argsort(half[order_y])]
        counts_half = np.bincount(half, minlength=2 * k)
        start_y = np.empty(2 * k, dtype=np.int64)
        start_y[0::2] = start_x + per_value * counts + d
        start_y[1::2] = start_y[0::2] + per_value * counts_half[0::2] + d
        split_y = _median_stage(method, y[order_y],
                                np.concatenate(([0], np.cumsum(counts_half))),
                                np.repeat(lo[:, 1], 2), np.repeat(hi[:, 1], 2),
                                np.repeat(eps_stage, 2), u, start_y)

        child_lo, child_hi = _kd_children(lo, hi, split_x, split_y)
        child_of_point = 2 * half + (y >= split_y[half])
        return (child_lo, child_hi) + _by_child(child_of_point, points, order_x)


@dataclass(frozen=True)
class HybridSplit(SplitRule):
    """Data-dependent (kd) splits for the top ``kd_levels`` levels, then quadtree.

    ``kd_levels`` is the paper's switch level ``l``: nodes at levels
    ``h, h-1, ..., h-l+1`` split via private medians, all deeper nodes split at
    midpoints.  The paper finds ``l`` about half the height works best.
    """

    kd_levels: int = 4
    median_method: str = "em"
    name: str = "hybrid"

    def __post_init__(self) -> None:
        if self.kd_levels < 0:
            raise ValueError("kd_levels must be non-negative")
        resolve_median_method(self.median_method)

    @property
    def fanout(self) -> int:  # type: ignore[override]
        return 4

    def is_data_dependent(self, level: int, height: int) -> bool:
        return level > height - self.kd_levels

    def _rule(self, level: int, height: int) -> SplitRule:
        if self.is_data_dependent(level, height):
            return KDSplit(median_method=self.median_method)
        return QuadSplit()

    def level_random_draws(self, level, height, n_nodes, n_points, epsilon_median):
        return self._rule(level, height).level_random_draws(level, height, n_nodes,
                                                            n_points, epsilon_median)

    def median_path_delta(self, level, height):
        return self._rule(level, height).median_path_delta(level, height)

    def split_level(self, lo, hi, points, point_node, level, height, epsilon_median,
                    rng=None):
        """Batched kd medians above the switch level, midpoint quadtree splits
        below it."""
        return self._rule(level, height).split_level(lo, hi, points, point_node, level,
                                                     height, epsilon_median, rng=rng)


def _grid_medians(noisy: NoisyGrid, lo: np.ndarray, hi: np.ndarray, axis: int) -> np.ndarray:
    """Median coordinate along ``axis`` of the noisy grid mass in every rect.

    The cell-based kd-tree's median [26]: the grid's noisy counts, floored at
    zero, are weighted by the fraction of each cell a rect covers and summed
    into a 1-D profile along ``axis``, whose half-mass coordinate is
    interpolated and clamped into the rect.  A rect with no grid overlap or
    no mass splits at its center.

    A profile costs O(G), not O(G^2): with ``m`` the clipped mass (rows along
    ``axis``) and ``P`` its prefix sums along the other axis, row ``i`` is
    ``f[i] * ((P[i, b] - P[i, a]) + f_lo * m[i, a-1] + f_hi * m[i, b])`` —
    the whole cells ``[a, b)`` of the rect's overlap by difference, plus its
    partial edge cells at their covered fractions (an edge cell off the grid
    adds nothing; a rect inside one cell has ``b == a`` and one partial
    cell).  The splits are post-processing of the released grid, so this
    arithmetic spends no budget.  Every rect gets the same elementwise
    operations and reduction axes whichever block of rects it is computed
    in, so the result does not depend on how a level is blocked.
    """
    grid = noisy.grid
    other = 1 - axis
    # Transposed so a rect's whole-cell sums and edge cells are row gathers:
    # ``mass_t[j, i]`` is ``m[i, j]`` and ``prefix_t[j, i]`` is ``P[i, j]``.
    mass = np.clip(noisy.counts, 0.0, None)
    mass_t = np.ascontiguousarray(mass.T if axis == 0 else mass)
    n_other, n_axis = mass_t.shape
    prefix_t = np.zeros((n_other + 1, n_axis))
    np.cumsum(mass_t, axis=0, out=prefix_t[1:])
    e, e_other = grid.edges(axis), grid.edges(other)
    width, width_other = (np.where(ed[1:] - ed[:-1] > 0, ed[1:] - ed[:-1], 1.0)
                          for ed in (e, e_other))
    ov_lo = np.maximum(np.asarray(grid.domain.rect.lo, dtype=float), lo)
    ov_hi = np.minimum(np.asarray(grid.domain.rect.hi, dtype=float), hi)
    center = (lo[:, axis] + hi[:, axis]) / 2.0
    out = center.copy()
    live = np.flatnonzero(np.all(ov_lo < ov_hi, axis=1))
    block = max(1, _CELL_BLOCK_BYTES // mass_t[0].nbytes)  # bytes of one profile row

    def edge_cell(cell, rows):
        """Covered fraction of ``cell`` on the other axis (zero off the grid)
        and its clamped index."""
        on_grid = (cell >= 0) & (cell < n_other)
        cell = np.minimum(np.maximum(cell, 0), n_other - 1)
        covered = (np.minimum(e_other[cell + 1], ov_hi[rows, other])
                   - np.maximum(e_other[cell], ov_lo[rows, other]))
        return np.where(on_grid, np.clip(covered, 0.0, None) / width_other[cell], 0.0), cell

    for start in range(0, live.shape[0], block):
        rows = live[start:start + block]
        left = np.maximum(e[None, :-1], ov_lo[rows, axis, None])
        right = np.minimum(e[None, 1:], ov_hi[rows, axis, None])
        fraction = np.clip(right - left, 0.0, None) / width
        a = np.searchsorted(e_other, ov_lo[rows, other], side="left")
        b = np.maximum(a, np.searchsorted(e_other, ov_hi[rows, other], side="right") - 1)
        f_lo, cell_lo = edge_cell(a - 1, rows)
        f_hi, cell_hi = edge_cell(b, rows)
        profile = prefix_t[b] - prefix_t[a]
        profile += f_lo[:, None] * mass_t[cell_lo]
        profile += f_hi[:, None] * mass_t[cell_hi]
        profile *= fraction
        total = profile.sum(axis=1)
        cum = np.cumsum(profile, axis=1)
        half = total / 2.0
        idx = np.minimum((cum < half[:, None]).sum(axis=1), profile.shape[1] - 1)
        pick = np.arange(rows.shape[0])
        prev = np.where(idx > 0, cum[pick, np.maximum(idx - 1, 0)], 0.0)
        in_cell = profile[pick, idx]
        positive = in_cell > 0
        frac = np.where(positive, (half - prev) / np.where(positive, in_cell, 1.0), 0.5)
        frac = np.minimum(np.maximum(frac, 0.0), 1.0)
        value = e[idx] + frac * (e[idx + 1] - e[idx])
        value = np.minimum(np.maximum(value, lo[rows, axis]), hi[rows, axis])
        out[rows] = np.where(total > 0, value, center[rows])
    return out


@dataclass(frozen=True)
class CellKDSplit(SplitRule):
    """Cell-based kd split [26]: medians read off a pre-paid noisy grid.

    The grid is materialised once (its privacy cost is charged separately by
    the builder), so the splits themselves consume no additional budget and
    ``is_data_dependent`` returns ``False`` — the structure depends on the
    data only through the already-released noisy grid.
    """

    noisy_grid: NoisyGrid = None  # type: ignore[assignment]
    name: str = "kd-cell"

    def __post_init__(self) -> None:
        if self.noisy_grid is None:
            raise ValueError("CellKDSplit requires a NoisyGrid")
        if self.noisy_grid.counts.ndim != 2:
            raise ValueError("CellKDSplit requires a two-dimensional NoisyGrid")

    @property
    def fanout(self) -> int:  # type: ignore[override]
        return 4

    def is_data_dependent(self, level: int, height: int) -> bool:
        return False

    def split_level(self, lo, hi, points, point_node, level, height, epsilon_median,
                    rng=None):
        """Read all of a level's x-medians, then all its y-medians, off the grid.

        The y-medians are those of the two halves the x-cut leaves, so the
        structure depends only on node rects and the released grid; the
        points are merely routed.  No randomness is consumed.
        """
        split_x = _grid_medians(self.noisy_grid, lo, hi, axis=0)
        half_lo = np.repeat(lo, 2, axis=0)
        half_hi = np.repeat(hi, 2, axis=0)
        half_hi[0::2, 0] = split_x
        half_lo[1::2, 0] = split_x
        split_y = _grid_medians(self.noisy_grid, half_lo, half_hi, axis=1)
        child_lo, child_hi = _kd_children(lo, hi, split_x, split_y)
        seg = np.asarray(point_node, dtype=np.int64)
        half = 2 * seg + (points[:, 0] >= split_x[seg])
        return child_lo, child_hi, 2 * half + (points[:, 1] >= split_y[half]), points

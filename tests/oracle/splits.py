"""Per-node splits: the reference every production ``split_level`` must match.

Production splits a whole level per call
(:meth:`repro.core.splits.SplitRule.split_level`).  :func:`split_node` splits
one node of any production rule the readable way — scalar private-median
calls (:mod:`oracle.median`), ``Rect`` arithmetic and a per-rect grid
median — and :func:`oracle.build._grow_level_order` calls it node by node in
BFS order, so a pointer build consumes the RNG exactly as the level-batched
one does.

Points are routed geometrically: each child rect is half-open except on the
domain's upper faces (:func:`domain_aware_mask`), and a point inside several
children — on a split face closed because it lies on or near the domain's top —
goes to the last of them.  Children are listed low before high on every split
axis, so this is the production rule ``coordinate >= split`` and every point
lands in exactly one child.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.hilbert_rtree import BinaryMedianSplit
from repro.core.splits import CellKDSplit, HybridSplit, KDSplit, QuadSplit, SplitRule
from repro.geometry.domain import Domain
from repro.geometry.rect import Rect
from repro.index.grid import NoisyGrid
from repro.privacy.median import resolve_median_method
from repro.privacy.rng import RngLike, ensure_rng

from .median import per_node

__all__ = ["SplitResult", "split_node", "grid_median_along_axis", "full_weight_grid_median",
           "domain_aware_mask"]

#: One child produced by a split: its rectangle and the points routed to it.
SplitResult = Tuple[Rect, np.ndarray]


def domain_aware_mask(rect: Rect, points: np.ndarray, domain_rect: Rect) -> np.ndarray:
    """Membership mask that is half-open except on the domain's upper faces.

    Tree nodes are half-open boxes so siblings partition their parent, but a
    point lying exactly on the *domain's* upper boundary would then belong to
    no leaf.  This helper closes the upper bound on every axis where ``rect``
    touches the domain's upper face, so such boundary points are kept.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.shape[1] != rect.dims:
        raise ValueError(f"points have {pts.shape[1]} dims, rect has {rect.dims}")
    lo = np.asarray(rect.lo)
    hi = np.asarray(rect.hi)
    domain_hi = np.asarray(domain_rect.hi)
    closed = np.isclose(hi, domain_hi)
    mask = np.all(pts >= lo, axis=1)
    upper_ok = np.where(closed, pts <= hi, pts < hi)
    mask &= np.all(upper_ok, axis=1)
    return mask


def _partition(rect_list: List[Rect], points: np.ndarray, domain: Domain) -> List[SplitResult]:
    """Route every point to exactly one child: the last one whose mask holds."""
    owner = np.full(points.shape[0], -1)
    for i, child_rect in enumerate(rect_list):
        if points.size:
            owner[domain_aware_mask(child_rect, points, domain.rect)] = i
    if np.any(owner < 0):
        raise AssertionError("a point lies outside every child of its node")
    return [(child_rect, points[owner == i]) for i, child_rect in enumerate(rect_list)]


def _half_mass_coordinate(profile: np.ndarray, edges: np.ndarray, rect: Rect, axis: int) -> float:
    """Interpolated half-mass coordinate of a 1-D cell profile, clamped into
    ``rect`` (its center when the profile holds no mass)."""
    total = profile.sum()
    if total <= 0:
        return rect.center[axis]
    cum = np.cumsum(profile)
    half = total / 2.0
    idx = int(np.searchsorted(cum, half))
    idx = min(idx, profile.size - 1)
    prev = cum[idx - 1] if idx > 0 else 0.0
    in_cell = profile[idx]
    frac = 0.5 if in_cell <= 0 else (half - prev) / in_cell
    frac = min(max(frac, 0.0), 1.0)
    value = float(edges[idx] + frac * (edges[idx + 1] - edges[idx]))
    return float(min(max(value, rect.lo[axis]), rect.hi[axis]))


def _coverage(noisy: NoisyGrid, overlap: Rect, ax: int) -> np.ndarray:
    """Fraction of every cell along ``ax`` that ``overlap`` covers."""
    edges = noisy.grid.edges(ax)
    left = np.maximum(edges[:-1], overlap.lo[ax])
    right = np.minimum(edges[1:], overlap.hi[ax])
    width = edges[1:] - edges[:-1]
    return np.clip(right - left, 0.0, None) / np.where(width > 0, width, 1.0)


def grid_median_along_axis(noisy: NoisyGrid, rect: Rect, axis: int) -> float:
    """Approximate median coordinate along ``axis`` of the noisy grid mass in ``rect``.

    Used by the cell-based kd-tree [26]: the per-cell noisy counts inside
    ``rect``, floored at zero, are aggregated into a 1-D profile along
    ``axis`` (cells partially covered contribute proportionally to their
    covered area), and the half-mass coordinate is interpolated.

    The profile is read off prefix sums along the other axis, in the
    production kernel's arithmetic: with ``m`` the clipped mass (rows along
    ``axis``), ``P`` its ``np.cumsum`` along the other axis with a leading
    zero, ``[a, b)`` the whole cells of the overlap on the other axis and
    ``f`` the coverage along ``axis``, row ``i`` is
    ``f[i] * ((P[i, b] - P[i, a]) + f_lo * m[i, a-1] + f_hi * m[i, b])``,
    skipping an edge cell that lies off the grid.
    :func:`full_weight_grid_median` is the same median summed over the whole
    weighted grid.
    """
    grid = noisy.grid
    if not 0 <= axis < grid.domain.dims:
        raise ValueError("axis out of range")
    if grid.domain.dims != 2:
        raise ValueError("the prefix-sum grid median needs a two-dimensional grid")
    overlap = grid.domain.rect.intersection(rect)
    if overlap is None:
        return rect.center[axis]
    other = 1 - axis
    mass = np.clip(noisy.counts, 0.0, None)
    rows = mass if axis == 0 else mass.T
    prefix = np.zeros((rows.shape[0], rows.shape[1] + 1))
    np.cumsum(rows, axis=1, out=prefix[:, 1:])

    edges_other = grid.edges(other)
    cover_other = _coverage(noisy, overlap, other)
    a = int(np.searchsorted(edges_other, overlap.lo[other], side="left"))
    b = max(a, int(np.searchsorted(edges_other, overlap.hi[other], side="right")) - 1)
    profile = prefix[:, b] - prefix[:, a]
    if a >= 1:
        profile = profile + cover_other[a - 1] * rows[:, a - 1]
    if b < rows.shape[1]:
        profile = profile + cover_other[b] * rows[:, b]
    profile = _coverage(noisy, overlap, axis) * profile
    return _half_mass_coordinate(profile, grid.edges(axis), rect, axis)


def full_weight_grid_median(noisy: NoisyGrid, rect: Rect, axis: int) -> float:
    """The grid median of :func:`grid_median_along_axis`, summed over the whole grid.

    Every cell of the clipped grid is weighted by the product of its per-axis
    coverage fractions and the weighted grid is summed over the other axes —
    O(G^d) per rect, in any number of dimensions.  The prefix-sum form
    associates the same sum differently, so the two agree to rounding.
    """
    grid = noisy.grid
    if not 0 <= axis < grid.domain.dims:
        raise ValueError("axis out of range")
    overlap = grid.domain.rect.intersection(rect)
    if overlap is None:
        return rect.center[axis]
    weight = _coverage(noisy, overlap, 0)
    for ax in range(1, grid.domain.dims):
        weight = np.multiply.outer(weight, _coverage(noisy, overlap, ax))
    weighted = np.clip(noisy.counts, 0.0, None) * weight
    other_axes = tuple(ax for ax in range(grid.domain.dims) if ax != axis)
    profile = weighted.sum(axis=other_axes) if other_axes else weighted
    return _half_mass_coordinate(profile, grid.edges(axis), rect, axis)


def _exact(median_method: str) -> bool:
    """Whether the method is the exact median: the record that draws nothing."""
    return resolve_median_method(median_method).draws_per_call == 0


def _median(median_method: str, values: np.ndarray, epsilon: float, lo: float, hi: float,
            gen: np.random.Generator) -> float:
    """One scalar private median; with no budget left, the free midpoint."""
    if _exact(median_method):
        return per_node(median_method)(values, 1.0, lo, hi, rng=gen)
    if epsilon > 0:
        return per_node(median_method)(values, epsilon, lo, hi, rng=gen)
    return (lo + hi) / 2.0


def _kd_halves(rect: Rect, points: np.ndarray, domain: Domain, split_x,
               split_y) -> List[SplitResult]:
    """Cut x at ``split_x``, then each half on y at ``split_y(half_rect, half_points)``."""
    low_rect, high_rect = rect.split_at(0, split_x)
    children: List[SplitResult] = []
    for half_rect, half_points in _partition([low_rect, high_rect], points, domain):
        lo_rect, hi_rect = half_rect.split_at(1, split_y(half_rect, half_points))
        children.extend(_partition([lo_rect, hi_rect], half_points, domain))
    return children


def split_node(
    rule: SplitRule,
    rect: Rect,
    points: np.ndarray,
    level: int,
    height: int,
    domain: Domain,
    epsilon_median: float,
    rng: RngLike = None,
) -> List[SplitResult]:
    """Split one node at ``level`` into ``rule.fanout`` children.

    ``epsilon_median`` is the median budget available *for this level* (zero
    for data-independent levels).  The children's rectangles partition
    ``rect`` and their points partition ``points``.
    """
    gen = ensure_rng(rng)
    if isinstance(rule, HybridSplit):
        if rule.is_data_dependent(level, height):
            rule = KDSplit(median_method=rule.median_method)
        else:
            rule, epsilon_median = QuadSplit(), 0.0
    if isinstance(rule, QuadSplit):
        return _partition(list(rect.quad_children()), points, domain)
    if isinstance(rule, KDSplit):
        private = not _exact(rule.median_method)
        # The x-split and the y-splits lie on the same root-to-leaf path, so the
        # level's budget is halved between the two stages; the two y-medians act
        # on disjoint halves and compose in parallel, so each gets the full half.
        eps_stage = epsilon_median / 2.0 if private else 0.0

        def median_on(axis, node_rect, node_points):
            return _median(rule.median_method, node_points[:, axis], eps_stage,
                           node_rect.lo[axis], node_rect.hi[axis], gen)

        return _kd_halves(rect, points, domain, median_on(0, rect, points),
                          lambda half_rect, half_points: median_on(1, half_rect, half_points))
    if isinstance(rule, CellKDSplit):
        grid = rule.noisy_grid
        return _kd_halves(rect, points, domain, grid_median_along_axis(grid, rect, axis=0),
                          lambda half_rect, _: grid_median_along_axis(grid, half_rect, axis=1))
    if isinstance(rule, BinaryMedianSplit):
        split_value = _median(rule.median_method, points[:, 0], epsilon_median,
                              rect.lo[0], rect.hi[0], gen)
        return _partition(list(rect.split_at(0, split_value)), points, domain)
    raise TypeError(f"no per-node reference split for {rule!r}")

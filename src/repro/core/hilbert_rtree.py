"""Private Hilbert R-tree (Sections 3.2, 3.3 and 8.2).

The paper treats the Hilbert R-tree as a one-dimensional kd-tree in Hilbert
space: every data point is mapped to its index on a Hilbert curve of order
~18, a private binary tree is built over those indices (split points chosen by
a private median mechanism, counts released with Laplace noise under a budget
strategy), and node regions in the plane are the bounding boxes of the Hilbert
cells each node's index interval spans — a quantity that depends only on the
interval, so releasing it is free.

A release is an ordinary :class:`~repro.core.tree.PrivateSpatialDecomposition`
(and a batch an ordinary :class:`~repro.core.builder.PSDReleaseBatch`) whose
tree lives over the one-dimensional domain of Hilbert indices: budget
strategies, OLS post-processing and pruning all apply unchanged.  Each level
is split by one batched private-median call (:class:`BinaryMedianSplit`), and
every index lands in exactly one child (the right one when it is ``>=`` the
split).  The release carries the public curve and the planar domain, so its
compiled engine (:func:`repro.engine.flat.compile_psd`) holds the planar node
bounding boxes and answers planar range queries R-tree style.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..geometry.domain import Domain
from ..geometry.hilbert import HilbertCurve
from ..privacy.median import resolve_median_method
from ..privacy.rng import RngLike, ensure_rng
from .builder import BudgetSplit, PSDReleaseBatch, build_psd_releases
from .splits import (
    SplitRule,
    _by_child,
    _draw_level,
    _level_epsilons,
    _median_stage,
    _method_level_draws,
    _segment_sorted_order,
)
from .tree import PrivateSpatialDecomposition

__all__ = ["BinaryMedianSplit", "build_private_hilbert_rtree",
           "build_private_hilbert_rtree_releases", "hilbert_interval_bounds"]


@dataclass(frozen=True)
class BinaryMedianSplit(SplitRule):
    """A fanout-2 split at a private median along axis 0 (1-D kd split).

    A point goes to the right child when its Hilbert index is ``>=`` the
    split, so each point lands in exactly one child per level.
    """

    median_method: str = "em"
    name: str = "binary-kd"

    def __post_init__(self) -> None:
        resolve_median_method(self.median_method)

    @property
    def fanout(self) -> int:  # type: ignore[override]
        return 2

    def is_data_dependent(self, level: int, height: int) -> bool:
        return True

    def level_random_draws(self, level, height, n_nodes, n_points, epsilon_median):
        return _method_level_draws(
            resolve_median_method(self.median_method), n_nodes, 1, n_points, epsilon_median
        )

    def median_path_delta(self, level, height):
        # One median per node: a path meets one per level.
        return resolve_median_method(self.median_method).delta

    def split_level(self, lo, hi, points, point_node, level, height, epsilon_median,
                    rng=None):
        """One batched private median per level over the Hilbert indices.

        Same node-major draw layout as :meth:`repro.core.splits.KDSplit.split_level`
        (a single stage here), so the build consumes the RNG exactly as
        per-node splits in BFS order do.
        """
        method = resolve_median_method(self.median_method)
        k = lo.shape[0]
        eps = _level_epsilons(epsilon_median, k)
        seg = np.asarray(point_node, dtype=np.int64)
        vals = points[:, 0]
        counts = np.bincount(seg, minlength=k)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        per_node = method.draws_per_value * counts + method.draws_per_call
        u, starts = _draw_level(method, eps, per_node, rng)
        # This rule hands each level back sorted by (child, value), so after
        # the first level the sort degenerates to an O(n) check.
        order = _segment_sorted_order(vals, seg)
        split = _median_stage(method, vals if order is None else vals[order], offsets,
                              lo[:, 0], hi[:, 0], eps, u, starts)

        child_lo = np.repeat(lo, 2, axis=0)
        child_hi = np.repeat(hi, 2, axis=0)
        child_hi[0::2, 0] = split
        child_lo[1::2, 0] = split
        child_of_point = 2 * seg + (vals >= split[seg])
        return (child_lo, child_hi) + _by_child(child_of_point, points, order)


def hilbert_interval_bounds(lo_vals, hi_vals, curve: HilbertCurve):
    """Inclusive integer index intervals of node rects over Hilbert space.

    The single source of the floor/ceil-1 derivation (with clamps into the
    curve's index range) behind the planar engine's node boxes
    (:func:`repro.engine.flat.compile_psd`).
    """
    lo_idx = np.clip(np.floor(np.asarray(lo_vals, dtype=float)).astype(np.int64),
                     0, curve.max_index)
    hi_idx = np.ceil(np.asarray(hi_vals, dtype=float)).astype(np.int64) - 1
    hi_idx = np.maximum(lo_idx, np.minimum(hi_idx, curve.max_index))
    return lo_idx, hi_idx


def build_private_hilbert_rtree(
    points: np.ndarray,
    domain: Domain,
    height: int,
    epsilon: float,
    order: int = 18,
    median_method: str = "em",
    count_budget: str = "geometric",
    count_fraction: float = 0.7,
    postprocess: bool = True,
    prune_threshold: Optional[float] = None,
    rng: RngLike = None,
) -> PrivateSpatialDecomposition:
    """Build a private Hilbert R-tree.

    Parameters
    ----------
    height:
        Number of binary levels of the index tree (the tree has ``2^height``
        leaves).  To compare against a fanout-4 tree of height ``h`` use
        ``height = 2 * h`` so both have the same number of leaves.
    order:
        Hilbert curve order; the paper finds any order in 16–24 works and uses
        18.

    This is release 0 of :func:`build_private_hilbert_rtree_releases` with
    one ``epsilon``.
    """
    return build_private_hilbert_rtree_releases(
        points, domain, height, (epsilon,), order=order, median_method=median_method,
        count_budget=count_budget, count_fraction=count_fraction, postprocess=postprocess,
        prune_threshold=prune_threshold, rng=rng,
    ).release(0)


def build_private_hilbert_rtree_releases(
    points: np.ndarray,
    domain: Domain,
    height: int,
    epsilons,
    repetitions: int = 1,
    order: int = 18,
    median_method: str = "em",
    count_budget: str = "geometric",
    count_fraction: float = 0.7,
    postprocess: bool = True,
    prune_threshold: Optional[float] = None,
    rng: RngLike = None,
) -> PSDReleaseBatch:
    """Build ``len(epsilons) * repetitions`` Hilbert R-tree releases in one pass.

    The (public, deterministic) Hilbert encoding of the points is computed
    once and shared; the private index trees come from
    :func:`~repro.core.builder.build_psd_releases`, so release ``r`` is
    bitwise identical to the ``r``-th sequential
    :func:`build_private_hilbert_rtree` call with the same seeded generator.
    The curve and the planar domain are attached to the batch before it is
    pruned, so every release carries them.
    """
    if domain.dims != 2:
        raise ValueError("the private Hilbert R-tree is defined for two-dimensional data")
    gen = ensure_rng(rng)
    pts = domain.validate_points(points)
    curve = HilbertCurve(order=order, domain=domain.rect)
    values = curve.encode(pts).astype(float).reshape(-1, 1) if pts.size else np.empty((0, 1))
    hilbert_domain = Domain.from_bounds((0.0,), (float(curve.max_index) + 1.0,),
                                        name="hilbert-index")
    batch = build_psd_releases(
        points=values,
        domain=hilbert_domain,
        height=height,
        split_rule=BinaryMedianSplit(median_method=median_method),
        epsilons=epsilons,
        repetitions=repetitions,
        count_budget=count_budget,
        budget_split=BudgetSplit(count_fraction=count_fraction),
        rng=gen,
        name="hilbert-r",
        postprocess=postprocess,
    )
    batch.curve, batch.planar_domain = curve, domain
    return batch if prune_threshold is None else batch.prune(prune_threshold)

"""Figure 7: construction-time comparison and the record-matching application.

* **Figure 7(a)** compares how long it takes to build each spatial
  decomposition (kd-hybrid, kd-cell, quadtree, Hilbert-R) on the road data.
  Absolute seconds depend on the machine; the shape to reproduce is the
  ordering — data-independent structures are fastest, the hybrid kd-tree sits
  in the middle, and the cell-based kd-tree and the Hilbert R-tree are the
  slowest (grid materialisation and Hilbert encoding respectively).

* **Figure 7(b)** evaluates private record matching: the reduction ratio
  (fraction of SMC comparisons avoided) as the privacy budget varies from 0.05
  to 0.5, for the data-independent quadtree baseline, the noisy-mean kd-tree
  of [12] and the paper's EM-median kd-tree.  The expected shape: all methods
  improve with budget and ``kd-standard`` dominates the other two.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..applications.record_matching import record_matching_experiment
from ..core.hilbert_rtree import build_private_hilbert_rtree
from ..core.kdtree import build_private_kdtree
from ..core.quadtree import build_private_quadtree
from ..data.synthetic import gaussian_cluster_points
from ..geometry.domain import TIGER_DOMAIN, Domain
from ..privacy.rng import RngLike, ensure_rng
from .common import ExperimentScale, make_dataset

__all__ = ["run_fig7a", "run_fig7b", "FIG7A_METHODS", "PAPER_RECORD_MATCHING_EPSILONS"]

#: Structures timed in Figure 7(a).
FIG7A_METHODS = ("kd-hybrid", "kd-cell", "quadtree", "hilbert-r")

#: The privacy budgets swept in Figure 7(b).
PAPER_RECORD_MATCHING_EPSILONS = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5)


def run_fig7a(
    scale: ExperimentScale = ExperimentScale(),
    epsilon: float = 0.5,
    methods: Sequence[str] = FIG7A_METHODS,
    domain: Domain = TIGER_DOMAIN,
    points: Optional[np.ndarray] = None,
    hilbert_order: int = 16,
    rng: RngLike = 0,
) -> List[Dict[str, object]]:
    """Time the construction of each structure; one row per method."""
    gen = ensure_rng(rng)
    pts = make_dataset(scale, rng=gen) if points is None else domain.validate_points(points)

    rows: List[Dict[str, object]] = []
    for method in methods:
        start = time.perf_counter()
        if method == "quadtree":
            build_private_quadtree(pts, domain, height=scale.quad_height, epsilon=epsilon,
                                   variant="quad-opt", rng=gen)
        elif method == "kd-hybrid":
            build_private_kdtree(pts, domain, height=scale.kd_height, epsilon=epsilon,
                                 variant="kd-hybrid", rng=gen)
        elif method == "kd-cell":
            build_private_kdtree(pts, domain, height=scale.kd_height, epsilon=epsilon,
                                 variant="kd-cell", rng=gen)
        elif method in ("hilbert-r", "hilbert"):
            build_private_hilbert_rtree(pts, domain, height=2 * scale.kd_height, epsilon=epsilon,
                                        order=hilbert_order, rng=gen)
        else:
            raise KeyError(f"unknown Figure 7(a) method {method!r}")
        rows.append({"method": method, "build_time_sec": time.perf_counter() - start, "n_points": pts.shape[0]})
    return rows


def run_fig7b(
    n_per_party: Optional[int] = None,
    epsilons: Sequence[float] = PAPER_RECORD_MATCHING_EPSILONS,
    height: Optional[int] = None,
    matching_distance: float = 0.05,
    overlap: float = 0.5,
    domain: Domain = TIGER_DOMAIN,
    rng: RngLike = 0,
    scale: Optional[ExperimentScale] = None,
    workers: Optional[int] = None,
) -> List[Dict[str, object]]:
    """The record-matching sweep of Figure 7(b).

    Two synthetic parties are generated with partially overlapping cluster
    structure (``overlap`` controls the fraction of party B drawn from party
    A's neighbourhoods, i.e. the true matches).  Returns one row per
    (method, epsilon) with the reduction ratio and pairs completeness.

    ``scale`` supplies defaults when ``n_per_party``/``height`` are not
    given (a tenth of ``scale.n_points`` per party at ``scale.kd_height`` —
    ``--scale paper`` puts 163k records on each side); ``workers`` fans the
    candidate scoring across processes with bitwise-identical results.
    """
    if n_per_party is None:
        n_per_party = max(scale.n_points // 10, 1000) if scale is not None else 20_000
    if height is None:
        height = scale.kd_height if scale is not None else 6
    gen = ensure_rng(rng)
    holders = gaussian_cluster_points(n_per_party, domain, n_clusters=12, spread=0.03, rng=gen)

    n_overlap = int(round(n_per_party * overlap))
    near_matches = holders[gen.integers(0, holders.shape[0], n_overlap)]
    near_matches = near_matches + gen.normal(scale=matching_distance / 4.0, size=near_matches.shape)
    fresh = gaussian_cluster_points(n_per_party - n_overlap, domain, n_clusters=12, spread=0.03, rng=gen)
    seekers = domain.clip_points(np.concatenate([near_matches, fresh], axis=0))

    results = record_matching_experiment(
        holders, seekers, domain, epsilons=epsilons, height=height,
        matching_distance=matching_distance, rng=gen, workers=workers,
    )
    rows: List[Dict[str, object]] = []
    for row in results:
        rows.append(
            {
                "method": row.method,
                "epsilon": row.epsilon,
                "reduction_ratio": row.result.reduction_ratio,
                "pairs_completeness": row.result.pairs_completeness,
                "surviving_leaves": row.result.surviving_leaves,
            }
        )
    return rows

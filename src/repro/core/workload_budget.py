"""Workload-aware budget allocation (Section 4.2, "Other budget strategies").

The paper remarks that when the query workload is known a priori, one should
"analyze it to determine how frequently each node in the tree contributes to
the answers" and give more budget where it matters.  This module implements
the level-granularity version of that idea, which composes cleanly with the
rest of the framework (all nodes at a level share a parameter, so the OLS
post-processing still applies):

* :func:`measure_level_usage` compiles the canonical query decomposition of a
  representative workload over a *data-independent* structure (so no privacy
  is spent on the measurement) and returns the average number of nodes each
  level contributes, the empirical counterpart of Lemma 2's ``n_i``;
* :class:`WorkloadAwareBudget` turns those frequencies into per-level
  parameters by solving the same optimisation as Lemma 3 — minimise
  ``sum_i 2 n_i / eps_i^2`` subject to ``sum_i eps_i = eps`` — whose solution
  is ``eps_i ∝ n_i^{1/3}``.  With the worst-case ``n_i = 8·2^{h-i}`` this
  degenerates to exactly the geometric allocation, so the strategy is a strict
  generalisation of Lemma 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from ..geometry.domain import Domain
from ..geometry.rect import Rect
from .budget import BudgetStrategy
from .builder import build_psd
from .query import level_touch_counts
from .splits import QuadSplit
from .tree import PrivateSpatialDecomposition

__all__ = ["measure_level_usage", "WorkloadAwareBudget", "workload_aware_quadtree_budget"]


def measure_level_usage(
    psd: PrivateSpatialDecomposition,
    queries: Iterable[Rect],
) -> Dict[int, float]:
    """Average number of nodes per level used to answer the given queries.

    The structure passed in should be data independent (e.g. a quadtree over
    the public domain) so that measuring the workload costs no privacy; the
    counts it carries are irrelevant — only the decomposition geometry is used.
    """
    counts = level_touch_counts(psd, queries)
    n_queries = counts.shape[0]
    if n_queries == 0:
        raise ValueError("cannot measure level usage from an empty workload")
    totals = counts.sum(axis=0).tolist()
    return {level: float(total) / n_queries for level, total in enumerate(totals)}


@dataclass(frozen=True)
class WorkloadAwareBudget(BudgetStrategy):
    """Per-level budgets proportional to ``usage^{1/3}`` for a measured workload.

    Parameters
    ----------
    level_usage:
        Mapping from level to the (average) number of nodes that level
        contributes to a workload query, as returned by
        :func:`measure_level_usage`.  Levels absent from the mapping (or with
        zero usage) still receive a small floor share so that the released
        tree remains usable for out-of-workload queries and the OLS estimator
        stays well defined.
    floor_fraction:
        Fraction of the per-level uniform share guaranteed to every level.
    """

    level_usage: Tuple[Tuple[int, float], ...] = ()
    floor_fraction: float = 0.05
    name: str = "workload-aware"

    def __post_init__(self) -> None:
        if not 0 <= self.floor_fraction < 1:
            raise ValueError("floor_fraction must lie in [0, 1)")
        usage = tuple(sorted((int(level), float(count)) for level, count in dict(self.level_usage).items()))
        if any(count < 0 for _, count in usage):
            raise ValueError("level usage counts must be non-negative")
        object.__setattr__(self, "level_usage", usage)

    @staticmethod
    def from_workload(psd: PrivateSpatialDecomposition, queries: Iterable[Rect],
                      floor_fraction: float = 0.05) -> "WorkloadAwareBudget":
        """Measure a workload over ``psd`` and build the corresponding strategy."""
        usage = measure_level_usage(psd, queries)
        return WorkloadAwareBudget(level_usage=tuple(usage.items()), floor_fraction=floor_fraction)

    def allocate(self, height: int, epsilon: float) -> Tuple[float, ...]:
        if height < 0:
            raise ValueError("height must be non-negative")
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        usage = dict(self.level_usage)
        weights = np.array([max(usage.get(level, 0.0), 0.0) ** (1.0 / 3.0) for level in range(height + 1)])
        if weights.sum() <= 0:
            weights = np.ones(height + 1)
        # Guarantee a floor so unused levels (for this workload) are still released.
        floor = self.floor_fraction / (height + 1)
        shares = (1.0 - self.floor_fraction) * weights / weights.sum() + floor
        shares = shares / shares.sum()
        return tuple(float(epsilon * s) for s in shares)


def workload_aware_quadtree_budget(
    domain: Domain,
    height: int,
    queries: Sequence[Rect],
    floor_fraction: float = 0.05,
) -> WorkloadAwareBudget:
    """Convenience: measure a workload over an empty quadtree of the public domain.

    Building the measurement structure over an *empty* dataset makes explicit
    that no private data is touched: the decomposition of a data-independent
    quadtree depends only on the domain, and the workload is assumed public.
    """
    skeleton = build_psd(
        np.empty((0, domain.dims)), domain, height, QuadSplit(),
        epsilon=1.0, count_budget="uniform", noiseless_counts=True, rng=0,
    )
    return WorkloadAwareBudget.from_workload(skeleton, queries, floor_fraction=floor_fraction)

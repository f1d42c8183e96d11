"""Comparing budget strategies analytically and empirically.

The paper argues (Section 4.2) that the geometric allocation dominates the
uniform one under the worst-case Lemma 2 bound, and verifies empirically that
the advantage persists for realistic workloads.  This module provides the
bridging utilities: evaluating Equation (1) for an arbitrary allocation
against either the analytic worst case or the per-level touch counts measured
on a concrete tree and workload, and a small grid-search helper used by the
ablation benchmark to confirm that ``2^{1/3}`` is (near-)optimal among
geometric ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

import numpy as np

from ..core.budget import BudgetStrategy, GeometricBudget, resolve_budget
from ..core.query import level_touch_counts
from ..core.tree import PrivateSpatialDecomposition
from ..geometry.rect import Rect
from .variance import quadtree_level_bound, query_error_bound

__all__ = [
    "worst_case_error_for_strategy",
    "empirical_error_for_strategy",
    "best_geometric_ratio",
    "StrategyComparison",
    "compare_strategies",
]


def worst_case_error_for_strategy(
    strategy: "str | BudgetStrategy",
    height: int,
    epsilon: float,
    fanout: int = 4,
) -> float:
    """Equation (1) evaluated at the Lemma 2(i) worst-case touch counts.

    Levels with a zero budget release no counts, so the nodes a query would
    have used there must be replaced by their descendants at the next budgeted
    level; the touch counts migrate downwards multiplied by the fanout per
    skipped level (this is how the leaf-only strategy of [12] is priced).
    """
    eps = resolve_budget(strategy).validate(height, epsilon)
    if eps[0] <= 0:
        raise ValueError("the leaf level must receive a positive budget")
    total = 0.0
    pending = 0.0
    for level in range(height, -1, -1):
        if level < height:
            pending *= fanout
        n_i = quadtree_level_bound(height, level)
        if eps[level] > 0:
            total += 2.0 * (n_i + pending) / (eps[level] ** 2)
            pending = 0.0
        else:
            pending += n_i
    return total


def empirical_error_for_strategy(
    psd: PrivateSpatialDecomposition,
    queries: Iterable[Rect],
    strategy: "str | BudgetStrategy",
    epsilon: float,
) -> float:
    """Average Equation-(1) variance over a workload, for a hypothetical allocation.

    The tree's structure (and hence which nodes each query touches) is reused;
    only the per-level noise parameters are swapped, which is exactly the
    comparison in Section 4.2.
    """
    eps = resolve_budget(strategy).validate(psd.height, epsilon)
    counts = level_touch_counts(psd, queries)
    errors = [query_error_bound(dict(enumerate(row)), eps) for row in counts.tolist()]
    return float(np.mean(errors)) if errors else float("nan")


def best_geometric_ratio(
    height: int,
    epsilon: float,
    ratios: Sequence[float] = tuple(np.linspace(1.05, 2.0, 39)),
) -> Dict[str, float]:
    """Grid-search the geometric ratio minimising the worst-case bound.

    Lemma 3 proves the optimum is ``2^{1/3} ~ 1.26``; the ablation benchmark
    verifies that the grid search lands there (up to grid resolution).
    """
    best_ratio, best_error = None, np.inf
    for ratio in ratios:
        error = worst_case_error_for_strategy(GeometricBudget(ratio=float(ratio)), height, epsilon)
        if error < best_error:
            best_ratio, best_error = float(ratio), float(error)
    return {"ratio": best_ratio, "error": best_error, "lemma3_ratio": 2.0 ** (1.0 / 3.0)}


@dataclass(frozen=True)
class StrategyComparison:
    """One row of the strategy-comparison table."""

    strategy: str
    height: int
    epsilon: float
    worst_case_error: float


def compare_strategies(
    height: int,
    epsilon: float,
    strategies: Sequence[str] = ("uniform", "geometric", "leaf-only"),
) -> List[StrategyComparison]:
    """Worst-case Equation-(1) errors for several strategies at one (h, eps)."""
    rows = []
    for name in strategies:
        rows.append(
            StrategyComparison(
                strategy=name,
                height=height,
                epsilon=epsilon,
                worst_case_error=worst_case_error_for_strategy(name, height, epsilon),
            )
        )
    return rows

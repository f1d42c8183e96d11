"""Canonical range-query processing over a PSD (Section 4.1).

A range query ``Q`` is answered by the canonical decomposition: starting from
the root, a node fully contained in ``Q`` contributes its released count and
the descent stops; a node merely intersecting ``Q`` is descended into; a
*leaf* that intersects but is not contained contributes a fraction of its
count proportional to the overlapped area (the uniformity assumption).

Nodes whose level released no count (``eps_i = 0``, e.g. the internal levels
of a leaf-only budget) cannot contribute directly even when fully contained;
the descent simply continues to their children, which is exactly the paper's
observation that "queries then use counts from descendant nodes instead".

The same traversal also yields ``n(Q)`` (the number of counts summed, bounded
by Lemma 2), its per-level breakdown ``n_i`` and the analytic query variance
``Err(Q)`` of Equation (1).

Every function here answers from the PSD's compiled flat engine
(:mod:`repro.engine`): the tree is compiled once into a frozen
structure-of-arrays form, memoised on the PSD and dropped automatically when
post-processing or pruning changes the counts, and queries run through the
vectorized level-synchronous evaluator.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..geometry.rect import Rect
from .tree import PrivateSpatialDecomposition

__all__ = [
    "range_query",
    "nodes_touched",
    "nodes_touched_per_level",
    "level_touch_counts",
    "query_variance",
]


def range_query(psd: PrivateSpatialDecomposition, query: Rect, use_uniformity: bool = True) -> float:
    """Estimated number of points of the private dataset falling inside ``query``."""
    return psd.range_query(query, use_uniformity=use_uniformity)


def nodes_touched(psd: PrivateSpatialDecomposition, query: Rect) -> int:
    """``n(Q)``: how many released counts are summed to answer ``query``."""
    return psd.nodes_touched(query)


def level_touch_counts(psd: PrivateSpatialDecomposition, queries: Iterable[Rect]) -> np.ndarray:
    """``(Q, height + 1)`` matrix of ``n_i``: row ``q`` counts, per level, the
    nodes the canonical decomposition of query ``q`` touches.

    One query matrix is compiled for the whole workload; its node indices are
    binned by (query, level).
    """
    from ..engine.batch import compile_query_matrix

    engine = psd.compile()
    matrix = compile_query_matrix(engine, list(queries))
    n_levels = psd.height + 1
    rows = np.repeat(np.arange(matrix.n_queries, dtype=np.int64), matrix.nodes_touched())
    cells = rows * n_levels + engine.level[matrix.indices].astype(np.int64)
    return np.bincount(cells, minlength=matrix.n_queries * n_levels).reshape(-1, n_levels)


def nodes_touched_per_level(psd: PrivateSpatialDecomposition, query: Rect) -> dict:
    """``n_i``: the per-level breakdown of touched nodes (Lemma 2's quantity).

    Only levels that contribute at least one node appear in the result.
    """
    row = level_touch_counts(psd, [query])[0]
    return {level: int(count) for level, count in enumerate(row) if count}


def query_variance(psd: PrivateSpatialDecomposition, query: Rect) -> float:
    """The analytic error measure ``Err(Q) = sum over touched nodes of Var``.

    Partial leaves contribute ``fraction^2 * Var`` since their count is scaled
    by the overlap fraction.  Post-processed counts are correlated, so this
    measure is exact only for raw noisy counts; it is the quantity analysed in
    Section 4 and used for the budget-strategy comparison.
    """
    return psd.query_variance(query)

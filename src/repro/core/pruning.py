"""Pruning of low-count subtrees (Section 7).

Both data-dependent and data-independent trees can contain nodes with few or
no points; keeping their descendants only adds noise to queries that cross the
region.  The paper prunes the released tree by removing the descendants of any
node whose *noisy* (or post-processed) count falls below a threshold ``m`` —
crucially the decision uses only released values, so pruning is
post-processing and costs no privacy.  The paper applies it after the OLS
step, over a complete tree, and uses ``m = 32`` in the kd-tree experiments.
"""

from __future__ import annotations

from .flatbuild import prune_flat
from .tree import PrivateSpatialDecomposition

__all__ = ["prune_low_count_subtrees", "count_pruned_nodes"]


def prune_low_count_subtrees(psd: PrivateSpatialDecomposition, threshold: float) -> int:
    """Remove the descendants of every node whose released count is below ``threshold``.

    Returns the number of nodes removed.  The traversal is top-down: once a
    node is cut to a leaf its former descendants are never examined, matching
    the paper's "cut off the tree at this point".  Nodes that never released a
    count (zero budget at their level) are never used as cut points.  Runs as
    a per-level mask plus one array compaction
    (:func:`repro.core.flatbuild.prune_flat`).
    """
    from ..engine.flat import invalidate_compiled_engine

    if not threshold >= 0:  # refuses nan, which every comparison would let through
        raise ValueError(f"threshold must be a non-negative number, got {threshold!r}")
    # The tree structure is about to change: any memoised flat engine is stale.
    invalidate_compiled_engine(psd)
    return prune_flat(psd.flat_tree, threshold)


def count_pruned_nodes(psd: PrivateSpatialDecomposition) -> int:
    """Number of nodes missing relative to a complete tree of the same height.

    Useful for reporting how aggressive a pruning threshold was.
    """
    complete = sum(psd.fanout ** (psd.height - level) for level in range(psd.height, -1, -1))
    return complete - psd.node_count()

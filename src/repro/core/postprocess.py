"""OLS post-processing of noisy counts (Section 5, Lemma 4, Theorem 5).

After a PSD's counts have been released, the counts of ancestors and
descendants over-constrain each other: the root's noisy count and the sum of
the leaves' noisy counts both estimate the same quantity.  The ordinary
least-squares (OLS) estimator resolves these redundancies optimally: it is the
unique set of *consistent* counts (every internal count equals the sum of its
children) minimising the weighted squared distance
``sum_v eps_{h(v)}^2 (Y_v - beta_v)^2`` to the released counts, and among all
unbiased linear estimators it has minimum variance for every range query.

Computing the OLS naively means solving an ``n x n`` linear system.  The paper
exploits the tree structure to do it in linear time with three traversals
(Theorem 5), generalised (as in the paper) to any per-level noise parameters
``eps_i`` — covering uniform, geometric and level-skipping budgets alike.
:func:`apply_ols` runs the three traversals as three vectorized per-level
sweeps over the BFS arrays (:func:`repro.core.flatbuild.ols_beta`), bit for
bit equal to the recursive algorithm.

Because the input is only the already-released noisy counts, post-processing
never affects the privacy guarantee.
"""

from __future__ import annotations

import numpy as np

from .flatbuild import apply_ols_flat
from .tree import PrivateSpatialDecomposition

__all__ = ["apply_ols", "check_consistency"]


def apply_ols(psd: PrivateSpatialDecomposition) -> PrivateSpatialDecomposition:
    """Compute the OLS counts for every node and store them as the post counts.

    Requires a complete tree (every internal node has exactly ``fanout``
    children and all leaves are at level 0) and a strictly positive leaf count
    parameter ``eps_0`` (otherwise the estimator is under-determined).
    """
    from ..engine.flat import invalidate_compiled_engine

    # The released counts are about to change: any memoised flat engine is stale.
    invalidate_compiled_engine(psd)
    apply_ols_flat(psd.flat_tree, psd.count_epsilons)
    return psd


def check_consistency(psd: PrivateSpatialDecomposition) -> float:
    """Maximum absolute violation of ``beta_v = sum of children's beta``.

    The OLS estimator is consistent by construction; this helper quantifies the
    numerical violation of that identity over the whole tree (and is asserted
    to be tiny in the tests).  Raises if post-processing has not been applied.
    """
    tree = psd.flat_tree
    internal = ~tree.is_leaf
    if not internal.any():
        return 0.0
    if tree.post_count is None:
        raise ValueError("call apply_ols (or psd.postprocess()) before checking consistency")
    # BFS child ranges of the internal nodes partition nodes 1..n-1 in order,
    # so one segmented sum yields every internal node's child total.
    child_sums = np.add.reduceat(tree.post_count[1:], tree.child_start[internal] - 1)
    return float(np.max(np.abs(tree.post_count[internal] - child_sums)))

"""The per-node pointer build pipeline: structure, noise, OLS and pruning.

These are the seed-era reference implementations the flat-native pipeline of
:mod:`repro.core.flatbuild` replaced.  They consume the RNG in the same
canonical order (nodes in BFS order within each level, levels root-down for
structure and for noise), so for one seed a pointer build and a production
build are **bit-for-bit identical** — structure, counts, OLS estimates,
pruning decisions and the final generator state.  The parity suites and the
build benchmark hold the vectorized code to exactly that.

:func:`pointer_builds` routes the production variant constructors
(``build_private_quadtree`` / ``kdtree`` / ``hilbert_rtree`` and their
``_releases`` twins) through :func:`build_psd` and :func:`build_psd_releases`
here, so their variant resolution is shared rather than copied.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional

import numpy as np

import repro.core.hilbert_rtree as _hilbert_rtree
import repro.core.kdtree as _kdtree
import repro.core.quadtree as _quadtree
from repro.core.budget import BudgetStrategy, resolve_budget
from repro.core.builder import BudgetSplit
from repro.core.flatbuild import ols_beta
from repro.core.splits import SplitRule
from repro.geometry.domain import Domain
from repro.privacy.accountant import PrivacyAccountant
from repro.privacy.mechanisms import laplace_noise
from repro.privacy.rng import RngLike, ensure_rng

from .splits import split_node
from .tree import PointerPSD, PSDNode, bfs_order, flatten_tree

__all__ = [
    "build_psd",
    "build_psd_releases",
    "PointerReleases",
    "populate_noisy_counts",
    "apply_ols",
    "ols_estimate_tree",
    "check_consistency",
    "prune_low_count_subtrees",
    "pointer_builds",
    "build_private_quadtree",
    "build_private_kdtree",
    "build_private_hilbert_rtree",
]


def build_psd(
    points: np.ndarray,
    domain: Domain,
    height: int,
    split_rule: SplitRule,
    epsilon: float,
    count_budget: "str | BudgetStrategy" = "geometric",
    budget_split: Optional[BudgetSplit] = None,
    rng: RngLike = None,
    name: str = "psd",
    postprocess: bool = False,
    prune_threshold: Optional[float] = None,
    noiseless_counts: bool = False,
    structure_epsilon_charged: float = 0.0,
) -> PointerPSD:
    """:func:`repro.core.builder.build_psd`, grown as a pointer tree."""
    if height < 0:
        raise ValueError("height must be non-negative")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    gen = ensure_rng(rng)
    pts = domain.validate_points(points)

    dd_levels = split_rule.data_dependent_levels(height)
    split = budget_split or BudgetSplit()
    eps_count_total, eps_median_total = split.partition(epsilon, data_dependent=bool(dd_levels))
    eps_median_per_level = eps_median_total / len(dd_levels) if dd_levels else 0.0

    strategy = resolve_budget(count_budget)
    count_epsilons = strategy.validate(height, eps_count_total)

    ledger = PrivacyAccountant(total_budget=epsilon + structure_epsilon_charged)
    if structure_epsilon_charged > 0:
        ledger.charge(structure_epsilon_charged, level=height, kind="structure")
    for level in dd_levels:
        ledger.charge(eps_median_per_level, level=level, kind="median")

    metadata = {
        "split_rule": getattr(split_rule, "name", type(split_rule).__name__),
        "count_budget": getattr(strategy, "name", type(strategy).__name__),
        "epsilon": epsilon,
        "epsilon_count": eps_count_total,
        "epsilon_median": eps_median_total,
        "structure_epsilon": structure_epsilon_charged,
    }
    psd = PointerPSD(
        root=_grow_level_order(pts, domain, height, split_rule, eps_median_per_level, gen),
        domain=domain,
        height=height,
        fanout=split_rule.fanout,
        count_epsilons=count_epsilons,
        accountant=ledger,
        name=name,
        metadata=metadata,
    )

    populate_noisy_counts(psd, rng=gen, noiseless=noiseless_counts)
    for level, eps in enumerate(count_epsilons):
        if eps > 0:
            ledger.charge(eps, level=level, kind="count")
    ledger.assert_within_budget()

    if postprocess:
        apply_ols(psd)
    if prune_threshold is not None:
        prune_low_count_subtrees(psd, prune_threshold)
    return psd


class PointerReleases:
    """The pointer trees of a sequential build loop, indexed like a release
    batch: a Hilbert curve set on it rides along with every release, and
    :meth:`prune` prunes each tree."""

    def __init__(self, psds: List[PointerPSD]) -> None:
        self.psds = psds
        self.curve = self.planar_domain = None

    @property
    def n_releases(self) -> int:
        return len(self.psds)

    def release(self, r: int) -> PointerPSD:
        psd = self.psds[r]
        psd.curve, psd.planar_domain = self.curve, self.planar_domain
        return psd

    def prune(self, threshold: float) -> "PointerReleases":
        for psd in self.psds:
            prune_low_count_subtrees(psd, threshold)
        return self


def build_psd_releases(
    points: np.ndarray,
    domain: Domain,
    height: int,
    split_rule: SplitRule,
    epsilons,
    repetitions: int = 1,
    rng: RngLike = None,
    structure=None,
    **kwargs,
) -> PointerReleases:
    """The sequential loop :func:`repro.core.builder.build_psd_releases` is
    held to: one pointer :func:`build_psd` per ``(epsilon, repetition)``, in
    that order, on one generator.  A prebuilt ``structure`` is the geometry a
    fresh build computes, so it is ignored."""
    gen = ensure_rng(rng)
    return PointerReleases([
        build_psd(points, domain, height, split_rule, epsilon=float(e), rng=gen, **kwargs)
        for e in epsilons
        for _ in range(repetitions)
    ])


def _grow_level_order(
    pts: np.ndarray,
    domain: Domain,
    height: int,
    split_rule: SplitRule,
    eps_median_per_level: float,
    gen: np.random.Generator,
) -> PSDNode:
    """Grow the pointer reference tree level by level (BFS node order).

    Every node is split on its own by :func:`oracle.splits.split_node`, in
    BFS order, so data-dependent rules consume the RNG in exactly the same
    order as the level-batched production build, keeping the two bit-for-bit
    interchangeable for a fixed seed.
    """
    root = PSDNode(rect=domain.rect, level=height, _true_count=int(pts.shape[0]))
    frontier = [(root, pts)]
    for level in range(height, 0, -1):
        eps_med = eps_median_per_level if split_rule.is_data_dependent(level, height) else 0.0
        next_frontier = []
        for node, node_points in frontier:
            children = split_node(split_rule, node.rect, node_points, level, height, domain,
                                  eps_med, rng=gen)
            if len(children) != split_rule.fanout:
                raise RuntimeError(
                    f"split rule {split_rule!r} produced {len(children)} children, "
                    f"expected {split_rule.fanout}"
                )
            for child_rect, child_points in children:
                child = PSDNode(rect=child_rect, level=level - 1,
                                _true_count=int(child_points.shape[0]))
                node.children.append(child)
                next_frontier.append((child, child_points))
        frontier = next_frontier
    return root


def populate_noisy_counts(psd: PointerPSD, rng: RngLike = None,
                          noiseless: bool = False) -> PointerPSD:
    """(Re)populate every node's released count, one scalar draw per node.

    Noise is drawn in canonical level order (root level first, nodes in BFS
    order within a level).
    """
    gen = ensure_rng(rng)
    for node in bfs_order(psd.root):
        eps = psd.count_epsilons[node.level]
        if noiseless:
            node.noisy_count = float(node._true_count)
        elif eps > 0:
            node.noisy_count = float(node._true_count) + float(laplace_noise(1.0 / eps, rng=gen))
        else:
            node.noisy_count = float("nan")
        node.post_count = None
    return psd


# ----------------------------------------------------------------------
# OLS post-processing (Section 5, Theorem 5): the recursive traversals
# ----------------------------------------------------------------------
def apply_ols(psd: PointerPSD) -> PointerPSD:
    """Compute the OLS counts for every node and store them in ``post_count``.

    Requires a complete tree and a strictly positive leaf count parameter.
    """
    if not psd.is_complete():
        raise ValueError("OLS post-processing requires a complete tree; apply it before pruning")
    eps = np.asarray(psd.count_epsilons, dtype=float)
    weights = eps * eps
    if weights[0] <= 0:
        raise ValueError("OLS post-processing requires a positive leaf budget (eps_0 > 0)")

    f = float(psd.fanout)
    h = psd.height

    # Pre-compute E_l = sum_{j<=l} f^j * eps_j^2 (the array E of the paper).
    powers = f ** np.arange(h + 1)
    e_array = np.cumsum(powers * weights)

    # Phase I (top-down): alpha_u = alpha_parent + eps_{h(u)}^2 * Y_u, Z_leaf = alpha_leaf.
    # Phase II (bottom-up): Z_v = sum of children's Z.
    # Both phases are fused into one post-order recursion that threads alpha down
    # and returns Z up; Y is taken as 0 where no count was released (weight 0).
    z_values: Dict[int, float] = {}

    def down_up(node: PSDNode, alpha_parent: float) -> float:
        y = node.noisy_count
        w = weights[node.level]
        contribution = w * (0.0 if (w == 0 or not np.isfinite(y)) else y)
        alpha = alpha_parent + contribution
        if node.is_leaf:
            z = alpha
        else:
            z = 0.0
            for child in node.children:
                z += down_up(child, alpha)
        z_values[id(node)] = z
        return z

    down_up(psd.root, 0.0)

    # Phase III (top-down): beta_root = Z_root / E_h; for other nodes
    # F_v = F_parent + beta_parent * eps_{h(v)+1}^2 and
    # beta_v = (Z_v - f^{h(v)} * F_v) / E_{h(v)}.
    def assign(node: PSDNode, f_value: float) -> None:
        level = node.level
        beta = (z_values[id(node)] - (f ** level) * f_value) / e_array[level]
        node.post_count = float(beta)
        if node.is_leaf:
            return
        child_f = f_value + beta * weights[level]
        for child in node.children:
            assign(child, child_f)

    assign(psd.root, 0.0)
    return psd


def ols_estimate_tree(psd: PointerPSD) -> Dict[int, float]:
    """The vectorized OLS estimates keyed by ``id(node)``, without mutating counts.

    Flattens the pointer tree and runs :func:`repro.core.flatbuild.ols_beta`
    (the production sweeps) over the arrays, so the result can be compared
    node for node with the recursive :func:`apply_ols`.
    """
    if not psd.is_complete():
        raise ValueError("OLS post-processing requires a complete tree; apply it before pruning")
    order, arrays = flatten_tree(psd)
    beta = ols_beta(arrays.level, arrays.parent, arrays.noisy_count,
                    psd.count_epsilons, psd.fanout, psd.height)
    return {id(node): float(b) for node, b in zip(order, beta)}


def check_consistency(psd: PointerPSD) -> float:
    """Maximum absolute violation of ``beta_v = sum of children's beta``."""
    worst = 0.0
    for node in psd.nodes():
        if node.is_leaf:
            continue
        if node.post_count is None or any(c.post_count is None for c in node.children):
            raise ValueError("call apply_ols (or psd.postprocess()) before checking consistency")
        child_sum = sum(c.post_count for c in node.children)
        worst = max(worst, abs(node.post_count - child_sum))
    return worst


# ----------------------------------------------------------------------
# Pruning (Section 7): the top-down traversal
# ----------------------------------------------------------------------
def prune_low_count_subtrees(psd: PointerPSD, threshold: float) -> int:
    """Remove the descendants of every node whose released count is below ``threshold``.

    Returns the number of nodes removed.  Once a node is cut to a leaf its
    former descendants are never examined; nodes that never released a count
    are never used as cut points.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    removed = 0
    stack = [psd.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            continue
        count = node.released_count
        has_count = count == count  # not NaN
        if has_count and count < threshold:
            removed += sum(child.subtree_size() for child in node.children)
            node.children = []
            continue
        stack.extend(node.children)
    return removed


# ----------------------------------------------------------------------
# The paper's variants, built as pointer trees
# ----------------------------------------------------------------------
@contextmanager
def pointer_builds():
    """Route the production variant constructors through the pointer builders.

    Inside the block ``build_private_quadtree`` / ``build_private_kdtree``
    (including the cell-based variant) / ``build_private_hilbert_rtree`` and
    their ``_releases`` twins return pointer-backed trees: every
    ``build_psd`` / ``build_psd_releases`` name those modules call is
    replaced by the one here, the latter being the sequential loop of
    pointer builds.  Their configuration logic is the production code's own.
    """
    pointer = {"build_psd": build_psd, "build_psd_releases": build_psd_releases}
    patched = [(module, name) for module in (_quadtree, _kdtree, _hilbert_rtree)
               for name in pointer if hasattr(module, name)]
    saved = [getattr(module, name) for module, name in patched]
    for module, name in patched:
        setattr(module, name, pointer[name])
    try:
        yield
    finally:
        for (module, name), original in zip(patched, saved):
            setattr(module, name, original)


def build_private_quadtree(*args, **kwargs) -> PointerPSD:
    with pointer_builds():
        return _quadtree.build_private_quadtree(*args, **kwargs)


def build_private_kdtree(*args, **kwargs) -> PointerPSD:
    with pointer_builds():
        return _kdtree.build_private_kdtree(*args, **kwargs)


def build_private_hilbert_rtree(*args, **kwargs) -> PointerPSD:
    """A Hilbert R-tree as a :class:`PointerPSD` carrying its curve; query it
    with :mod:`oracle.query`."""
    with pointer_builds():
        return _hilbert_rtree.build_private_hilbert_rtree(*args, **kwargs)

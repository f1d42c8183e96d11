"""Flat-native PSD construction: level-vectorized build, OLS and pruning.

Every PSD lives in one representation: the breadth-first structure-of-arrays
:class:`FlatTree`, constructed directly one level at a time:

* structure: every level's children are produced in one call to
  :meth:`~repro.core.splits.SplitRule.split_level`, the only way a node is
  split.  Data-independent rules (quadtree) partition *all* points of the
  level with array comparisons; data-dependent rules (kd, hybrid, the
  Hilbert binary split) call the **ragged-batch private medians** of
  :mod:`repro.privacy.median` once per stage, whose node-major draw layout
  consumes the RNG stream in exactly the order of per-node splits in BFS
  order; the cell-based kd split reads its medians off the noisy grid for
  blocks of nodes at once.  Every point lands in exactly one child (one node
  per level), and one level loop serves a single build and a stacked
  multi-release sweep alike.  The loop passes each level's points and child
  indices on to the next level in the order the split returned them: the kd
  and Hilbert rules hand them back grouped by child and sorted by value, the
  quadtree and cell-based rules never read the order;
* noise: each release's Laplace draws happen as **one batched
  standard-Laplace vector**, scaled per level afterwards — bitwise identical
  to per-node scalar draws at that scale from the same generator, since NumPy
  fills an array by repeating the scalar sampler and applies the scale as
  one multiplication;
* OLS post-processing: the paper's three traversals (Theorem 5) become three
  vectorized per-level sweeps over the BFS arrays;
* pruning: a top-down per-level mask followed by one array compaction.

Each transform is bit-for-bit equal to the per-node pointer implementation
kept as the executable specification in ``tests/oracle``, which the parity
suites assert for the same seeded generator.

:class:`FlatTree` is the mutable build-side representation (true counts and
all); the read-only, release-grade :class:`repro.engine.flat.FlatPSD` is
derived from it by a cheap array snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..geometry.domain import Domain
from ..obs import counter_add, trace_span
from ..privacy.rng import RngLike, ensure_rng
from .splits import SplitRule

__all__ = [
    "FlatTree",
    "FlatTreeBatch",
    "build_flat_structure",
    "build_flat_structures_stacked",
    "populate_noisy_counts_releases",
    "apply_ols_flat",
    "apply_ols_releases",
    "prune_flat",
    "ols_beta",
]


@dataclass
class FlatTree:
    """A PSD in breadth-first structure-of-arrays form (the *native* layout).

    Node 0 is the root; every node's children occupy the contiguous index
    range ``[child_start[i], child_end[i])`` (equal bounds for leaves), and
    ``level`` is non-increasing along the array — each level is a contiguous
    slice.  Unlike the frozen query engine, these arrays are *mutable*: the
    build pipeline (noise population, OLS, pruning) transforms them in place.

    Attributes
    ----------
    lo, hi:
        ``(n_nodes, dims)`` node rectangle bounds.
    level:
        ``(n_nodes,)`` node levels (root ``height``, leaves 0).
    parent:
        ``(n_nodes,)`` parent indices (-1 for the root).
    child_start, child_end:
        ``(n_nodes,)`` BFS child offset ranges.
    true_count:
        ``(n_nodes,)`` exact point counts (private; never released).
    noisy_count:
        ``(n_nodes,)`` released Laplace-noised counts (``nan`` = unreleased).
    post_count:
        ``(n_nodes,)`` OLS-post-processed counts, or ``None`` before
        post-processing.
    """

    lo: np.ndarray
    hi: np.ndarray
    level: np.ndarray
    parent: np.ndarray
    child_start: np.ndarray
    child_end: np.ndarray
    true_count: np.ndarray
    noisy_count: np.ndarray
    post_count: Optional[np.ndarray]
    height: int
    fanout: int

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return int(self.level.shape[0])

    @property
    def dims(self) -> int:
        return int(self.lo.shape[1])

    @property
    def is_leaf(self) -> np.ndarray:
        return self.child_end == self.child_start

    def leaf_count(self) -> int:
        return int(np.count_nonzero(self.is_leaf))

    def level_slice(self, level: int) -> slice:
        """The contiguous index range of nodes at ``level`` (possibly empty)."""
        descending = -self.level  # ascending, so searchsorted applies
        start = int(np.searchsorted(descending, -level, side="left"))
        stop = int(np.searchsorted(descending, -level, side="right"))
        return slice(start, stop)

    def released_counts(self) -> np.ndarray:
        """Post-processed counts when present, raw noisy counts otherwise."""
        return self.noisy_count if self.post_count is None else self.post_count

    def is_complete(self) -> bool:
        """Every internal node has exactly ``fanout`` children and all leaves
        sit at level 0 (the precondition of the OLS post-processing)."""
        leaf = self.is_leaf
        if np.any(self.level[leaf] != 0):
            return False
        widths = (self.child_end - self.child_start)[~leaf]
        return bool(np.all(widths == self.fanout))


# ----------------------------------------------------------------------
# Structure construction
# ----------------------------------------------------------------------
def build_flat_structure(
    points: np.ndarray,
    domain: Domain,
    height: int,
    split_rule: SplitRule,
    eps_median_per_level: float,
    rng: RngLike = None,
) -> FlatTree:
    """Construct the complete tree level by level, directly in BFS arrays.

    ``points`` must already be validated against ``domain``.  The RNG is
    consumed in BFS order within each level, so a seeded build is
    reproducible bit for bit.  A single build is the one-release case of
    :func:`build_flat_structures_stacked`; the tree's arrays are views of
    that batch, with no second copy of the points or the geometry.
    """
    batch = build_flat_structures_stacked(
        points, domain, height, split_rule, np.array([eps_median_per_level], dtype=float),
        ensure_rng(rng),
    )
    return FlatTree(
        lo=batch.lo[0],
        hi=batch.hi[0],
        level=batch.level,
        parent=batch.parent,
        child_start=batch.child_start,
        child_end=batch.child_end,
        true_count=batch.true_count[0],
        noisy_count=batch.noisy_count[0],
        post_count=None,
        height=height,
        fanout=batch.fanout,
    )


# ----------------------------------------------------------------------
# OLS post-processing (three per-level sweeps)
# ----------------------------------------------------------------------
def ols_beta(
    level: np.ndarray,
    parent: np.ndarray,
    noisy_count: np.ndarray,
    count_epsilons: Sequence[float],
    fanout: int,
    height: int,
) -> np.ndarray:
    """The OLS estimates for a *complete* BFS-ordered tree, fully vectorized.

    Pure function: inputs are never mutated, so callers can hand it live
    arrays without readers ever observing intermediate state.  The three
    phases of Theorem 5 each become one sweep over the level slices; per-node
    arithmetic matches the recursive three-traversal algorithm operation for
    operation, so the result is bit-for-bit identical to it.

    The estimator also carries an optional **release axis**: pass
    ``noisy_count`` as a ``(n_nodes, R)`` matrix and ``count_epsilons`` as
    ``(height + 1, R)`` to post-process ``R`` independent noisy releases of
    the same tree topology in one set of sweeps.  Column ``r`` of the result
    is bit-for-bit what the single-release call on column ``r`` would return
    (every per-level operation is elementwise over the release axis, and the
    fanout reduction keeps its left-to-right order regardless of trailing
    axes).
    """
    eps = np.asarray(count_epsilons, dtype=float)
    y_in = np.asarray(noisy_count, dtype=float)
    single = y_in.ndim == 1
    if single:
        y_in = y_in[:, None]
    if eps.ndim == 1:
        eps = eps[:, None]
    if eps.shape != (height + 1, y_in.shape[1]):
        raise ValueError("count_epsilons must have one column per release and height + 1 rows")
    n_releases = y_in.shape[1]
    weights = eps * eps
    if np.any(weights[0] <= 0):
        raise ValueError("OLS post-processing requires a positive leaf budget (eps_0 > 0)")
    f = float(fanout)
    n = level.shape[0]
    powers = f ** np.arange(height + 1)
    e_array = np.cumsum(powers[:, None] * weights, axis=0)

    # Level slices: BFS order stores level h first, level 0 last.
    sizes = np.array([fanout ** (height - lvl) for lvl in range(height, -1, -1)], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    if offsets[-1] != n:
        raise ValueError("OLS post-processing requires a complete tree; apply it before pruning")

    def level_slice(lvl: int) -> slice:
        i = height - lvl
        return slice(int(offsets[i]), int(offsets[i + 1]))

    # Phase I (top-down): alpha_u = alpha_parent + eps_{h(u)}^2 * Y_u,
    # with Y taken as 0 where no count was released.  (One fused where: the
    # product is only *selected* where Y is finite, so masking Y first would
    # change nothing but cost an extra full pass.)
    w_node = weights[level]
    contribution = np.where(np.isfinite(y_in) & (w_node > 0), w_node * y_in, 0.0)
    alpha = np.empty((n, n_releases))
    alpha[0] = 0.0 + contribution[0]
    for lvl in range(height - 1, -1, -1):
        sl = level_slice(lvl)
        alpha[sl] = alpha[parent[sl]] + contribution[sl]

    # Phase II (bottom-up): Z_leaf = alpha_leaf, Z_v = sum of children's Z.
    # Children of a level's nodes are exactly the next stored level in order,
    # so the per-node sum is one reshape (fanout <= 8 keeps NumPy's reduction
    # strictly left-to-right, matching the recursive accumulation bitwise).
    z = np.empty((n, n_releases))
    sl0 = level_slice(0)
    z[sl0] = alpha[sl0]
    for lvl in range(1, height + 1):
        sl = level_slice(lvl)
        below = level_slice(lvl - 1)
        z[sl] = z[below].reshape(sl.stop - sl.start, fanout, n_releases).sum(axis=1)

    # Phase III (top-down): beta_root = Z_root / E_h; for other nodes
    # F_v = F_parent + beta_parent * eps_{h(v)+1}^2 and
    # beta_v = (Z_v - f^{h(v)} * F_v) / E_{h(v)}.
    beta = np.empty((n, n_releases))
    f_value = np.zeros((n, n_releases))
    beta[0] = (z[0] - (f ** height) * 0.0) / e_array[height]
    for lvl in range(height - 1, -1, -1):
        sl = level_slice(lvl)
        par = parent[sl]
        fv = f_value[par] + beta[par] * weights[lvl + 1]
        f_value[sl] = fv
        beta[sl] = (z[sl] - (f ** lvl) * fv) / e_array[lvl]
    return beta[:, 0] if single else beta


def apply_ols_flat(tree: FlatTree, count_epsilons: Sequence[float]) -> FlatTree:
    """Compute the OLS counts for every node of a flat tree in place."""
    if not tree.is_complete():
        raise ValueError("OLS post-processing requires a complete tree; apply it before pruning")
    with trace_span("build.ols", nodes=tree.n_nodes):
        tree.post_count = ols_beta(
            tree.level, tree.parent, tree.noisy_count, count_epsilons, tree.fanout, tree.height
        )
    return tree


# ----------------------------------------------------------------------
# Pruning (per-level mask + one compaction)
# ----------------------------------------------------------------------
def prune_flat(tree: FlatTree, threshold: float) -> int:
    """Remove descendants of nodes whose released count falls below ``threshold``.

    Matches the paper's top-down traversal: the cut decision is only ever
    evaluated for nodes that survive their ancestors' cuts, and nodes with no
    released count (``nan``) are never used as cut points.  Returns the number
    of nodes removed.
    """
    with trace_span("build.prune", nodes=tree.n_nodes):
        removed = _prune_flat(tree, threshold)
    if removed:
        counter_add("build.nodes_pruned", removed)
    return removed


def _prune_flat(tree: FlatTree, threshold: float) -> int:
    n = tree.n_nodes
    released = tree.released_counts()
    is_leaf = tree.is_leaf
    keep = np.ones(n, dtype=bool)
    cut = np.zeros(n, dtype=bool)
    for level in range(tree.height, -1, -1):
        sl = tree.level_slice(level)
        if sl.stop == sl.start:
            continue
        if level < tree.height:
            par = tree.parent[sl]
            keep[sl] = keep[par] & ~cut[par]
        counts = released[sl]
        has_count = counts == counts  # not NaN
        cut[sl] = keep[sl] & ~is_leaf[sl] & has_count & (counts < threshold)
    removed = int(n - np.count_nonzero(keep))
    if removed == 0:
        return 0

    idx = np.flatnonzero(keep)
    remap = np.cumsum(keep) - 1
    n_children = (tree.child_end - tree.child_start)[idx]
    n_children[cut[idx]] = 0
    child_start = 1 + np.concatenate(([0], np.cumsum(n_children)[:-1]))
    old_parent = tree.parent[idx]
    parent = np.where(old_parent >= 0, remap[old_parent], -1)

    tree.lo = tree.lo[idx]
    tree.hi = tree.hi[idx]
    tree.level = tree.level[idx]
    tree.parent = parent
    tree.child_start = child_start
    tree.child_end = child_start + n_children
    tree.true_count = tree.true_count[idx]
    tree.noisy_count = tree.noisy_count[idx]
    if tree.post_count is not None:
        tree.post_count = tree.post_count[idx]
    return removed


# ----------------------------------------------------------------------
# Multi-release batches: one topology, R noisy releases
# ----------------------------------------------------------------------
@dataclass
class FlatTreeBatch:
    """``R`` complete trees sharing one BFS topology, in batched array form.

    Every release of a sweep is a complete tree of the same height and fanout,
    so the index structure (``level`` / ``parent`` / ``child_start`` /
    ``child_end``) is identical across releases and stored once.  Geometry and
    counts carry the release axis:

    * data-independent structures (quadtree) share their geometry — ``lo`` /
      ``hi`` are ``(n_nodes, dims)`` and ``true_count`` is ``(n_nodes,)``;
    * data-dependent structures (kd, hybrid, Hilbert) have per-release
      geometry — ``(R, n_nodes, dims)`` bounds and ``(R, n_nodes)`` true
      counts;
    * ``noisy_count`` (and ``post_count`` once OLS ran) are always
      ``(R, n_nodes)``: row ``r`` is release ``r``'s count vector.

    :meth:`tree` slices one release back out as an ordinary mutable
    :class:`FlatTree` of views, with no copy: every transform of a tree (noise,
    OLS, pruning) replaces its arrays rather than writing into them, so a
    release never changes its batch.
    """

    lo: np.ndarray
    hi: np.ndarray
    level: np.ndarray
    parent: np.ndarray
    child_start: np.ndarray
    child_end: np.ndarray
    true_count: np.ndarray
    noisy_count: np.ndarray
    post_count: Optional[np.ndarray]
    height: int
    fanout: int

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return int(self.level.shape[0])

    @property
    def n_releases(self) -> int:
        return int(self.noisy_count.shape[0])

    @property
    def shared_geometry(self) -> bool:
        """Whether all releases share one set of node rectangles."""
        return self.lo.ndim == 2

    def tree(self, r: int) -> FlatTree:
        """Release ``r`` as a standalone :class:`FlatTree` (views, no copy)."""
        if not 0 <= r < self.n_releases:
            raise IndexError(f"release index {r} out of range for {self.n_releases} releases")
        return FlatTree(
            lo=self.lo if self.shared_geometry else self.lo[r],
            hi=self.hi if self.shared_geometry else self.hi[r],
            level=self.level,
            parent=self.parent,
            child_start=self.child_start,
            child_end=self.child_end,
            true_count=self.true_count if self.true_count.ndim == 1 else self.true_count[r],
            noisy_count=self.noisy_count[r],
            post_count=None if self.post_count is None else self.post_count[r],
            height=self.height,
            fanout=self.fanout,
        )


def _batch_topology(height: int, fanout: int):
    """The BFS index arrays of a complete tree — the single source of the
    topology shared by every single-release build and release batch.

    Children of the j-th node of a level are the ``fanout`` consecutive nodes
    starting at offset ``j * fanout`` of the next stored level; child offsets
    follow the same running-position convention as the engine compiler
    (leaves get an empty range at the current position).
    """
    sizes = np.array([fanout ** (height - lvl) for lvl in range(height, -1, -1)], dtype=np.int64)
    n = int(sizes.sum())
    level_arr = np.repeat(np.arange(height, -1, -1, dtype=np.int32), sizes)
    n_children = np.where(level_arr > 0, fanout, 0).astype(np.int64)
    child_start = 1 + np.concatenate(([0], np.cumsum(n_children)[:-1]))
    child_end = child_start + n_children
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    parent = np.empty(n, dtype=np.int64)
    parent[0] = -1
    for i in range(1, sizes.shape[0]):
        start, stop = offsets[i], offsets[i + 1]
        parent[start:stop] = offsets[i - 1] + np.arange(stop - start, dtype=np.int64) // fanout
    return level_arr, parent, child_start, child_end, sizes


def batch_from_shared_structure(tree: FlatTree, n_releases: int) -> FlatTreeBatch:
    """Wrap one data-independent structure as an ``R``-release batch.

    The geometry arrays are *shared* (not copied): a data-independent
    structure is identical in every release, and the batch never mutates
    them.  Counts start unreleased (``nan``).
    """
    return FlatTreeBatch(
        lo=tree.lo,
        hi=tree.hi,
        level=tree.level,
        parent=tree.parent,
        child_start=tree.child_start,
        child_end=tree.child_end,
        true_count=tree.true_count,
        noisy_count=np.full((n_releases, tree.n_nodes), np.nan),
        post_count=None,
        height=tree.height,
        fanout=tree.fanout,
    )


def build_flat_structures_stacked(
    points: np.ndarray,
    domain: Domain,
    height: int,
    split_rule: SplitRule,
    eps_median_per_level: np.ndarray,
    rng: np.random.Generator,
) -> FlatTreeBatch:
    """Build ``R`` structures in one stacked level sweep — the only level loop.

    Each release's nodes ride along as extra segments of every
    :meth:`~repro.core.splits.SplitRule.split_level` call: the level arrays
    hold the ``R * k`` nodes of all releases release-major, each node carrying
    its own release's median budget, and the points array holds ``R`` copies
    of the dataset partitioned per release (the input itself when ``R`` is
    1).  Every point lands in exactly one child per level, so each release
    partitions its ``n`` points at every level; the next level receives them
    in the order the split returned them.  Because batched median
    kernels are segment-local and consume their uniforms node-major, feeding
    them the releases' **pre-drawn** uniforms (via
    :class:`~repro.privacy.rng.ReplayRng`) reproduces every release bit for
    bit as if it had been built alone; that replay needs each level's draw
    count up front, which the caller plans with
    :meth:`~repro.core.splits.SplitRule.level_random_draws`.
    """
    pts = np.asarray(points, dtype=float)
    eps_med = np.asarray(eps_median_per_level, dtype=float)
    n_releases = eps_med.shape[0]
    fanout = split_rule.fanout
    dims = domain.dims
    n0 = pts.shape[0]

    root_lo = np.repeat(np.asarray(domain.rect.lo, dtype=float).reshape(1, dims),
                        n_releases, axis=0)
    root_hi = np.repeat(np.asarray(domain.rect.hi, dtype=float).reshape(1, dims),
                        n_releases, axis=0)
    cur_lo, cur_hi = root_lo, root_hi
    cur_pts = pts if n_releases == 1 else np.tile(pts, (n_releases, 1))
    cur_node = np.repeat(np.arange(n_releases, dtype=np.int64), n0)

    level_lo: List[np.ndarray] = [root_lo]
    level_hi: List[np.ndarray] = [root_hi]
    level_counts: List[np.ndarray] = [np.full(n_releases, n0, dtype=np.int64)]

    for level in range(height, 0, -1):
        k = cur_lo.shape[0] // n_releases  # nodes per release at this level
        if split_rule.is_data_dependent(level, height):
            eps_level = np.repeat(eps_med, k)  # release-major, one per stacked node
        else:
            eps_level = 0.0
        with trace_span("build.split_level", level=level,
                        nodes=int(cur_lo.shape[0]), releases=n_releases):
            child_lo, child_hi, child_of_pt, level_pts = split_rule.split_level(
                cur_lo, cur_hi, cur_pts, cur_node, level, height, eps_level, rng=rng
            )
        if child_lo.shape[0] != cur_lo.shape[0] * fanout:
            raise RuntimeError(
                f"split rule {split_rule!r} produced {child_lo.shape[0]} children "
                f"for {cur_lo.shape[0]} nodes, expected fanout {fanout}"
            )
        counts = np.bincount(child_of_pt, minlength=child_lo.shape[0]).astype(np.int64)
        cur_lo, cur_hi = child_lo, child_hi
        cur_pts, cur_node = level_pts, child_of_pt
        level_lo.append(child_lo)
        level_hi.append(child_hi)
        level_counts.append(counts)

    # The fanout check above makes every tree complete by construction, so
    # the index structure is the canonical complete-tree topology.
    level_arr, parent, child_start, child_end, sizes = _batch_topology(height, fanout)
    n = int(sizes.sum())
    lo = np.empty((n_releases, n, dims))
    hi = np.empty((n_releases, n, dims))
    true_count = np.empty((n_releases, n), dtype=np.int64)
    pos = 0
    for a_lo, a_hi, a_counts in zip(level_lo, level_hi, level_counts):
        k = a_lo.shape[0] // n_releases
        lo[:, pos:pos + k, :] = a_lo.reshape(n_releases, k, dims)
        hi[:, pos:pos + k, :] = a_hi.reshape(n_releases, k, dims)
        true_count[:, pos:pos + k] = a_counts.reshape(n_releases, k)
        pos += k

    return FlatTreeBatch(
        lo=lo,
        hi=hi,
        level=level_arr,
        parent=parent,
        child_start=child_start,
        child_end=child_end,
        true_count=true_count,
        noisy_count=np.full((n_releases, n), np.nan),
        post_count=None,
        height=height,
        fanout=fanout,
    )


def populate_noisy_counts_releases(
    batch: FlatTreeBatch,
    count_epsilons: np.ndarray,
    std_laplace: Sequence[np.ndarray],
    noiseless: bool = False,
) -> FlatTreeBatch:
    """Scatter pre-drawn standard-Laplace noise into every release's counts.

    ``std_laplace[r]`` holds release ``r``'s scale-1 Laplace draws in the
    canonical order (levels root-down, nodes in BFS order — exactly the flat
    array order restricted to the levels release ``r`` funds).  Multiplying a
    scale-1 draw by ``1 / eps`` afterwards is bitwise identical to drawing at
    that scale directly, because NumPy's Laplace sampler applies its scale as
    the same single multiplication — so each release's counts equal per-node
    draws at the level's scale, in canonical order.  Trees need not be
    complete: the order is the stored node order.
    """
    eps = np.asarray(count_epsilons, dtype=float)
    n_releases, n = batch.n_releases, batch.n_nodes
    true = batch.true_count
    if true.ndim == 1:
        true = np.broadcast_to(true, (n_releases, n))
    if noiseless:
        batch.noisy_count = true.astype(float).copy()
        batch.post_count = None
        return batch
    funded_levels = eps > 0  # (R, height + 1): the small per-level pattern
    funded_count = int((funded_levels.astype(np.int64)
                        * np.bincount(batch.level, minlength=eps.shape[1])[None, :]).sum())
    noise = np.concatenate([np.asarray(c, dtype=float).ravel() for c in std_laplace]) \
        if len(std_laplace) else np.empty(0)
    if funded_count != noise.size:
        raise ValueError(
            f"pre-drawn noise has {noise.size} values but {funded_count} "
            "funded (eps > 0) node counts need one each"
        )
    # Row-major order over the (release, node) mask is exactly the release-
    # major, level-ordered draw sequence of the sequential loop.  Budgets that
    # fund every level (uniform, geometric) take the maskless path: the
    # per-node scale is a gather of the small per-level inverse table.
    with trace_span("build.noise", nodes=n, releases=n_releases):
        if funded_levels.all():
            with np.errstate(divide="ignore"):
                inv_eps = 1.0 / eps
            noisy = true + inv_eps[:, batch.level] * noise.reshape(n_releases, n)
        else:
            eps_node = eps[:, batch.level]
            funded = eps_node > 0
            noisy = np.full((n_releases, n), np.nan)
            noisy[funded] = true[funded] + (1.0 / eps_node[funded]) * noise
    batch.noisy_count = noisy
    batch.post_count = None
    return batch


def apply_ols_releases(batch: FlatTreeBatch, count_epsilons: np.ndarray) -> FlatTreeBatch:
    """OLS post-processing of every release in one set of per-level sweeps.

    ``count_epsilons`` is ``(R, height + 1)``; column ``r`` of the stacked
    :func:`ols_beta` call is bit-for-bit the single-release result.
    """
    eps = np.asarray(count_epsilons, dtype=float)
    with trace_span("build.ols", nodes=batch.n_nodes, releases=batch.n_releases):
        post = ols_beta(
            batch.level, batch.parent, batch.noisy_count.T, eps.T, batch.fanout, batch.height
        )
        batch.post_count = np.ascontiguousarray(post.T)
    return batch

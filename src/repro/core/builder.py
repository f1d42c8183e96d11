"""Generic PSD builder: structure construction plus noisy-count population.

Every PSD variant in the paper is an instance of the same recipe:

1. split the privacy budget ``eps`` into a *median* share (spent on choosing
   data-dependent split points) and a *count* share (spent on node counts) —
   Section 6.2, with the paper's recommended 30 / 70 split as default;
2. build a complete tree of height ``h`` level by level with a
   :class:`~repro.core.splits.SplitRule`, spending the per-level median budget
   at every data-dependent level;
3. release a Laplace-noised count for every node, with the per-level count
   parameters chosen by a :class:`~repro.core.budget.BudgetStrategy`
   (Section 4);
4. optionally post-process the counts with the OLS estimator (Section 5) and
   prune low-count subtrees (Section 7).

:func:`build_psd_releases` implements this recipe once, for any number of
``(epsilon, repetition)`` releases; :func:`build_psd` is its batch of one, and
the convenience constructors in :mod:`repro.core.quadtree`,
:mod:`repro.core.kdtree` and :mod:`repro.core.hilbert_rtree` only choose the
pieces.

The trees are constructed directly in the breadth-first structure-of-arrays
form of :mod:`repro.core.flatbuild`, with one vectorized split per level (each
point in exactly one node per level) and one batched Laplace vector per
release.  The RNG is consumed in a fixed order (release by release; within a
release, nodes in BFS order within each level, levels root-down for structure
and then for noise), so a seeded build is reproducible bit for bit; the
per-node pointer builder kept in ``tests/oracle`` consumes the same stream and
the parity suites hold the two to identical bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..geometry.domain import Domain
from ..privacy.accountant import PrivacyAccountant
from ..privacy.rng import ReplayRng, RngLike, ensure_rng
from .budget import BudgetStrategy, resolve_budget
from .flatbuild import (
    apply_ols_releases,
    batch_from_shared_structure,
    build_flat_structures_stacked,
    populate_noisy_counts_releases,
)
from .splits import SplitRule
from .tree import PrivateSpatialDecomposition

__all__ = [
    "BudgetSplit",
    "PSDReleaseBatch",
    "build_psd",
    "build_psd_releases",
    "populate_noisy_counts",
]

@dataclass(frozen=True)
class BudgetSplit:
    """How the total budget is divided between counts and medians (Section 6.2).

    ``count_fraction`` defaults to the paper's experimentally-best 0.7 for
    data-dependent trees; for data-independent trees the builder automatically
    assigns everything to counts regardless of this value.
    """

    count_fraction: float = 0.7

    def __post_init__(self) -> None:
        if not 0 < self.count_fraction <= 1:
            raise ValueError("count_fraction must lie in (0, 1]")

    def partition(self, epsilon: float, data_dependent: bool) -> tuple[float, float]:
        """Return ``(epsilon_count, epsilon_median)``."""
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not data_dependent:
            return epsilon, 0.0
        eps_count = epsilon * self.count_fraction
        return eps_count, epsilon - eps_count


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
) -> PrivateSpatialDecomposition:
    """Build one private spatial decomposition: release 0 of a batch of one.

    The arguments are those of :func:`build_psd_releases` with a single
    ``epsilon`` (the total budget of this release, medians plus counts).
    ``structure_epsilon_charged`` is budget the caller already spent on
    released auxiliary structure — the cell-based kd-tree's noisy grid —
    which is *excluded* from ``epsilon``; the release's accountant charges it
    at the root level, so its total covers the whole spend.
    ``noiseless_counts`` releases exact counts (the non-private ``kd-pure``
    baseline only; the result is *not* differentially private).
    """
    batch = build_psd_releases(
        points, domain, height, split_rule, (epsilon,), count_budget=count_budget,
        budget_split=budget_split, rng=rng, name=name, postprocess=postprocess,
        noiseless_counts=noiseless_counts,
    )
    batch.structure_epsilon = float(structure_epsilon_charged)
    psd = batch.release(0)
    return psd if prune_threshold is None else psd.prune(prune_threshold)


def populate_noisy_counts(
    psd: PrivateSpatialDecomposition,
    rng: RngLike = None,
    noiseless: bool = False,
) -> PrivateSpatialDecomposition:
    """(Re)populate every node's released count from its true count.

    Levels with a zero count parameter release no count (``nan``).  With
    ``noiseless=True`` exact counts are stored instead — used by the
    non-private baselines; the result is then *not* differentially private.

    The draw is the build's own: one standard-Laplace vector in canonical
    order (root level first, nodes in BFS order within a level), scaled per
    level.  Because this *changes the released counts*, any memoised
    compiled engine is invalidated first.
    """
    from ..engine.flat import invalidate_compiled_engine

    # The released counts are about to change: a memoised flat engine would
    # otherwise keep serving the stale release.
    invalidate_compiled_engine(psd)
    tree = psd.flat_tree
    count_eps = np.asarray([psd.count_epsilons], dtype=float)
    level_sizes = np.bincount(tree.level, minlength=tree.height + 1)
    noise = _draw_count_noise(ensure_rng(rng), count_eps, level_sizes, noiseless)
    batch = populate_noisy_counts_releases(batch_from_shared_structure(tree, 1), count_eps,
                                           noise, noiseless)
    tree.noisy_count = batch.noisy_count[0]
    tree.post_count = None
    return psd


# ----------------------------------------------------------------------
# The build pipeline: one structure pass, R noisy releases
# ----------------------------------------------------------------------
class PSDReleaseBatch:
    """``R`` private releases of one PSD configuration, built as a batch.

    Produced by :func:`build_psd_releases`.  Release ``r`` is **bitwise
    identical** (structure, counts, final RNG state) to the ``r``-th build of
    the equivalent sequential loop::

        for epsilon in epsilons:
            for _ in range(repetitions):
                build_psd(..., epsilon=epsilon, rng=gen)

    so a sweep can switch to the batched pipeline without changing a single
    released number.  The batch stays in array form
    (:class:`~repro.core.flatbuild.FlatTreeBatch`) as long as the public
    methods are used; :meth:`release` materialises one release as an ordinary
    :class:`PrivateSpatialDecomposition` on demand, with its own accountant
    and metadata.

    Post-processing applies the OLS estimator to all releases in one set of
    per-level sweeps; pruning (whose cuts depend on each release's counts)
    materialises per-release trees and prunes each.  The engine layer serves
    batches with shared geometry (data-independent structures, unpruned)
    through one sparse query-to-node matrix for *all* releases — see
    :func:`repro.engine.batch.compile_query_matrix`.

    ``structure_epsilon`` is budget spent per release on released auxiliary
    structure outside ``epsilons`` (set by :func:`build_psd` for the
    cell-based kd-tree's grid); every release's accountant charges it at the
    root level and its metadata reports it.  ``median_path_deltas`` maps each
    data-dependent level to the δ a root-to-leaf path spends on its medians
    (set by :func:`build_psd_releases`; non-zero for smooth-sensitivity
    medians), charged wherever the level has median budget.  ``curve`` and
    ``planar_domain`` are the public Hilbert curve and planar domain of a
    Hilbert R-tree batch (set by
    :func:`~repro.core.hilbert_rtree.build_private_hilbert_rtree_releases`;
    ``None`` otherwise), handed to every release.
    """

    def __init__(
        self,
        *,
        domain: Domain,
        height: int,
        fanout: int,
        name: str,
        epsilons: np.ndarray,
        count_epsilons: np.ndarray,
        flat=None,
        psds: Optional[List[PrivateSpatialDecomposition]] = None,
        epsilon_count: Optional[np.ndarray] = None,
        epsilon_median: Optional[np.ndarray] = None,
        dd_levels: Sequence[int] = (),
        metadata: Optional[Dict[str, object]] = None,
    ) -> None:
        if (flat is None) == (psds is None):
            raise ValueError("provide exactly one of flat= (batched arrays) or psds= (list)")
        self.domain = domain
        self.height = int(height)
        self.fanout = int(fanout)
        self.name = name
        self.epsilons = np.asarray(epsilons, dtype=float)
        self.count_epsilons = np.asarray(count_epsilons, dtype=float)
        self._epsilon_count = epsilon_count
        self._epsilon_median = epsilon_median
        self._dd_levels = tuple(dd_levels)
        self.structure_epsilon = 0.0
        self.median_path_deltas: Dict[int, float] = {}
        self.curve = None
        self.planar_domain: Optional[Domain] = None
        self._flat = flat
        self._psds = psds
        self.metadata: Dict[str, object] = {} if metadata is None else metadata
        self._cache: Dict[int, PrivateSpatialDecomposition] = {}

    # ------------------------------------------------------------------
    @property
    def n_releases(self) -> int:
        return int(self.epsilons.shape[0])

    @property
    def flat_batch(self):
        """The batched array form, or ``None`` once releases went per-tree."""
        return self._flat

    @property
    def shared_geometry(self) -> bool:
        """Whether every release shares one set of node rectangles."""
        return self._flat is not None and self._flat.shared_geometry

    def release_pattern(self) -> Optional[np.ndarray]:
        """The shared per-level "count released?" mask, or ``None`` if mixed.

        The query decomposition of a release depends on which levels carry
        usable counts; sharing one query matrix across releases requires this
        pattern to be uniform.  Post-processed releases always carry counts
        everywhere.
        """
        if self._flat is None:
            return None
        if self._flat.post_count is not None:
            return np.ones(self.height + 1, dtype=bool)
        funded = self.count_epsilons > 0
        if not np.all(funded == funded[0:1]):
            return None
        return funded[0]

    def supports_shared_queries(self) -> bool:
        """Whether one query-to-node matrix serves every release."""
        return self.shared_geometry and self.release_pattern() is not None

    # ------------------------------------------------------------------
    def release(self, r: int) -> PrivateSpatialDecomposition:
        """Release ``r`` as a standalone (cached) PSD."""
        if self._psds is not None:
            return self._psds[r]
        cached = self._cache.get(r)
        if cached is not None:
            return cached
        psd = PrivateSpatialDecomposition(
            flat=self._flat.tree(r),
            domain=self.domain,
            count_epsilons=self.count_epsilons[r],
            accountant=self._make_accountant(r),
            name=self.name,
            metadata=dict(
                self.metadata,
                epsilon=float(self.epsilons[r]),
                epsilon_count=float(self._epsilon_count[r]),
                epsilon_median=float(self._epsilon_median[r]),
                structure_epsilon=self.structure_epsilon,
            ),
        )
        psd.curve, psd.planar_domain = self.curve, self.planar_domain
        self._cache[r] = psd
        return psd

    def releases(self) -> List[PrivateSpatialDecomposition]:
        """All releases, materialised."""
        return [self.release(r) for r in range(self.n_releases)]

    def _make_accountant(self, r: int) -> PrivacyAccountant:
        ledger = PrivacyAccountant(total_budget=float(self.epsilons[r]) + self.structure_epsilon)
        if self.structure_epsilon > 0:
            # One released grid serves the splits of every level: a single
            # parallel-composition release, charged once at the root.
            ledger.charge(self.structure_epsilon, level=self.height, kind="structure")
        for level in self._dd_levels:
            eps = float(self._epsilon_median[r]) / len(self._dd_levels)
            delta = self.median_path_deltas.get(level, 0.0) if eps > 0 else 0.0
            ledger.charge(eps, level=level, kind="median", delta=delta)
        for level, eps in enumerate(self.count_epsilons[r]):
            if eps > 0:
                ledger.charge(float(eps), level=level, kind="count")
        ledger.assert_within_budget()
        return ledger

    # ------------------------------------------------------------------
    def released_matrix(self) -> np.ndarray:
        """The ``(n_nodes, R)`` released counts every query path consumes.

        The compiled engine's ``released`` array for every release
        (:func:`~repro.engine.flat.released_counts`), so
        ``S @ released_matrix()`` equals the per-release engine answers.
        """
        from ..engine.flat import released_counts

        flat = self._flat
        if flat is None:
            raise ValueError("released_matrix requires the batched array form (not pruned/listed)")
        released, _ = released_counts(flat.noisy_count, flat.post_count,
                                      self.count_epsilons[:, flat.level])
        return np.ascontiguousarray(released.T)

    def query_engine(self):
        """A compiled engine of the shared structure (release 0's counts).

        Only the geometry / released-pattern arrays are meaningful for the
        shared query matrix; per-release counts come from
        :meth:`released_matrix`.
        """
        if not self.supports_shared_queries():
            raise ValueError("releases do not share a query structure; compile per release")
        from ..engine.flat import compile_psd

        return compile_psd(self.release(0))

    # ------------------------------------------------------------------
    def postprocess(self) -> "PSDReleaseBatch":
        """OLS post-processing of every release (Section 5), batched."""
        if self._psds is not None:
            for psd in self._psds:
                psd.postprocess()
            return self
        self._cache.clear()
        apply_ols_releases(self._flat, self.count_epsilons)
        return self

    def prune(self, threshold: float) -> "PSDReleaseBatch":
        """Prune low-count subtrees per release (cuts differ across releases)."""
        if self._psds is None:
            self._psds = self.releases()
            self._flat = None
            self._cache.clear()
        for psd in self._psds:
            psd.prune(threshold)
        return self


def _structure_draw_plan(
    split_rule: SplitRule,
    height: int,
    n_points: int,
    eps_median_per_level: np.ndarray,
) -> List[np.ndarray]:
    """Per-level uniform draw counts of every release's structure.

    Entry ``i`` of the result covers split level ``height - i`` and holds one
    draw count per release (:meth:`~repro.core.splits.SplitRule.level_random_draws`
    of the release's ``n_points`` points and median budget).  A stacked
    ``split_level`` call takes one draw layout, so releases that disagree on
    whether a data-dependent level has median budget, and so on whether it
    draws, are refused here, before anything is drawn: only a per-level
    median share that underflows to zero (a subnormal epsilon) does that.
    """
    funded = eps_median_per_level > 0
    if funded.any() and not funded.all():
        raise ValueError(
            "releases disagree on whether their data-dependent levels draw: the "
            f"per-level median budgets {eps_median_per_level.tolist()} are zero for "
            "some releases but not all (a subnormal epsilon underflows)"
        )
    plan: List[np.ndarray] = []
    for level in range(height, 0, -1):
        k = split_rule.fanout ** (height - level)
        dd = split_rule.is_data_dependent(level, height)
        plan.append(np.asarray(
            [split_rule.level_random_draws(level, height, k, n_points, float(eps) if dd else 0.0)
             for eps in eps_median_per_level],
            dtype=np.int64,
        ))
    return plan


def build_psd_releases(
    points: np.ndarray,
    domain: Domain,
    height: int,
    split_rule: SplitRule,
    epsilons: Sequence[float],
    repetitions: int = 1,
    count_budget: "str | BudgetStrategy" = "geometric",
    budget_split: Optional[BudgetSplit] = None,
    rng: RngLike = None,
    name: str = "psd",
    postprocess: bool = False,
    prune_threshold: Optional[float] = None,
    noiseless_counts: bool = False,
    structure=None,
) -> PSDReleaseBatch:
    """Build ``len(epsilons) * repetitions`` releases in one batched pass.

    The sweep is the paper's evaluation loop made first class: every
    ``(epsilon, repetition)`` pair yields an independent noisy release of the
    same configuration.  There is one structure path: every release's
    per-level uniforms are planned
    (:meth:`~repro.core.splits.SplitRule.level_random_draws`), pre-drawn
    release-major together with each release's count noise, and replayed
    into one stacked level sweep whose
    :meth:`~repro.core.splits.SplitRule.split_level` calls cover all
    releases.  When every release would split alike (no level draws a
    uniform and every release has the same median budget: data-independent
    rules, and the exact-median baselines ``kd-pure`` and ``kd-true``), one
    tree is built for all of them; data-independent releases share its
    rows, data-dependent ones get copies of them.

    Parameters
    ----------
    points:
        ``(n, d)`` array of private data points, all inside ``domain``.
    domain:
        The public data domain (root rectangle).
    height:
        Tree height ``h``; leaves at level 0, root at level ``h``.
    split_rule:
        How nodes are divided (quadtree, kd, hybrid, cell-based, ...).
    epsilons:
        Total privacy budget (medians + counts) of each release group.
    count_budget:
        Budget strategy (or its name) for the per-level count parameters.
    budget_split:
        Count/median split; defaults to 70 % counts / 30 % medians for
        data-dependent rules.
    postprocess:
        Apply the OLS post-processing after populating counts.
    prune_threshold:
        If given, prune subtrees below nodes whose released count falls under
        the threshold (applied after post-processing, as in Section 7).
    noiseless_counts:
        Release exact counts (the non-private ``kd-pure`` baseline only).

    **Parity contract**: release ``r`` (in ``epsilon``-major, repetition-minor
    order) is bitwise identical — structure, noisy counts, post-processed
    counts, and the generator's final state — to the ``r``-th build of the
    sequential loop over :func:`build_psd` with the same arguments and the
    same seeded generator: the pre-draw consumes the generator in the
    sequential loop's order, and the median kernels are segment-local and
    read their uniforms node-major.  A data-independent rule must draw
    nothing, or the replay refuses the build.

    ``structure`` optionally hands in a prebuilt
    :class:`~repro.core.flatbuild.FlatTree` for a **data-independent** rule —
    the geometry a fresh :func:`~repro.core.flatbuild.build_flat_structure`
    call on the same ``(points, domain, height, split_rule)`` would produce
    (the caller's promise; height and fanout are verified).  Data-independent
    geometry consumes no randomness, so sweep drivers use this to compute one
    structure for *several* batches — e.g. the four quadtree variants of a
    Figure-3 grid — without affecting any release's bits.  Rejected for
    data-dependent rules, whose structures are per release.
    """
    if height < 0:
        raise ValueError("height must be non-negative")
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    eps_list = [float(e) for e in epsilons]
    if not eps_list:
        raise ValueError("epsilons must be non-empty")
    for e in eps_list:
        if not math.isfinite(e):
            raise ValueError(f"every epsilon must be finite, got {e}")
    if any(e <= 0 for e in eps_list):
        raise ValueError("every epsilon must be positive")
    gen = ensure_rng(rng)
    pts = domain.validate_points(points)
    release_eps = np.repeat(np.asarray(eps_list, dtype=float), repetitions)
    n_releases = release_eps.shape[0]

    dd_levels = split_rule.data_dependent_levels(height)
    split = budget_split or BudgetSplit()
    # The split and the level allocation depend on epsilon alone: compute them
    # once per entry of `epsilons` and repeat the rows, as release_eps does.
    partitions = [split.partition(e, data_dependent=bool(dd_levels)) for e in eps_list]
    eps_count = np.repeat(np.asarray([p[0] for p in partitions]), repetitions)
    eps_median = np.repeat(np.asarray([p[1] for p in partitions]), repetitions)
    eps_median_per_level = eps_median / len(dd_levels) if dd_levels else np.zeros(n_releases)

    strategy = resolve_budget(count_budget)
    count_eps = np.repeat(
        np.asarray([strategy.validate(height, p[0]) for p in partitions], dtype=float),
        repetitions, axis=0,
    )
    level_sizes = split_rule.fanout ** (height - np.arange(height + 1, dtype=np.int64))

    if structure is not None:
        if dd_levels:
            raise ValueError("structure= applies only to data-independent split rules")
        if structure.height != height or structure.fanout != split_rule.fanout:
            raise ValueError("prebuilt structure does not match this configuration")
    plan = _structure_draw_plan(split_rule, height, pts.shape[0], eps_median_per_level)
    _refuse_unrepresentable_budgets(strategy, height, release_eps, count_eps, postprocess)
    # Pre-draw release-major: each release's structure uniforms (levels
    # root-down), then its count noise — exactly the stream the sequential
    # loop consumes, so the final generator state matches.
    level_chunks: List[List[np.ndarray]] = [[] for _ in plan]
    std_laplace: List[np.ndarray] = []
    for r in range(n_releases):
        for i, per_release in enumerate(plan):
            if per_release[r] > 0:
                level_chunks[i].append(gen.random(int(per_release[r])))
        std_laplace += _draw_count_noise(gen, count_eps[r:r + 1], level_sizes, noiseless_counts)
    replay = ReplayRng([np.concatenate(chunks) for chunks in level_chunks if chunks])
    # With no uniforms and one median budget, every release's split_level
    # calls would see the same points, bounds and budget: one tree serves
    # them all.
    alike = (not any(per_release.any() for per_release in plan)
             and bool(np.all(eps_median_per_level == eps_median_per_level[0])))
    if structure is not None:
        flat_batch = batch_from_shared_structure(structure, n_releases)
    else:
        stacked = build_flat_structures_stacked(
            pts, domain, height, split_rule,
            eps_median_per_level[:1] if alike else eps_median_per_level, replay,
        )
        if not alike:
            flat_batch = stacked
        elif not dd_levels:
            flat_batch = batch_from_shared_structure(stacked.tree(0), n_releases)
        else:
            # Data-dependent rows are copied per release rather than shared:
            # release_workload_errors scores a shared-geometry batch through
            # one query matrix, which sums node counts in another order than
            # each release's engine and would move the last bits of unpruned
            # kd-true and kd-pure rows.
            flat_batch = replace(stacked, **{
                name: np.repeat(getattr(stacked, name), n_releases, axis=0)
                for name in ("lo", "hi", "true_count", "noisy_count")
            })
    if not replay.exhausted():
        raise RuntimeError("the structure build consumed fewer uniforms than pre-drawn")
    if dd_levels:
        _refuse_non_finite_splits(flat_batch, release_eps, eps_median_per_level)

    populate_noisy_counts_releases(flat_batch, count_eps, std_laplace, noiseless_counts)

    batch = PSDReleaseBatch(
        domain=domain, height=height, fanout=split_rule.fanout, name=name,
        epsilons=release_eps, count_epsilons=count_eps, flat=flat_batch,
        epsilon_count=eps_count, epsilon_median=eps_median, dd_levels=dd_levels,
        metadata={
            "split_rule": getattr(split_rule, "name", type(split_rule).__name__),
            "count_budget": getattr(strategy, "name", type(strategy).__name__),
        },
    )
    batch.median_path_deltas = {level: split_rule.median_path_delta(level, height)
                                for level in dd_levels}
    if postprocess:
        batch.postprocess()
    if prune_threshold is not None:
        batch.prune(prune_threshold)
    return batch


def _refuse_unrepresentable_budgets(
    strategy: BudgetStrategy, height: int, release_eps: np.ndarray, count_eps: np.ndarray,
    postprocess: bool,
) -> None:
    """Refuse, before any draw, count budgets that floating point cannot carry:
    every level the strategy funds needs a positive share, a finite Laplace
    scale ``1 / eps_i`` and, under OLS, a positive weight ``eps_i ** 2``."""
    funded = np.asarray(strategy.allocate(height, 1.0)) > 0
    eps = count_eps[:, funded]
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        checks = [(eps == 0, "is zero"),
                  (1.0 / eps == np.inf, "has a Laplace scale 1/eps_i that overflows"),
                  (postprocess & (eps * eps == 0), "has an OLS weight eps_i**2 that underflows")]
    for bad, what in checks:
        if bad.any():
            r, i = np.argwhere(bad)[0]
            level = int(np.flatnonzero(funded)[i])
            raise ValueError(f"epsilon {float(release_eps[r])!r} is too small for floating point: "
                             f"the count budget {float(count_eps[r, level])!r} of level {level} {what}")


def _refuse_non_finite_splits(
    flat_batch, release_eps: np.ndarray, eps_median_per_level: np.ndarray
) -> None:
    """Refuse a batch whose private medians left a non-finite split point.

    A median budget too small for floating point overflows the Laplace
    scale of the noisy-mean and cell medians, and their splits come out
    nan or infinite.  The first such node in BFS order got its bounds from
    its parent's split, one level up.
    """
    bad = ~(np.isfinite(flat_batch.lo).all(axis=-1) & np.isfinite(flat_batch.hi).all(axis=-1))
    if bad.any():
        r, node = np.argwhere(bad)[0]
        level = int(flat_batch.level[node]) + 1
        raise ValueError(f"epsilon {float(release_eps[r])!r} is too small for floating point: "
                         f"the median budget {float(eps_median_per_level[r])!r} of level {level} "
                         f"gives a non-finite split point")


def _draw_count_noise(
    gen: np.random.Generator, count_eps: np.ndarray, level_sizes: np.ndarray, noiseless: bool
) -> List[np.ndarray]:
    """Per-release standard-Laplace noise in release-major, level-down order.

    ``level_sizes[l]`` is the number of nodes at level ``l``; a release draws
    one value for every node of every level it funds (none if noiseless).
    """
    if noiseless:
        return [np.empty(0) for _ in range(count_eps.shape[0])]
    funded_per_release = ((count_eps > 0) * level_sizes[None, :]).sum(axis=1)
    return [gen.laplace(0.0, 1.0, size=int(m)) if m else np.empty(0)
            for m in funded_per_release]

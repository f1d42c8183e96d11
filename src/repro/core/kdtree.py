"""Private kd-trees: the data-dependent PSD family of Sections 6 and 8.2.

All variants are *flattened* to fanout 4 (Section 6.2) so their heights are
directly comparable to the quadtree's.  The variants of Figure 5, keyed by the
paper's labels, are:

* ``kd-pure``      — exact medians and exact counts (no privacy; shows the
  error floor of the uniformity assumption alone);
* ``kd-true``      — exact medians but noisy counts (isolates the cost of
  count noise);
* ``kd-standard``  — private medians via the exponential mechanism;
* ``kd-hybrid``    — EM medians for the top ``l`` levels, quadtree splits
  below (the paper's most reliably accurate kd variant);
* ``kd-cell``      — the cell-based approach of [26]: structure read off a
  fixed-resolution noisy grid;
* ``kd-noisymean`` — the noisy-mean surrogate of [12].

Each builder applies the paper's recommended optimisations by default
(geometric count budget + OLS post-processing, 70/30 count/median split) and
accepts the pruning threshold used in the experiments (``m = 32``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

import numpy as np

from ..geometry.domain import Domain
from ..index.grid import UniformGrid
from ..privacy.rng import RngLike, ensure_rng
from .builder import BudgetSplit, PSDReleaseBatch, build_psd, build_psd_releases
from .splits import CellKDSplit, HybridSplit, KDSplit
from .tree import PrivateSpatialDecomposition

__all__ = [
    "KDTreeConfig",
    "KDTREE_VARIANTS",
    "build_private_kdtree",
    "build_private_kdtree_releases",
]


@dataclass(frozen=True)
class KDTreeConfig:
    """Configuration of one kd-tree variant."""

    name: str
    median_method: str = "em"
    hybrid: bool = False
    cell_based: bool = False
    noiseless_counts: bool = False
    count_fraction: float = 0.7


def _resolve_kdtree_config(
    variant: "str | KDTreeConfig", median_method: Optional[str]
) -> KDTreeConfig:
    """Look a variant up by label (or pass a config through) and apply the
    ``median_method`` override — shared by the single-release and the
    release-batch builders so the two can never drift."""
    if isinstance(variant, KDTreeConfig):
        config = variant
    else:
        key = str(variant).lower()
        if key not in KDTREE_VARIANTS:
            raise KeyError(f"unknown kd-tree variant {variant!r}; available: {sorted(KDTREE_VARIANTS)}")
        config = KDTREE_VARIANTS[key]
    if median_method is not None and not config.cell_based:
        config = replace(config, median_method=str(median_method).lower())
    return config


#: The kd-tree variants of Figure 5, keyed by the paper's labels.  kd-pure and
#: kd-true split at exact medians and give counts the whole budget, so they
#: spend no median budget: every release of a batch splits alike, and
#: :func:`~repro.core.builder.build_psd_releases` builds their tree once.
KDTREE_VARIANTS: Dict[str, KDTreeConfig] = {
    "kd-pure": KDTreeConfig("kd-pure", median_method="true", noiseless_counts=True, count_fraction=1.0),
    "kd-true": KDTreeConfig("kd-true", median_method="true", count_fraction=1.0),
    "kd-standard": KDTreeConfig("kd-standard", median_method="em"),
    "kd-hybrid": KDTreeConfig("kd-hybrid", median_method="em", hybrid=True),
    "kd-cell": KDTreeConfig("kd-cell", cell_based=True),
    "kd-noisymean": KDTreeConfig("kd-noisymean", median_method="noisymean"),
}


def build_private_kdtree(
    points: np.ndarray,
    domain: Domain,
    height: int,
    epsilon: float,
    variant: "str | KDTreeConfig" = "kd-hybrid",
    count_budget: str = "geometric",
    postprocess: bool = True,
    prune_threshold: Optional[float] = None,
    switch_level: Optional[int] = None,
    count_fraction: Optional[float] = None,
    cell_resolution: int = 256,
    cell_budget_fraction: float = 0.3,
    median_method: Optional[str] = None,
    rng: RngLike = None,
) -> PrivateSpatialDecomposition:
    """Build one of the Figure-5 private kd-tree variants.

    Parameters
    ----------
    variant:
        A label from :data:`KDTREE_VARIANTS` or an explicit config.
    switch_level:
        For the hybrid tree, how many of the top levels are data dependent
        (the paper's ``l``); defaults to half the height, which Section 8.2
        found to be the sweet spot.
    median_method:
        Override the variant's private-median method (a
        :data:`repro.privacy.MEDIAN_METHODS` label); the benchmark's
        ``--median-method`` axis uses this to sweep EM/SS/cell/NM over one
        tree shape.  Ignored by the cell-based variant, whose structure comes
        from the noisy grid.
    count_fraction:
        Fraction of the budget given to counts (default 0.7 for private-median
        variants, 1.0 for the exact-median baselines).
    cell_resolution, cell_budget_fraction:
        Grid size per axis and the budget fraction spent on the noisy grid for
        the cell-based variant.
    prune_threshold:
        Low-count pruning threshold applied after post-processing; the paper's
        experiments use 32.

    This is release 0 of :func:`build_private_kdtree_releases` with one
    ``epsilon``.
    """
    return build_private_kdtree_releases(
        points, domain, height, (epsilon,), variant=variant, count_budget=count_budget,
        postprocess=postprocess, prune_threshold=prune_threshold, switch_level=switch_level,
        count_fraction=count_fraction, cell_resolution=cell_resolution,
        cell_budget_fraction=cell_budget_fraction, median_method=median_method, rng=rng,
    ).release(0)


def _build_cell_kdtree(
    points: np.ndarray,
    domain: Domain,
    height: int,
    epsilon: float,
    count_budget: str,
    postprocess: bool,
    prune_threshold: Optional[float],
    cell_resolution: int,
    cell_budget_fraction: float,
    rng: RngLike,
    name: str,
) -> PrivateSpatialDecomposition:
    """The cell-based kd-tree of [26].

    A fixed-resolution grid of noisy counts is released first (costing
    ``cell_budget_fraction * epsilon``); the tree structure is derived purely
    from that released grid, so the splits are free; the remaining budget pays
    for the hierarchical node counts.
    """
    if not 0 < cell_budget_fraction < 1:
        raise ValueError("cell_budget_fraction must lie strictly between 0 and 1")
    gen = ensure_rng(rng)
    eps_grid = epsilon * cell_budget_fraction
    eps_counts = epsilon - eps_grid

    grid = UniformGrid(domain=domain, shape=(cell_resolution,) * domain.dims).fit(points)
    noisy_grid = grid.noisy_counts(eps_grid, rng=gen)
    # The medians read prefix sums of the clipped counts: all finite iff the total is.
    if not np.isfinite(np.clip(noisy_grid.counts, 0.0, None).sum()):
        raise ValueError(f"epsilon {epsilon!r} is too small for floating point: the grid "
                         f"budget {eps_grid!r} gives noisy cell counts whose sum overflows")

    return build_psd(
        points=points,
        domain=domain,
        height=height,
        split_rule=CellKDSplit(noisy_grid=noisy_grid),
        epsilon=eps_counts,
        count_budget=count_budget,
        budget_split=BudgetSplit(count_fraction=1.0),
        rng=gen,
        name=name,
        postprocess=postprocess,
        prune_threshold=prune_threshold,
        structure_epsilon_charged=eps_grid,
    )


def build_private_kdtree_releases(
    points: np.ndarray,
    domain: Domain,
    height: int,
    epsilons,
    repetitions: int = 1,
    variant: "str | KDTreeConfig" = "kd-hybrid",
    count_budget: str = "geometric",
    postprocess: bool = True,
    prune_threshold: Optional[float] = None,
    switch_level: Optional[int] = None,
    count_fraction: Optional[float] = None,
    cell_resolution: int = 256,
    cell_budget_fraction: float = 0.3,
    median_method: Optional[str] = None,
    rng: RngLike = None,
) -> PSDReleaseBatch:
    """Build ``len(epsilons) * repetitions`` releases of one kd-tree variant.

    Data-dependent variants (standard / hybrid / noisy-mean, and the exact
    -median baselines) build all releases' trees through stacked level splits
    — one ragged-batch private-median call per level covering every release —
    while staying bitwise identical to the sequential
    :func:`build_private_kdtree` loop under the same seed.  The cell-based
    variant releases a fresh noisy grid per release (its structure budget is
    spent per release), so each of its releases is a batch of one of its own
    grid's split rule, built in order on the same generator.
    The parameters are those of :func:`build_private_kdtree`.
    """
    config = _resolve_kdtree_config(variant, median_method)
    gen = ensure_rng(rng)
    fraction = config.count_fraction if count_fraction is None else count_fraction
    eps_list = [float(e) for e in epsilons]

    if config.cell_based:
        # A fresh grid is charged and released per (epsilon, repetition), so
        # structure cannot be shared across releases; the per-release builds
        # are collected into a list-mode batch.
        psds = [
            _build_cell_kdtree(
                points=points, domain=domain, height=height, epsilon=e,
                count_budget=count_budget, postprocess=postprocess,
                prune_threshold=prune_threshold, cell_resolution=cell_resolution,
                cell_budget_fraction=cell_budget_fraction, rng=gen,
                name=config.name,
            )
            for e in eps_list
            for _ in range(repetitions)
        ]
        return PSDReleaseBatch(
            domain=domain, height=height, fanout=4, name=config.name,
            epsilons=np.repeat(np.asarray(eps_list), repetitions),
            count_epsilons=np.asarray([p.count_epsilons for p in psds], dtype=float),
            psds=psds,
        )

    if config.hybrid:
        kd_levels = switch_level if switch_level is not None else max(1, height // 2)
        split_rule = HybridSplit(kd_levels=kd_levels, median_method=config.median_method)
    else:
        split_rule = KDSplit(median_method=config.median_method)

    return build_psd_releases(
        points=points,
        domain=domain,
        height=height,
        split_rule=split_rule,
        epsilons=eps_list,
        repetitions=repetitions,
        count_budget=count_budget,
        budget_split=BudgetSplit(count_fraction=fraction),
        rng=gen,
        name=config.name,
        postprocess=postprocess and not config.noiseless_counts,
        prune_threshold=prune_threshold,
        noiseless_counts=config.noiseless_counts,
    )

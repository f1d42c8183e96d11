"""Private quadtrees (the paper's data-independent PSD) and their variants.

The quadtree's structure depends only on the domain, so the entire privacy
budget goes to node counts.  The four configurations compared in Figure 3 are
exposed by :data:`QUADTREE_VARIANTS`:

* ``quad-baseline`` — uniform budget, no post-processing (the prior-work
  setup of [11]);
* ``quad-geo``      — geometric budget (Section 4), no post-processing;
* ``quad-post``     — uniform budget plus OLS post-processing (Section 5);
* ``quad-opt``      — geometric budget plus OLS post-processing (both
  optimisations, the configuration used everywhere else in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..geometry.domain import Domain
from ..privacy.rng import RngLike
from .builder import PSDReleaseBatch, build_psd_releases
from .splits import QuadSplit
from .tree import PrivateSpatialDecomposition

__all__ = [
    "QuadtreeConfig",
    "QUADTREE_VARIANTS",
    "build_private_quadtree",
    "build_private_quadtree_releases",
]


def _resolve_quadtree_config(variant: "str | QuadtreeConfig") -> QuadtreeConfig:
    if isinstance(variant, QuadtreeConfig):
        return variant
    key = str(variant).lower()
    if key not in QUADTREE_VARIANTS:
        raise KeyError(f"unknown quadtree variant {variant!r}; available: {sorted(QUADTREE_VARIANTS)}")
    return QUADTREE_VARIANTS[key]


@dataclass(frozen=True)
class QuadtreeConfig:
    """One point in the quadtree design space (budget strategy x post-processing)."""

    name: str
    count_budget: str = "geometric"
    postprocess: bool = True


#: The four variants of Figure 3, keyed by the paper's labels.
QUADTREE_VARIANTS: Dict[str, QuadtreeConfig] = {
    "quad-baseline": QuadtreeConfig("quad-baseline", count_budget="uniform", postprocess=False),
    "quad-geo": QuadtreeConfig("quad-geo", count_budget="geometric", postprocess=False),
    "quad-post": QuadtreeConfig("quad-post", count_budget="uniform", postprocess=True),
    "quad-opt": QuadtreeConfig("quad-opt", count_budget="geometric", postprocess=True),
}


def build_private_quadtree(
    points: np.ndarray,
    domain: Domain,
    height: int,
    epsilon: float,
    variant: "str | QuadtreeConfig" = "quad-opt",
    prune_threshold: Optional[float] = None,
    rng: RngLike = None,
) -> PrivateSpatialDecomposition:
    """Build one of the Figure-3 private quadtree variants.

    Parameters
    ----------
    points, domain, height, epsilon:
        Data, public domain, tree height and total privacy budget.
    variant:
        One of ``"quad-baseline"``, ``"quad-geo"``, ``"quad-post"``,
        ``"quad-opt"`` (or an explicit :class:`QuadtreeConfig`).
    prune_threshold:
        Optional low-count pruning threshold (applied after post-processing).

    This is release 0 of :func:`build_private_quadtree_releases` with one
    ``epsilon``.
    """
    return build_private_quadtree_releases(
        points, domain, height, (epsilon,), variant=variant,
        prune_threshold=prune_threshold, rng=rng,
    ).release(0)


def build_private_quadtree_releases(
    points: np.ndarray,
    domain: Domain,
    height: int,
    epsilons,
    repetitions: int = 1,
    variant: "str | QuadtreeConfig" = "quad-opt",
    prune_threshold: Optional[float] = None,
    rng: RngLike = None,
    structure=None,
) -> PSDReleaseBatch:
    """Build ``len(epsilons) * repetitions`` releases of one quadtree variant.

    The quadtree structure is data independent, so the sweep computes the
    geometry **once** and draws every release's count noise as one batched
    tensor; release ``r`` is bitwise identical to the ``r``-th sequential
    :func:`build_private_quadtree` call with the same seeded generator.  The
    returned batch serves whole workloads against all releases through one
    shared query matrix (see :meth:`repro.engine.batch.QueryMatrix.dot`).

    ``structure`` optionally reuses a prebuilt quadtree geometry (a
    ``FlatTree`` from :func:`~repro.core.flatbuild.build_flat_structure` over
    the same points/domain/height) across several variant batches — the
    geometry consumes no randomness, so every release stays bitwise
    identical.
    """
    config = _resolve_quadtree_config(variant)
    return build_psd_releases(
        points=points,
        domain=domain,
        height=height,
        split_rule=QuadSplit(),
        epsilons=epsilons,
        repetitions=repetitions,
        count_budget=config.count_budget,
        rng=rng,
        name=config.name,
        postprocess=config.postprocess,
        prune_threshold=prune_threshold,
        structure=structure,
    )

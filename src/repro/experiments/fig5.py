"""Figure 5: query accuracy of the kd-tree variants.

For ``eps in {0.1, 0.5, 1.0}`` and query shapes ``(1,1), (10,10), (15,0.2)``
the figure compares six kd-trees, all of height 8 with fanout 4 and pruning
threshold ``m = 32``:

* ``kd-pure``      — exact medians, exact counts (no privacy; error floor of
  the uniformity assumption);
* ``kd-true``      — exact medians, noisy counts (cost of count noise alone);
* ``kd-standard``  — EM medians;
* ``kd-hybrid``    — EM medians for the top half, quadtree below;
* ``kd-cell``      — the cell-based structure of [26];
* ``kd-noisymean`` — the noisy-mean structure of [12].

The shape to reproduce: kd-pure and kd-true stay below ~1 % error (count
noise is cheap); the private-median variants are noticeably worse, with
kd-noisymean the weakest, kd-cell competitive only on small square queries,
and kd-hybrid the most reliably accurate private variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.kdtree import KDTREE_VARIANTS, build_private_kdtree_releases
from ..geometry.domain import TIGER_DOMAIN, Domain
from ..privacy.rng import RngLike, ensure_rng
from ..queries.workload import KD_QUERY_SHAPES, QueryShape
from .common import ExperimentScale, SweepCase, make_dataset, make_workloads, run_sweep

__all__ = ["run_fig5", "KDTreeSweepBuild", "PAPER_EPSILONS", "PAPER_PRUNE_THRESHOLD"]


@dataclass(frozen=True, eq=False)
class KDTreeSweepBuild:
    """The (picklable) release builder behind one Figure-5 sweep case.

    Module-level so the process-parallel sweep can ship kd-tree cases to
    workers; cases that share the points array pickle it once per pool start.
    """

    points: np.ndarray
    domain: Domain
    height: int
    epsilons: Tuple[float, ...]
    repetitions: int
    variant: str
    prune_threshold: float

    def __call__(self, gen: np.random.Generator):
        return build_private_kdtree_releases(
            self.points, self.domain, height=self.height, epsilons=self.epsilons,
            repetitions=self.repetitions, variant=self.variant,
            prune_threshold=self.prune_threshold, rng=gen,
        )

#: The privacy budgets of Figure 5(a)-(c).
PAPER_EPSILONS = (0.1, 0.5, 1.0)

#: The pruning threshold used throughout the kd-tree experiments.
PAPER_PRUNE_THRESHOLD = 32.0


def run_fig5(
    scale: ExperimentScale = ExperimentScale(),
    epsilons: Sequence[float] = PAPER_EPSILONS,
    shapes: Sequence[QueryShape] = KD_QUERY_SHAPES,
    variants: Sequence[str] = tuple(KDTREE_VARIANTS),
    domain: Domain = TIGER_DOMAIN,
    points: Optional[np.ndarray] = None,
    prune_threshold: float = PAPER_PRUNE_THRESHOLD,
    rng: RngLike = 0,
    workers: Optional[int] = None,
    checkpoint: Optional[str] = None,
    faults=None,
    case_timeout: Optional[float] = None,
) -> List[Dict[str, object]]:
    """Run the Figure 5 sweep; one row per (epsilon, variant, shape).

    Each variant is one :class:`~repro.experiments.common.SweepCase` whose
    ``(epsilon, repetition)`` releases build as a batch — the data-dependent
    variants stack all releases' private medians into one ragged-batch call
    per level; the cell-based variant (a fresh noisy grid per release) keeps
    its sequential builds and shares only the evaluation machinery.
    ``workers`` fans the variant cases across a process pool with identical
    rows for any worker count.
    """
    gen = ensure_rng(rng)
    pts = make_dataset(scale, rng=gen) if points is None else domain.validate_points(points)
    workloads = make_workloads(pts, shapes, scale, domain=domain, rng=gen)
    eps_list = tuple(float(e) for e in epsilons)

    def case(variant: str) -> SweepCase:
        keys = tuple(
            {"epsilon": e, "variant": variant}
            for e in eps_list
            for _ in range(scale.repetitions)
        )
        build = KDTreeSweepBuild(points=pts, domain=domain, height=scale.kd_height,
                                 epsilons=eps_list, repetitions=scale.repetitions,
                                 variant=variant, prune_threshold=prune_threshold)
        return SweepCase(label=variant, keys=keys, build=build)

    return run_sweep([case(v) for v in variants], workloads, rng=gen, workers=workers,
                     checkpoint=checkpoint, faults=faults, case_timeout=case_timeout)

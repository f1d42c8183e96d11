"""Figure 3: query accuracy of the quadtree optimisations.

For every privacy budget ``eps in {0.1, 0.5, 1.0}`` and every query shape
``(1,1), (5,5), (10,10), (15,0.2)``, the figure reports the median relative
error of four quadtree configurations grown to the same height:

* ``quad-baseline`` — uniform budget, no post-processing;
* ``quad-geo``      — geometric budget only;
* ``quad-post``     — OLS post-processing only;
* ``quad-opt``      — both optimisations combined.

The paper's headline observation is that each optimisation helps individually
and together they cut the error by up to an order of magnitude, especially at
small budgets.  Each variant runs as **one** :class:`~repro.experiments.common.SweepCase`:
the data-independent structure is computed once, all ``(epsilon, repetition)``
releases draw their noise as one batch, and every workload is scored against
all releases through a single shared query matrix — the per-release rebuild
loop of the sequential methodology is gone, with bitwise-identical releases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.flatbuild import FlatTree, build_flat_structure
from ..core.quadtree import QUADTREE_VARIANTS, build_private_quadtree_releases
from ..core.splits import QuadSplit
from ..geometry.domain import TIGER_DOMAIN, Domain
from ..privacy.rng import RngLike, ensure_rng
from ..queries.workload import PAPER_QUERY_SHAPES, QueryShape
from .common import ExperimentScale, SweepCase, make_dataset, make_workloads, run_sweep

__all__ = ["run_fig3", "quadtree_sweep_case", "QuadtreeSweepBuild", "PAPER_EPSILONS"]

#: The privacy budgets of Figure 3(a)-(c).
PAPER_EPSILONS = (0.1, 0.5, 1.0)


@dataclass(frozen=True, eq=False)
class QuadtreeSweepBuild:
    """The (picklable) release builder behind one Figure-3 sweep case.

    A module-level callable rather than a closure so the process-parallel
    sweep can ship cases to workers; cases that share the points array and
    the structure pickle them once per pool start, not once per case.
    """

    points: np.ndarray
    domain: Domain
    height: int
    epsilons: Tuple[float, ...]
    repetitions: int
    variant: str
    structure: FlatTree

    def __call__(self, gen: np.random.Generator):
        return build_private_quadtree_releases(
            self.points, self.domain, height=self.height, epsilons=self.epsilons,
            repetitions=self.repetitions, variant=self.variant, rng=gen,
            structure=self.structure,
        )


def quadtree_sweep_case(
    points: np.ndarray,
    domain: Domain,
    height: int,
    epsilons: Sequence[float],
    repetitions: int,
    variant: str,
    structure: FlatTree,
) -> SweepCase:
    """One quadtree sweep case: ``len(epsilons) * repetitions`` releases."""
    eps_list = tuple(float(e) for e in epsilons)
    keys = tuple(
        {"epsilon": e, "variant": variant} for e in eps_list for _ in range(repetitions)
    )
    build = QuadtreeSweepBuild(points=points, domain=domain, height=height,
                               epsilons=eps_list, repetitions=repetitions,
                               variant=variant, structure=structure)
    return SweepCase(label=variant, keys=keys, build=build)


def run_fig3(
    scale: ExperimentScale = ExperimentScale(),
    epsilons: Sequence[float] = PAPER_EPSILONS,
    shapes: Sequence[QueryShape] = PAPER_QUERY_SHAPES,
    variants: Sequence[str] = tuple(QUADTREE_VARIANTS),
    domain: Domain = TIGER_DOMAIN,
    points: Optional[np.ndarray] = None,
    rng: RngLike = 0,
    workers: Optional[int] = None,
    checkpoint: Optional[str] = None,
    faults=None,
    case_timeout: Optional[float] = None,
) -> List[Dict[str, object]]:
    """Run the Figure 3 experiment and return one row per (epsilon, variant, shape).

    ``workers`` fans the variant cases across a process pool; any value
    yields the same rows as ``workers=1`` (see :func:`~.common.run_sweep`).
    """
    gen = ensure_rng(rng)
    pts = make_dataset(scale, rng=gen) if points is None else domain.validate_points(points)
    workloads = make_workloads(pts, shapes, scale, domain=domain, rng=gen)
    eps_list = tuple(float(e) for e in epsilons)

    # One geometry serves every variant's releases: quadtree structure is data
    # independent and draw-free, so sharing it changes no release bits.
    structure = build_flat_structure(pts, domain, scale.quad_height, QuadSplit(), 0.0)

    cases = [
        quadtree_sweep_case(pts, domain, scale.quad_height, eps_list,
                            scale.repetitions, variant, structure)
        for variant in variants
    ]
    return run_sweep(cases, workloads, rng=gen, workers=workers,
                     checkpoint=checkpoint, faults=faults, case_timeout=case_timeout)

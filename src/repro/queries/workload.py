"""Range-query workload generation (Section 8.1).

The paper evaluates PSDs on rectangular range queries whose sizes are
expressed in the units of the original data — e.g. shape ``(15, 0.2)`` over
the TIGER domain is a "skinny" query of roughly 1050 x 14 miles.  For each
shape it generates 600 queries that have a non-zero true answer and reports
the *median relative error* over the workload.

:class:`QueryShape` names a shape, :func:`generate_workload` reproduces the
generation procedure (random placement inside the domain, rejection of queries
whose true answer is zero), and :class:`QueryWorkload` bundles the queries
with their true answers so every PSD variant is evaluated on identical
workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from ..engine.points import PointGrid
from ..geometry.domain import Domain
from ..geometry.rect import Rect
from ..privacy.rng import RngLike, ensure_rng

__all__ = [
    "QueryShape",
    "QueryWorkload",
    "generate_workload",
    "random_query_rects",
    "PAPER_QUERY_SHAPES",
    "KD_QUERY_SHAPES",
]


def random_query_rects(
    domain: Domain,
    n_queries: int,
    rng: RngLike = None,
    min_frac: float = 0.01,
    max_frac: float = 0.3,
) -> List[Rect]:
    """Uniformly placed query rects with random per-axis extents.

    Unlike :func:`generate_workload` this needs no data (no true answers, no
    rejection of empty queries): extents are drawn per axis between
    ``min_frac`` and ``max_frac`` of the domain width, centres uniformly over
    the domain, and the box is clipped to the domain.  Degenerate (zero-width)
    results are discarded and redrawn.  Used by the engine benchmark, the
    serving example and the engine tests so they exercise one well-defined
    workload shape.
    """
    if not 0 <= min_frac <= max_frac:
        raise ValueError("need 0 <= min_frac <= max_frac")
    if max_frac <= 0:
        raise ValueError("max_frac must be positive, or no query can have positive extent")
    gen = ensure_rng(rng)
    lo_d = np.asarray(domain.rect.lo, dtype=float)
    widths = np.asarray(domain.widths, dtype=float)
    if np.any(widths <= 0):
        raise ValueError("domain must have positive width on every axis")
    queries: List[Rect] = []
    while len(queries) < n_queries:
        center = lo_d + gen.random(domain.dims) * widths
        extents = widths * (min_frac + (max_frac - min_frac) * gen.random(domain.dims))
        lo = np.maximum(center - extents / 2, lo_d)
        hi = np.minimum(center + extents / 2, lo_d + widths)
        if np.all(hi > lo):
            queries.append(Rect(tuple(lo), tuple(hi)))
    return queries


@dataclass(frozen=True)
class QueryShape:
    """A rectangular query shape given by absolute per-axis extents.

    ``extents`` are in the same units as the data domain (degrees for the
    TIGER-like data).  ``label`` mirrors the paper's "(w, h)" notation.
    """

    extents: Tuple[float, ...]
    label: str = ""

    def __post_init__(self) -> None:
        extents = tuple(float(e) for e in self.extents)
        if any(e <= 0 for e in extents):
            raise ValueError("query extents must be positive")
        object.__setattr__(self, "extents", extents)
        if not self.label:
            object.__setattr__(self, "label", "(" + ", ".join(f"{e:g}" for e in extents) + ")")

    @staticmethod
    def square(size: float) -> "QueryShape":
        """A square ``size x size`` query."""
        return QueryShape((size, size))


#: The four query shapes of Figure 3 (in degrees over the TIGER domain).
PAPER_QUERY_SHAPES: Tuple[QueryShape, ...] = (
    QueryShape((1.0, 1.0)),
    QueryShape((5.0, 5.0)),
    QueryShape((10.0, 10.0)),
    QueryShape((15.0, 0.2)),
)

#: The three query shapes of Figures 5 and 6.
KD_QUERY_SHAPES: Tuple[QueryShape, ...] = (
    QueryShape((1.0, 1.0)),
    QueryShape((10.0, 10.0)),
    QueryShape((15.0, 0.2)),
)


@dataclass
class QueryWorkload:
    """A list of query rectangles plus their true answers over a fixed dataset."""

    shape: QueryShape
    queries: List[Rect] = field(default_factory=list)
    true_answers: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self):
        return iter(zip(self.queries, self.true_answers))

    def evaluate(self, answer_fn) -> np.ndarray:
        """Apply ``answer_fn(query) -> float`` to every query and return the answers."""
        return np.array([float(answer_fn(q)) for q in self.queries])


def generate_workload(
    points: np.ndarray,
    domain: Domain,
    shape: QueryShape,
    n_queries: int = 600,
    rng: RngLike = None,
    require_nonzero: bool = True,
    max_attempts_factor: int = 50,
) -> QueryWorkload:
    """Generate ``n_queries`` random queries of the given shape.

    Query centres are drawn uniformly over the domain; as in the paper, queries
    whose true answer is zero are rejected (when ``require_nonzero`` is set).
    ``max_attempts_factor * n_queries`` placement attempts are made before
    giving up and returning however many valid queries were found — this only
    matters for pathological datasets that leave most of the domain empty.

    Attempts are drawn in blocks and counted exactly (closed boxes) by one
    :class:`~repro.engine.points.PointGrid`; accepted rects keep attempt
    order.  When a block fills the request, the generator is rewound and
    redraws exactly the attempts used, so the queries, their answers and the
    generator's final state are those of placing one attempt at a time.
    """
    if n_queries < 0:
        raise ValueError("n_queries must be non-negative")
    if len(shape.extents) != domain.dims:
        raise ValueError("query shape arity must match the domain dimensionality")
    pts = domain.validate_points(points)
    gen = ensure_rng(rng)

    index = PointGrid.build(pts)
    half = np.asarray(shape.extents, dtype=float) / 2.0
    domain_lo = np.asarray(domain.rect.lo)
    domain_hi = np.asarray(domain.rect.hi)
    queries: List[Rect] = []
    answers: List[float] = []
    attempts = 0
    max_attempts = max(1, max_attempts_factor) * max(1, n_queries)
    while len(queries) < n_queries and attempts < max_attempts:
        remaining = n_queries - len(queries)
        take = min(max(64, 2 * remaining), max_attempts - attempts)
        state = gen.bit_generator.state
        centers = domain.denormalize(gen.random((take, domain.dims)))
        # The rect of Domain.query_rect, for a whole block of centres.
        lo = np.maximum(centers - half, domain_lo)
        hi = np.maximum(np.minimum(centers + half, domain_hi), lo)
        placed = np.flatnonzero(np.prod(hi - lo, axis=1) > 0)
        counts = index.count_in_rects(lo[placed], hi[placed]).astype(float)
        if require_nonzero:
            placed, counts = placed[counts > 0], counts[counts > 0]
        placed, counts = placed[:remaining], counts[:remaining]
        queries.extend(Rect.from_arrays(lo[t], hi[t]) for t in placed)
        answers.extend(counts.tolist())
        if len(queries) == n_queries:  # rewind to exactly the attempts used
            gen.bit_generator.state = state
            gen.random((int(placed[-1]) + 1, domain.dims))
        attempts += take
    return QueryWorkload(shape=shape, queries=queries, true_answers=np.asarray(answers, dtype=float))

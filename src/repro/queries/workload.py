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


def _true_count(points: np.ndarray, query: Rect) -> float:
    """Exact number of data points inside ``query`` (closed box, brute force)."""
    return float(query.count_points(points, closed_hi=True))


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
    """
    if n_queries < 0:
        raise ValueError("n_queries must be non-negative")
    if len(shape.extents) != domain.dims:
        raise ValueError("query shape arity must match the domain dimensionality")
    pts = domain.validate_points(points)
    gen = ensure_rng(rng)

    queries: List[Rect] = []
    answers: List[float] = []
    attempts = 0
    max_attempts = max(1, max_attempts_factor) * max(1, n_queries)
    while len(queries) < n_queries and attempts < max_attempts:
        attempts += 1
        center = domain.denormalize(gen.random((1, domain.dims)))[0]
        query = domain.query_rect(center, shape.extents)
        if query.area <= 0:
            continue
        answer = _true_count(pts, query)
        if require_nonzero and answer <= 0:
            continue
        queries.append(query)
        answers.append(answer)
    return QueryWorkload(shape=shape, queries=queries, true_answers=np.asarray(answers, dtype=float))

"""Per-attempt workload generation: the reference for block-drawn workloads.

Production (:func:`repro.queries.workload.generate_workload`) draws query
placements in blocks, counts them with a
:class:`~repro.engine.points.PointGrid` and rewinds the generator to the
attempts it used.  :func:`per_attempt_workload` is the loop it replaced: one
``Generator.random`` call per attempt, ``Domain.query_rect`` and a brute-force
closed-box count, so the two must agree on the queries, the true answers and
the generator's final state.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.geometry.domain import Domain
from repro.geometry.rect import Rect
from repro.privacy.rng import RngLike, ensure_rng
from repro.queries.workload import QueryShape, QueryWorkload

__all__ = ["per_attempt_workload"]


def per_attempt_workload(
    points: np.ndarray,
    domain: Domain,
    shape: QueryShape,
    n_queries: int = 600,
    rng: RngLike = None,
    require_nonzero: bool = True,
    max_attempts_factor: int = 50,
) -> QueryWorkload:
    """``n_queries`` random queries of ``shape``, placed and counted one attempt at a time.

    Same arguments and result as :func:`repro.queries.workload.generate_workload`.
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
        answer = float(query.count_points(pts, closed_hi=True))
        if require_nonzero and answer <= 0:
            continue
        queries.append(query)
        answers.append(answer)
    return QueryWorkload(shape=shape, queries=queries, true_answers=np.asarray(answers, dtype=float))

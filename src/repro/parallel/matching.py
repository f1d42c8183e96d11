"""Process-parallel candidate scoring for the record-matching pipeline.

:func:`repro.applications.record_matching.blocking_from_engine` decomposes
its work over **seeker chunks**: for a contiguous slice of party B's points,
a chunk task counts how many of them fall in each expanded surviving leaf
(a fresh :class:`~repro.engine.points.PointGrid` over just the slice) and
joins the slice against the prebuilt holder-side
:class:`~repro.engine.points.CellJoinIndex`.  Every partial result is an
exact int64 count, and integer addition is associative and commutative — so
summing the partials gives **bitwise identical** results for any chunk size,
any worker count, and any completion order.  That is the same determinism
contract as :mod:`repro.parallel.sweep`: parallelism changes where work
runs, never what it computes.

The chunks run on a :class:`~repro.parallel.pool.ResilientPool`: worker
state (the seeker array, the expanded leaf rects, the holder join index and
surviving mask) ships once per pool start with large arrays riding
:mod:`repro.parallel.shm` shared-memory segments, so a task is just a
``(start, stop)`` slice — and a chunk lost to a crashed worker is simply
scored again.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..engine.points import CellJoinIndex, PointGrid
from ..obs import counter_add, trace_span
from .pool import ResilientPool
from .sweep import resolve_workers

__all__ = ["DEFAULT_SEEKER_CHUNK", "score_seeker_chunks"]

#: Seekers per chunk task: large enough to amortise the per-chunk grid
#: build, small enough that candidate-pair buffers stay modest.
DEFAULT_SEEKER_CHUNK = 65_536


def _score_chunk(state: Dict, start: int, stop: int) -> Tuple[np.ndarray, int, int]:
    """Score seekers ``[start, stop)``: per-leaf membership counts plus the
    neighbor-join match totals.  Pure integer outputs — the unit of parity."""
    seekers = state["seekers"][start:stop]
    grid = PointGrid.build(seekers)
    b_in = grid.count_in_rects(state["exp_lo"], state["exp_hi"])
    join_index: CellJoinIndex = state["join_index"]
    matched_total, matched_retained = join_index.join_count(
        seekers, state["distance"], state["surviving_mask"]
    )
    counter_add("matching.seeker_chunks")
    return b_in, matched_total, matched_retained


def score_seeker_chunks(
    exp_lo: np.ndarray,
    exp_hi: np.ndarray,
    join_index: CellJoinIndex,
    seekers: np.ndarray,
    distance: float,
    surviving_mask: Optional[np.ndarray],
    workers: Optional[int] = None,
    chunk: Optional[int] = None,
) -> Tuple[np.ndarray, int, int]:
    """Fan seeker chunks across a process pool; exact integer reassembly.

    Returns ``(b_in, matched_total, matched_retained)`` where ``b_in[i]`` is
    the number of seekers inside expanded leaf rect ``i`` and the match
    totals come from the holder-side join index.  ``workers`` follows
    :func:`repro.parallel.sweep.resolve_workers` (``None``/``0`` one
    in-process worker, negative all cores); results are identical for every
    setting.
    """
    n = int(seekers.shape[0])
    n_workers = resolve_workers(workers)
    chunk_size = DEFAULT_SEEKER_CHUNK if chunk is None else max(1, int(chunk))
    bounds = [(s, min(n, s + chunk_size)) for s in range(0, n, chunk_size)] or [(0, 0)]
    state = {
        "seekers": seekers,
        "exp_lo": exp_lo,
        "exp_hi": exp_hi,
        "join_index": join_index,
        "distance": float(distance),
        "surviving_mask": surviving_mask,
    }
    if n_workers <= 1 or len(bounds) <= 1:
        parts = (_score_chunk(state, start, stop) for start, stop in bounds)
    else:
        counter_add("matching.parallel_runs")
        with trace_span("matching.score_parallel", workers=n_workers, chunks=len(bounds)):
            with ResilientPool(state, min(n_workers, len(bounds)), name="matching") as pool:
                done = pool.run(_score_chunk, {bound: bound for bound in bounds})
        parts = (done[bound] for bound in bounds)
    b_in = np.zeros(exp_lo.shape[0], dtype=np.int64)
    matched_total = 0
    matched_retained = 0
    for part, total, kept in parts:
        b_in += part
        matched_total += total
        matched_retained += kept
    return b_in, matched_total, matched_retained

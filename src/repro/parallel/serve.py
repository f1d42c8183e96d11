"""Sharded query serving: one compiled engine, many worker processes.

:class:`ShardedQueryServer` ships a compiled
:class:`~repro.engine.flat.FlatPSD` to a process pool once per pool start,
and serves every query batch that the **frontier walk** answers by fanning
fixed-size **chunks** across the pool (the ``chunk_queries=`` path of
:func:`repro.engine.batch.batch_query`, which also caps each worker's peak
frontier memory).  Results come back in input order; per-query outputs are
identical to the single-process evaluator because chunking never changes
any query's own accumulation order.

An engine with a **closed form** -- a complete quadtree, for which
:func:`~repro.engine.grid.grid_index` is not ``None``, the same test
:func:`~repro.engine.batch.batch_query` picks its evaluator by -- costs
``O(h)`` lookups per query, less than a dispatch hop to a worker.  The
server decides this once, at construction: such an engine is answered in
the caller, one unchunked ``batch_query`` per batch, and its pool never
starts (fault drills are no-ops, as at ``workers=1``).  Pruned trees,
kd-trees and Hilbert R-trees fan out.

A *memory-mapped* engine (FLATPSD2, :mod:`repro.engine.io`) pickles as
its file's path and identity, about a hundred bytes: every worker maps the
same engine file and the OS page cache holds the single physical copy —
``stats()["engine_mapped_bytes"]`` shows it.  A worker that finds the file
replaced since the parent attached it refuses to start, and the pool's
in-process fallback answers from the parent's mapping, so every answer
comes from the release the server was given.  An engine compiled in RAM
pickles its arrays, one copy per worker.

It is the one path from a serving front-end to
:func:`~repro.engine.batch.batch_query`: ``repro query`` answers through it
at every ``--workers`` value, and ``repro serve`` through the
:class:`~repro.serve.supervisor.EngineSupervisor` that owns one per engine
generation.  ``workers=1`` serves in-process with no pool at all.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple, Union

import numpy as np

from ..engine.batch import BatchQueryResult, QueryInput, batch_query, queries_to_arrays
from ..engine.flat import FlatPSD
from ..engine.grid import grid_index
from ..obs import counter_add, gauge_max
from .pool import ResilientPool

__all__ = ["ShardedQueryServer"]

#: Default number of queries per fanned-out chunk — large enough that worker
#: dispatch overhead is noise, small enough to spread a batch across cores
#: and bound each worker's (q_idx, n_idx) frontier.
DEFAULT_CHUNK_QUERIES = 1024


def _serve_chunk(
    state: Dict, rows: np.ndarray, use_uniformity: bool
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    result = batch_query(state["engine"], rows, use_uniformity=use_uniformity)
    return result.estimates, result.nodes_touched, result.variances


class ShardedQueryServer:
    """Serve batched range queries from a pool of processes over one engine.

    Parameters
    ----------
    engine:
        The compiled engine to serve, shipped to the workers once per pool
        start.
    workers:
        Pool size; ``None``/negative means all cores.
    chunk_queries:
        Queries per fanned-out chunk (also the ``chunk_queries=`` passed to
        each worker's evaluator, capping its frontier memory).

    The pool is a :class:`~repro.parallel.pool.ResilientPool`, started on
    the first sharded batch; an engine with a closed form never starts it
    and answers every batch in the caller, unchunked.  Use the server as a
    context manager (or call :meth:`close`) so the pool is reclaimed
    deterministically.
    """

    def __init__(
        self,
        engine: FlatPSD,
        workers: Optional[int] = None,
        chunk_queries: int = DEFAULT_CHUNK_QUERIES,
    ) -> None:
        from .sweep import resolve_workers

        if chunk_queries < 1:
            raise ValueError("chunk_queries must be at least 1")
        self.engine = engine
        self.chunk_queries = int(chunk_queries)
        self.workers = resolve_workers(workers if workers is not None else -1)
        #: Whether batches fan out: only the frontier walk is worth a worker
        #: (and needs chunks to cap its memory).
        self._frontier = grid_index(engine) is None
        #: A crashed worker costs the caller latency, never an exception: the
        #: pool rebuilds up to ``MAX_REBUILDS`` times per batch, then serves
        #: the rest in-process.
        self._pool = ResilientPool({"engine": engine}, self.workers, name="serve")
        # Plain-int serving stats, kept unconditionally so `repro query
        # --stats` reports them without the metrics registry being enabled.
        self._stats: Dict[str, int] = {
            "batches": 0,
            "sharded_batches": 0,
            "queries": 0,
            "chunks": 0,
        }

    # ------------------------------------------------------------------
    def drill(self, kind: str) -> None:
        """Run one deterministic fault drill through the pool.

        ``kill-worker`` hard-exits whichever worker picks the drill up, so the
        next fanned-out batch observes ``BrokenProcessPool`` and exercises the
        rebuild-and-replay path; ``oom-worker`` raises ``MemoryError`` in a
        worker and returns once the pool has absorbed it.  The pool starts if
        it has not yet.  A server with ``workers <= 1`` or an engine with a
        closed form has no pool: a no-op then, so fault plans compose with
        in-process serving.
        """
        if self.workers > 1 and self._frontier:
            self._pool.drill(kind)

    def batch_query(
        self,
        queries: Union[Iterable[QueryInput], np.ndarray],
        use_uniformity: bool = True,
    ) -> BatchQueryResult:
        """Evaluate a batch, fanning chunks across the pool; input order kept.

        An engine with a closed form is answered here, unchunked.  Worker
        death is survivable: chunks lost to a ``BrokenProcessPool``
        are replayed on a rebuilt pool, and chunks that still cannot be
        served — or whose task raised in the worker, e.g. an OOM — are
        evaluated in-process.  The evaluator is deterministic, so a replayed
        chunk is bitwise identical to a first-try one; callers see added
        latency, never an error.
        """
        qlo, qhi = queries_to_arrays(queries, self.engine.dims)
        n_queries = qlo.shape[0]
        rows = np.hstack([qlo, qhi])
        self._stats["batches"] += 1
        self._stats["queries"] += n_queries
        counter_add("serve.queries", n_queries)
        if not self._frontier:
            return batch_query(self.engine, rows, use_uniformity=use_uniformity)
        if self.workers <= 1 or n_queries <= self.chunk_queries:
            return batch_query(self.engine, rows, use_uniformity=use_uniformity,
                               chunk_queries=self.chunk_queries)
        self._stats["sharded_batches"] += 1
        tasks = {start: (rows[start : start + self.chunk_queries], use_uniformity)
                 for start in range(0, n_queries, self.chunk_queries)}
        gauge_max("serve.queue_depth", len(tasks))
        self._stats["chunks"] += len(tasks)
        counter_add("serve.chunks", len(tasks))
        parts = self._pool.run(_serve_chunk, tasks)
        return BatchQueryResult(
            estimates=np.concatenate([parts[s][0] for s in tasks]),
            nodes_touched=np.concatenate([parts[s][1] for s in tasks]),
            variances=np.concatenate([parts[s][2] for s in tasks]),
        )

    def batch_range_query(
        self,
        queries: Union[Iterable[QueryInput], np.ndarray],
        use_uniformity: bool = True,
    ) -> np.ndarray:
        """The ``(Q,)`` estimates for a batch (sharded)."""
        return self.batch_query(queries, use_uniformity=use_uniformity).estimates

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Serving counters: batches, queries, chunks fanned out, pool
        recovery and memory-mapped engine bytes.

        Always available (plain ints, no registry needed) so the CLI's
        ``--stats`` can report them.
        """
        out = dict(self._stats)
        out["pool_rebuilds"] = self._pool.rebuilds
        out["inproc_fallbacks"] = self._pool.inproc_fallbacks
        out["backoff_sleeps"] = self._pool.backoff_sleeps
        out["workers"] = self.workers
        out["engine_mapped_bytes"] = int(self.engine.mapped_nbytes())
        return out

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down.

        Idempotent, and safe after a worker crash — so a server can always
        be closed, whatever state its pool died in.
        """
        self._pool.close()

    def __enter__(self) -> "ShardedQueryServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

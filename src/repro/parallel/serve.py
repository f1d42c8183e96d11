"""Sharded query serving: one shared compiled engine, many worker processes.

A compiled :class:`~repro.engine.flat.FlatPSD` is a read-only bundle of
arrays — exactly the shape of thing :mod:`repro.parallel.shm` shares for
free.  :class:`ShardedQueryServer` exports the engine into shared memory
once, starts a process pool whose workers attach the same pages, and serves
every query batch by fanning fixed-size **chunks** across the pool (the
``chunk_queries=`` path of :func:`repro.engine.batch.batch_query`, which
also caps each worker's peak frontier memory).  Results come back in input
order; per-query outputs are identical to the single-process evaluator
because chunking never changes any query's own accumulation order.

A precompiled :class:`~repro.engine.batch.QueryMatrix` can be shared the
same way: :meth:`ShardedQueryServer.matrix_dot` ships the CSR buffers once
and splits the release axis across the pool — the serving analogue of the
sweep pipeline's ``S @ counts`` product.

A *memory-mapped* engine (format v2, :mod:`repro.engine.store`) needs no
shared-memory export at all: its arrays pickle as
:class:`~repro.parallel.shm.MappedArrayHandle` file references, so every
worker re-maps the same engine file and the OS page cache holds the single
physical copy.  Serving a mapped engine to N workers therefore costs N tiny
mmap calls, not N (or even 1) array copies — check
``stats()["engine_mapped_bytes"]`` to confirm the zero-copy path is active.

The server composes with the LRU answer cache: pass
``CachedEngine(server.engine, evaluator=server.batch_query)`` so hits are
answered from the (thread-safe) cache and only misses fan out.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple, Union

import numpy as np

from ..engine.batch import BatchQueryResult, QueryInput, batch_query, queries_to_arrays
from ..engine.flat import FlatPSD
from ..obs import counter_add, gauge_max
from .pool import ResilientPool
from .shm import SharedArrayHandle, attach_array

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


def _serve_matrix_rows(
    state: Dict, key: int, start: int, stop: int, counts: "np.ndarray | SharedArrayHandle"
) -> np.ndarray:
    """``(S @ counts)[start:stop]`` without materialising the other rows."""
    from ..engine.batch import QueryMatrix

    if isinstance(counts, SharedArrayHandle):
        counts = attach_array(counts)
    matrix = state["matrices"][key]
    lo, hi = int(matrix.indptr[start]), int(matrix.indptr[stop])
    sliced = QueryMatrix(
        indptr=matrix.indptr[start : stop + 1] - matrix.indptr[start],
        indices=matrix.indices[lo:hi],
        weights=matrix.weights[lo:hi],
        partial=matrix.partial[lo:hi],
        n_nodes=matrix.n_nodes,
    )
    return sliced.dot(counts)


class ShardedQueryServer:
    """Serve batched range queries from a pool of processes over one engine.

    Parameters
    ----------
    engine:
        The compiled engine to serve.  Its arrays are exported to shared
        memory once; workers attach views instead of receiving copies.
    workers:
        Pool size; ``None``/negative means all cores.
    chunk_queries:
        Queries per fanned-out chunk (also the ``chunk_queries=`` passed to
        each worker's evaluator, capping its frontier memory).
    max_rebuilds:
        How many times one batch may rebuild a broken pool before its
        remaining chunks are served in-process.

    The pool is a :class:`~repro.parallel.pool.ResilientPool`, started on
    the first sharded batch.  Use the server as a context manager (or call
    :meth:`close`) so the pool and the shared segments are reclaimed
    deterministically.
    """

    def __init__(
        self,
        engine: FlatPSD,
        workers: Optional[int] = None,
        chunk_queries: int = DEFAULT_CHUNK_QUERIES,
        max_rebuilds: int = 3,
    ) -> None:
        from .sweep import resolve_workers

        if chunk_queries < 1:
            raise ValueError("chunk_queries must be at least 1")
        self.engine = engine
        self.chunk_queries = int(chunk_queries)
        self.workers = resolve_workers(workers if workers is not None else -1)
        self._matrices: Dict[int, object] = {}
        self._next_matrix_key = 0
        #: A crashed worker costs the caller latency, never an exception: the
        #: pool rebuilds up to ``max_rebuilds`` times per batch, then serves
        #: the rest in-process.
        self._pool = ResilientPool({"engine": engine, "matrices": self._matrices},
                                   self.workers, name="serve", max_rebuilds=max_rebuilds)
        # Plain-int serving stats, kept unconditionally (like QueryCache's
        # counters) so `repro query --workers N --stats` reports them without
        # the metrics registry being enabled.
        self._stats: Dict[str, int] = {
            "batches": 0,
            "sharded_batches": 0,
            "queries": 0,
            "chunks": 0,
            "matrix_dots": 0,
        }

    # ------------------------------------------------------------------
    def kill_worker(self) -> None:
        """Crash one pool worker (deterministic fault injection).

        Submits a task that hard-exits whichever worker picks it up; the next
        fanned-out batch observes ``BrokenProcessPool`` and exercises the
        rebuild-and-replay path.  A server whose pool has not started yet (or
        runs with ``workers <= 1``) has no process to kill — a no-op then, so
        fault plans compose with the in-process degenerate case.
        """
        if self.workers > 1 and self._pool.started:
            self._pool.drill("kill-worker")

    def batch_query(
        self,
        queries: Union[Iterable[QueryInput], np.ndarray],
        use_uniformity: bool = True,
    ) -> BatchQueryResult:
        """Evaluate a batch, fanning chunks across the pool; input order kept.

        Worker death is survivable: chunks lost to a ``BrokenProcessPool``
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
    def share_matrix(self, matrix) -> int:
        """Ship a precompiled query matrix's CSR buffers to every worker.

        Returns a key accepted by :meth:`matrix_dot`.  The buffers go through
        shared memory, so the per-worker cost is a few mmaps regardless of
        workload size.  Sharing restarts the pool with the enlarged matrix
        set (worker state is installed by the initializer), so register
        matrices up front rather than between latency-sensitive batches; in
        the ``workers == 1`` degenerate case the matrix is simply kept
        in-process.
        """
        key = self._next_matrix_key
        self._next_matrix_key += 1
        self._matrices[key] = matrix
        self._pool.stop()  # the next fan-out re-installs the full set
        return key

    def matrix_dot(self, key: int, counts: np.ndarray) -> np.ndarray:
        """``S @ counts`` with the query rows sharded across the pool.

        The counts matrix is exported to shared memory once per distinct
        array object (workers attach and cache the view), so repeated dots
        against the same release matrix ship only a tiny handle per chunk —
        a large ``(n_nodes, R)`` matrix is never re-pickled per task.
        Segments live until :meth:`close`, so a server fed a *fresh* counts
        array on every call should be closed periodically (or sized for it).
        """
        matrix = self._matrices[key]
        counts = np.asarray(counts, dtype=np.float64)
        n_queries = matrix.n_queries
        self._stats["matrix_dots"] += 1
        if self.workers <= 1 or n_queries <= self.chunk_queries:
            return matrix.dot(counts)
        arena = self._pool.arena
        shipped = arena.export(counts) if counts.nbytes >= arena.threshold else counts
        tasks = {start: (key, start, min(start + self.chunk_queries, n_queries), shipped)
                 for start in range(0, n_queries, self.chunk_queries)}
        parts = self._pool.run(_serve_matrix_rows, tasks)
        return np.concatenate([parts[start] for start in tasks], axis=0)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Serving counters: batches, queries, chunks fanned out, shm traffic.

        Always available (plain ints, no registry needed) so the CLI's
        ``--stats`` can report the sharded path next to the cache counters.
        """
        out = dict(self._stats)
        out["pool_rebuilds"] = self._pool.rebuilds
        out["inproc_fallbacks"] = self._pool.inproc_fallbacks
        out["workers"] = self.workers
        out["shm_bytes_exported"] = int(self._pool.arena.nbytes())
        out["shm_segments"] = int(self._pool.arena.n_segments)
        out["engine_mapped_bytes"] = int(self.engine.mapped_nbytes())
        return out

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down and unlink the shared segments.

        Idempotent, and safe after a worker crash — so a server can always
        be closed, whatever state its pool died in.
        """
        self._pool.close()

    def __enter__(self) -> "ShardedQueryServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

"""Vectorised batch evaluation of range queries over a compiled PSD.

:func:`batch_query` has two evaluators and picks one from the engine's own
arrays; no option chooses between them:

* **closed form** (:mod:`repro.engine.grid`) for every engine whose arrays
  form a complete 2-D fanout-4 quadtree grid: per-level prefix-sum tables
  give each query's estimate, ``n(Q)`` and ``Err(Q)`` in ``O(h)`` lookups;
* **level-synchronous frontier expansion** (:func:`_evaluate_frontier`) for
  everything else -- pruned trees, kd-trees, Hilbert R-trees -- and the
  reference the closed form is tested against.

The frontier walk (:func:`_frontier_walk`) is also the one
:func:`compile_query_matrix` records instead of accumulating.  Its state is a
pair of parallel index arrays ``(q_idx, n_idx)`` -- every element is one
"query q is examining node n" obligation, exactly the stack entries of a
recursive canonical-decomposition walk, but held all at once.  Each
wavefront:

1. drops pairs whose node does not intersect the query (half-open box test);
2. credits *full* nodes (node rect contained in the query, released count
   present) to their query's accumulator and retires them;
3. credits intersecting *partial leaves* with the uniformity fraction
   ``overlap_area / node_area``;
4. expands every remaining pair into ``(q, child)`` pairs via the contiguous
   BFS child ranges — a single ``np.repeat``, no Python per node.

Because children sit one level below their parents, the loop runs at most
``height + 1`` iterations regardless of how many queries are in flight.  The
same pass accumulates the estimate, ``n(Q)`` (number of counts summed,
partial leaves included) and the analytic variance ``Err(Q)`` of
Equation (1) — partial leaves contribute ``fraction^2 * Var``.

Both evaluators are **storage-dtype agnostic**: the engine's counts may be
stored as float32 and its child offsets as int32 (the reduced-precision
FLATPSD2 layout of :mod:`repro.engine.io`), possibly as read-only
``np.memmap`` views.  Counts are upcast *per element* and all accumulation
happens in float64, so narrowing the storage never compounds — a float32
engine's answers differ from float64 only by the one-time rounding of each
stored count, and ``n(Q)``/the decomposition are identical because geometry
is always float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from ..geometry.rect import Rect
from ..obs import counter_add, gauge_max, metrics_enabled, trace_span
from .flat import FlatPSD, expand_ranges
from .grid import grid_index

__all__ = [
    "BatchQueryResult",
    "QueryMatrix",
    "batch_query",
    "batch_range_query",
    "compile_query_matrix",
    "queries_to_arrays",
]

QueryInput = Union[Rect, Sequence[float], np.ndarray]


@dataclass(frozen=True)
class BatchQueryResult:
    """Per-query outputs of one batch evaluation.

    Attributes
    ----------
    estimates:
        ``(Q,)`` estimated counts (the canonical-decomposition answers).
    nodes_touched:
        ``(Q,)`` the ``n(Q)`` of each query — how many released counts were
        summed (full nodes plus partial leaves).
    variances:
        ``(Q,)`` the analytic ``Err(Q)`` of each query (Equation 1).
    """

    estimates: np.ndarray
    nodes_touched: np.ndarray
    variances: np.ndarray

    def __len__(self) -> int:
        return int(self.estimates.shape[0])


def queries_to_arrays(
    queries: Union[Iterable[QueryInput], np.ndarray], dims: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Normalise a query collection into ``(Q, dims)`` lo / hi arrays.

    Accepts a list of :class:`~repro.geometry.rect.Rect`, a list of flat
    ``(lo..., hi...)`` coordinate rows, or an already-stacked ``(Q, 2 * dims)``
    array.
    """
    if isinstance(queries, np.ndarray) and queries.ndim == 2:
        if queries.shape[1] != 2 * dims:
            raise ValueError(f"query array needs {2 * dims} columns (lo..., hi...)")
        arr = np.asarray(queries, dtype=np.float64)
        return _checked(np.ascontiguousarray(arr[:, :dims]), np.ascontiguousarray(arr[:, dims:]))

    query_list = queries if isinstance(queries, (list, tuple)) else list(queries)
    if query_list and all(isinstance(q, Rect) for q in query_list):
        # Homogeneous Rect input (the common workload shape): one stack over
        # the extracted bounds instead of a per-query Python append loop.
        for query in query_list:
            if query.dims != dims:
                raise ValueError(f"query has {query.dims} dims, engine has {dims}")
        lo = np.asarray([q.lo for q in query_list], dtype=np.float64)
        hi = np.asarray([q.hi for q in query_list], dtype=np.float64)
        return _checked(lo, hi)

    lo_rows = []
    hi_rows = []
    for query in query_list:
        if isinstance(query, Rect):
            if query.dims != dims:
                raise ValueError(f"query has {query.dims} dims, engine has {dims}")
            lo_rows.append(query.lo)
            hi_rows.append(query.hi)
        else:
            row = np.asarray(query, dtype=np.float64).ravel()
            if row.shape[0] != 2 * dims:
                raise ValueError(f"query row needs {2 * dims} values (lo..., hi...)")
            lo_rows.append(row[:dims])
            hi_rows.append(row[dims:])
    if not lo_rows:
        return np.empty((0, dims)), np.empty((0, dims))
    return _checked(np.asarray(lo_rows, dtype=np.float64), np.asarray(hi_rows, dtype=np.float64))


def _checked(qlo: np.ndarray, qhi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Reject inverted or non-finite boxes; Rect enforces both at construction,
    so raw coordinate rows must too (two negative extents would otherwise
    multiply into a positive overlap, and NaN bounds would silently answer 0)."""
    finite = np.isfinite(qlo) & np.isfinite(qhi)
    bad_rows = np.any((qlo > qhi) | ~finite, axis=1)
    if np.any(bad_rows):
        bad = int(np.nonzero(bad_rows)[0][0])
        raise ValueError(f"query {bad}: bounds must be finite with lo <= hi")
    return qlo, qhi


def _expand_children(
    q_idx: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Turn (query, node) pairs into (query, child) pairs for all children."""
    return np.repeat(q_idx, ends - starts), expand_ranges(starts, ends)


def batch_query(
    engine: FlatPSD,
    queries: Union[Iterable[QueryInput], np.ndarray],
    use_uniformity: bool = True,
    chunk_queries: Optional[int] = None,
) -> BatchQueryResult:
    """Answer a batch of range queries in one vectorised pass.

    Semantics are those of the canonical decomposition (Section 4.1): per
    query, the estimate, ``n(Q)`` and ``Err(Q)`` of the recursive walk kept
    as the test oracle (estimates up to float summation order).
    ``use_uniformity=False`` drops the partial-leaf contribution from the
    *estimate* only.  A complete quadtree engine is answered in closed form
    (its index is derived on the first call), any other by the frontier walk.

    ``chunk_queries`` evaluates the batch in slices of at most that many
    queries, capping the peak size of the ``(q_idx, n_idx)`` frontier (a
    100k-query batch over a deep tree can otherwise hold tens of millions of
    in-flight pairs).  Chunking never reorders any single query's
    accumulation — each query's contributions arrive in the same node order
    regardless of which other queries share its wavefront, and the closed
    form computes every query element-wise — so the outputs are identical
    to the unchunked pass, bit for bit.
    """
    qlo, qhi = queries_to_arrays(queries, engine.dims)
    n_queries = qlo.shape[0]
    counter_add("engine.queries", n_queries)
    with trace_span("engine.batch_query", queries=n_queries):
        if chunk_queries is not None:
            chunk = int(chunk_queries)
            if chunk < 1:
                raise ValueError("chunk_queries must be at least 1")
            if n_queries > chunk:
                counter_add("engine.chunks", -(-n_queries // chunk))
                parts = [
                    _evaluate(engine, qlo[start : start + chunk],
                              qhi[start : start + chunk], use_uniformity)
                    for start in range(0, n_queries, chunk)
                ]
                return BatchQueryResult(
                    estimates=np.concatenate([p.estimates for p in parts]),
                    nodes_touched=np.concatenate([p.nodes_touched for p in parts]),
                    variances=np.concatenate([p.variances for p in parts]),
                )
        if n_queries:
            counter_add("engine.chunks", 1)
        return _evaluate(engine, qlo, qhi, use_uniformity)


def _evaluate(
    engine: FlatPSD, qlo: np.ndarray, qhi: np.ndarray, use_uniformity: bool
) -> BatchQueryResult:
    """The closed form where the engine is a complete quadtree grid, the
    frontier walk for every other engine and for the queries the closed form
    cannot reproduce exactly (see :meth:`repro.engine.grid.GridIndex.evaluate`)."""
    index = grid_index(engine) if qlo.shape[0] else None
    if index is None:
        return _evaluate_frontier(engine, qlo, qhi, use_uniformity)
    estimates, touched, variances, exact = index.evaluate(qlo, qhi, use_uniformity)
    counter_add("engine.grid_queries", int(np.count_nonzero(exact)))
    if not exact.all():
        rest = np.flatnonzero(~exact)
        walked = _evaluate_frontier(engine, qlo[rest], qhi[rest], use_uniformity)
        estimates[rest] = walked.estimates
        touched[rest] = walked.nodes_touched
        variances[rest] = walked.variances
    return BatchQueryResult(estimates, touched, variances)


def _frontier_walk(
    engine: FlatPSD, qlo: np.ndarray, qhi: np.ndarray, track_peak: bool = False
) -> Iterator[Tuple[Optional[Tuple[np.ndarray, np.ndarray]],
                    Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]]]:
    """The level-synchronous frontier walk, one wavefront per yield.

    Each wavefront yields ``(full, partial)``: ``full`` is the ``(query,
    node)`` pairs of contained nodes with a released count, ``partial`` the
    ``(query, node, fraction)`` triples of partially covered leaves with a
    released count and a positive overlap (``fraction = overlap / area``);
    either is ``None`` when empty.  Both consumers — the evaluator and the
    query-matrix compiler — take their credits from this one walk.
    ``track_peak`` records the largest frontier as ``engine.frontier_peak``.
    """
    if engine.n_nodes == 0:
        return
    # Wavefront: query q is examining node n, starting with every query at root.
    q_idx = np.arange(qlo.shape[0], dtype=np.int64)
    n_idx = np.zeros(qlo.shape[0], dtype=np.int64)
    peak = 0

    while q_idx.size:
        peak = max(peak, int(q_idx.size))
        node_lo = engine.lo[n_idx]
        node_hi = engine.hi[n_idx]
        cur_qlo = qlo[q_idx]
        cur_qhi = qhi[q_idx]

        intersects = np.all((node_hi > cur_qlo) & (cur_qhi > node_lo), axis=1)
        if not intersects.all():
            q_idx = q_idx[intersects]
            n_idx = n_idx[intersects]
            node_lo = node_lo[intersects]
            node_hi = node_hi[intersects]
            cur_qlo = cur_qlo[intersects]
            cur_qhi = cur_qhi[intersects]
            if not q_idx.size:
                break

        contained = np.all((node_lo >= cur_qlo) & (node_hi <= cur_qhi), axis=1)
        has_count = engine.has_count[n_idx]
        leaf = engine.is_leaf[n_idx]

        full = contained & has_count
        full_pairs = (q_idx[full], n_idx[full]) if full.any() else None

        partial = leaf & has_count & ~contained
        partial_pairs = None
        if partial.any():
            pn = n_idx[partial]
            node_area = engine.area[pn]
            overlap = np.prod(
                np.minimum(node_hi[partial], cur_qhi[partial])
                - np.maximum(node_lo[partial], cur_qlo[partial]),
                axis=1,
            )
            ok = (node_area > 0) & (overlap > 0)
            if ok.any():
                partial_pairs = (q_idx[partial][ok], pn[ok], overlap[ok] / node_area[ok])

        yield full_pairs, partial_pairs

        descend = ~full & ~leaf
        q_idx, n_idx = _expand_children(
            q_idx[descend], engine.child_start[n_idx[descend]], engine.child_end[n_idx[descend]]
        )

    if track_peak and peak:
        gauge_max("engine.frontier_peak", peak)


def _evaluate_frontier(
    engine: FlatPSD, qlo: np.ndarray, qhi: np.ndarray, use_uniformity: bool
) -> BatchQueryResult:
    """One level-synchronous frontier pass over pre-normalised query bounds."""
    n_queries = qlo.shape[0]
    estimates = np.zeros(n_queries, dtype=np.float64)
    touched = np.zeros(n_queries, dtype=np.int64)
    variances = np.zeros(n_queries, dtype=np.float64)

    for full, partial in _frontier_walk(engine, qlo, qhi, track_peak=metrics_enabled()):
        if full is not None:
            fq, fn = full
            # Upcast gathered counts before accumulating: float32 storage
            # rounds each count once at store time, never during summation.
            released = engine.released[fn].astype(np.float64, copy=False)
            estimates += np.bincount(fq, weights=released, minlength=n_queries)
            touched += np.bincount(fq, minlength=n_queries)
            variances += np.bincount(
                fq, weights=engine.level_variance[engine.level[fn]], minlength=n_queries
            )
        if partial is not None:
            pq, pn, fraction = partial
            if use_uniformity:
                released = engine.released[pn].astype(np.float64, copy=False)
                estimates += np.bincount(pq, weights=released * fraction, minlength=n_queries)
            touched += np.bincount(pq, minlength=n_queries)
            variances += np.bincount(
                pq,
                weights=fraction * fraction * engine.level_variance[engine.level[pn]],
                minlength=n_queries,
            )
    return BatchQueryResult(estimates, touched, variances)


def batch_range_query(
    engine: FlatPSD,
    queries: Union[Iterable[QueryInput], np.ndarray],
    use_uniformity: bool = True,
    chunk_queries: Optional[int] = None,
) -> np.ndarray:
    """The ``(Q,)`` estimated counts for a batch of queries."""
    return batch_query(engine, queries, use_uniformity=use_uniformity,
                       chunk_queries=chunk_queries).estimates


# ----------------------------------------------------------------------
# Workload algebra: queries as a sparse incidence matrix over the nodes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QueryMatrix:
    """A workload compiled to a sparse query-to-node incidence matrix ``S``.

    Row ``q`` holds the canonical decomposition of query ``q`` over one tree
    *structure*: weight ``1`` for every exact-cover node and the uniformity
    fraction ``overlap / area`` for every partially covered boundary leaf.
    The decomposition depends only on the geometry and the released-count
    pattern — never on the count *values* — so one matrix answers the same
    workload against **any number of noisy releases** of that structure:
    ``S @ counts_matrix`` replaces one frontier traversal per release.

    Stored in CSR form (``indptr`` / ``indices`` / ``weights``) with a
    ``partial`` mask so both uniformity modes are served by the same matrix.
    """

    indptr: np.ndarray   # (Q + 1,) row offsets into the entry arrays
    indices: np.ndarray  # (nnz,) node index of each entry
    weights: np.ndarray  # (nnz,) 1.0 for full nodes, the fraction for partial leaves
    partial: np.ndarray  # (nnz,) True where the entry is a partial boundary leaf
    n_nodes: int

    @property
    def n_queries(self) -> int:
        return int(self.indptr.shape[0] - 1)

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    def nodes_touched(self) -> np.ndarray:
        """Per-query ``n(Q)``: identical to :attr:`BatchQueryResult.nodes_touched`."""
        return np.diff(self.indptr)

    def _row_sums(self, contrib: np.ndarray) -> np.ndarray:
        """Sum per-entry contributions into per-query rows (CSR row reduce).

        Entries are sorted by query, so consecutive non-empty rows are
        contiguous segments and ``reduceat`` sums each exactly once; empty
        rows (which ``reduceat`` cannot represent) stay zero.
        """
        out = np.zeros((self.n_queries,) + contrib.shape[1:], dtype=np.float64)
        starts = self.indptr[:-1]
        nonempty = starts != self.indptr[1:]
        if np.any(nonempty):
            out[nonempty] = np.add.reduceat(contrib, starts[nonempty], axis=0)
        return out

    def dot(self, counts: np.ndarray, use_uniformity: bool = True) -> np.ndarray:
        """``S @ counts`` — estimates for one or many releases at once.

        ``counts`` is the engine's ``released`` vector (``(n_nodes,)``) or a
        ``(n_nodes, R)`` matrix of released counts, one column per release;
        the result has shape ``(Q,)`` or ``(Q, R)`` accordingly and matches
        :func:`batch_range_query` per release up to float summation order.
        """
        counts = np.asarray(counts, dtype=np.float64)
        if counts.shape[0] != self.n_nodes:
            raise ValueError(
                f"counts has {counts.shape[0]} rows, matrix was compiled over "
                f"{self.n_nodes} nodes"
            )
        weights = self.weights
        if not use_uniformity:
            weights = np.where(self.partial, 0.0, weights)
        gathered = counts[self.indices]
        contrib = gathered * (weights if counts.ndim == 1 else weights[:, None])
        return self._row_sums(contrib)

    def variances(self, level_variance: np.ndarray, node_levels: np.ndarray) -> np.ndarray:
        """Per-query ``Err(Q)`` under the given per-level count variances.

        ``level_variance`` may be ``(height + 1,)`` or ``(height + 1, R)`` —
        releases under different budgets share the decomposition but not the
        variance, so the level axis is the only per-release input needed.
        """
        var = np.asarray(level_variance, dtype=np.float64)[np.asarray(node_levels)[self.indices]]
        w2 = self.weights * self.weights
        contrib = var * (w2 if var.ndim == 1 else w2[:, None])
        return self._row_sums(contrib)


def compile_query_matrix(
    engine: FlatPSD, queries: Union[Iterable[QueryInput], np.ndarray]
) -> QueryMatrix:
    """Compile a workload's canonical decompositions into a :class:`QueryMatrix`.

    One pass of the frontier walk :func:`batch_query` evaluates with records,
    instead of accumulating, every (query, node, weight) obligation: full
    nodes with weight 1 and partially covered leaves with their uniformity
    fraction.  ``S.dot(engine.released)`` then equals
    ``batch_range_query(engine, queries)`` up to float summation order, and
    ``S.dot(counts_matrix)`` evaluates every release of a sweep in one product.
    """
    with trace_span("engine.compile_matrix"):
        matrix = _compile_query_matrix(engine, queries)
    counter_add("engine.matrices_compiled", 1)
    return matrix


def _compile_query_matrix(
    engine: FlatPSD, queries: Union[Iterable[QueryInput], np.ndarray]
) -> QueryMatrix:
    qlo, qhi = queries_to_arrays(queries, engine.dims)
    n_queries = qlo.shape[0]
    q_parts = []
    n_parts = []
    w_parts = []
    p_parts = []
    for full, partial in _frontier_walk(engine, qlo, qhi):
        if full is not None:
            fq, fn = full
            q_parts.append(fq)
            n_parts.append(fn)
            w_parts.append(np.ones(fq.size))
            p_parts.append(np.zeros(fq.size, dtype=bool))
        if partial is not None:
            pq, pn, fraction = partial
            q_parts.append(pq)
            n_parts.append(pn)
            w_parts.append(fraction)
            p_parts.append(np.ones(pq.size, dtype=bool))

    if q_parts:
        q_all = np.concatenate(q_parts)
        order = np.argsort(q_all, kind="stable")
        q_all = q_all[order]
        indices = np.concatenate(n_parts)[order]
        weights = np.concatenate(w_parts)[order]
        partial = np.concatenate(p_parts)[order]
    else:
        q_all = np.empty(0, dtype=np.int64)
        indices = np.empty(0, dtype=np.int64)
        weights = np.empty(0)
        partial = np.empty(0, dtype=bool)
    counts_per_query = np.bincount(q_all, minlength=n_queries)
    indptr = np.concatenate(([0], np.cumsum(counts_per_query)))
    return QueryMatrix(indptr=indptr, indices=indices, weights=weights,
                       partial=partial, n_nodes=engine.n_nodes)

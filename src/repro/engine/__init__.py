"""Compiled, read-optimised query engine for released PSDs.

A private spatial decomposition is a *publish-once, query-many* artifact: the
data owner builds it a single time under a privacy budget, and consumers then
answer arbitrarily many range queries from the released counts.  This package
compiles any built PSD — quadtree, kd-tree or Hilbert R-tree, complete or
pruned — into a frozen **flat structure-of-arrays** form and evaluates range
queries over it with vectorised NumPy kernels; it is the only query path a
PSD has:

* :mod:`repro.engine.flat` — the compiler.  Nodes are laid out in
  breadth-first order so each node's children occupy a contiguous index range;
  the tree becomes a handful of parallel arrays (``lo``/``hi`` rect bounds,
  levels, released counts, a has-released-count mask, child offset ranges,
  areas) plus per-level epsilon/variance tables.  Compilation is lossless for
  query purposes: the arrays capture exactly the released information the
  canonical decomposition of Section 4.1 consumes.  A PSD already *is* BFS
  arrays (:mod:`repro.core.flatbuild`), so compiling one is a cheap array
  snapshot.  A Hilbert R-tree compiles to its planar engine, whose node
  rectangles are the planar bounding boxes of the nodes' Hilbert-index
  intervals (one vectorised pass), so it answers planar queries.
* :mod:`repro.engine.batch` — the evaluator.  Many queries are answered at
  once.  Engines whose arrays form a complete 2-D quadtree grid take the
  closed form of :mod:`repro.engine.grid`: per-level prefix-sum tables give
  each query's estimate, ``n(Q)`` and ``Err(Q)`` in ``O(h)`` lookups.  Every
  other engine takes level-synchronous frontier expansion: one
  ``(query, node)`` pair array per wavefront, with containment /
  intersection / leaf-fraction logic expressed as NumPy masks.  Both match
  the recursive pointer walk kept as the test oracle (identical ``n(Q)``,
  estimates and ``Err(Q)`` equal up to float summation order).
* :mod:`repro.engine.io` — the release file.  FLATPSD2 is the one release
  artifact: ``repro build`` writes it and every consumer attaches it.
  :func:`save_engine` and :func:`load_engine` are its one writer and one
  reader.  Arrays sit uncompressed at page-aligned offsets and attach via
  ``np.memmap`` in microseconds, counts may be stored in reduced precision
  (float32 counts / int32 child offsets), and the header's ``release``
  block says whether the counts are OLS estimates and how the budget was
  split.

Every PSD query method (``range_query``, ``nodes_touched``,
``query_variance``, ``batch_range_query``) answers from the engine memoised
on the PSD; post-processing and pruning drop the memo, so a mutated tree is
recompiled on its next query and never served stale.

Answers are not cached.  An answer is post-processing of the released
counts — a pure function of the arrays and the rect — and the evaluator
recomputes it for less than a dictionary lookup of a canonicalised rect
would cost on the closed form.
"""

from .batch import (
    BatchQueryResult,
    QueryMatrix,
    batch_query,
    batch_range_query,
    compile_query_matrix,
)
from .flat import (
    FlatPSD,
    compile_psd,
    compiled_engine,
    invalidate_compiled_engine,
)
from .io import (
    PRECISIONS,
    EngineIntegrityError,
    engine_with_precision,
    is_engine_file,
    load_engine,
    save_engine,
)
from .points import CellJoinIndex, PointGrid, matching_cell_layout

__all__ = [
    "FlatPSD",
    "compile_psd",
    "compiled_engine",
    "invalidate_compiled_engine",
    "BatchQueryResult",
    "QueryMatrix",
    "batch_query",
    "batch_range_query",
    "compile_query_matrix",
    "CellJoinIndex",
    "PointGrid",
    "matching_cell_layout",
    "save_engine",
    "load_engine",
    "is_engine_file",
    "PRECISIONS",
    "EngineIntegrityError",
    "engine_with_precision",
]

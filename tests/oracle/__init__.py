"""Test oracles: the pointer-tree and seed-era implementations of the paper.

Production code (``src/repro``) keeps every private spatial decomposition in
one representation, the breadth-first arrays of
:class:`repro.core.flatbuild.FlatTree`, and answers every query from the
compiled flat engine.  The implementations those arrays replaced live here,
unchanged in substance, as the readable executable specification:

* :mod:`oracle.tree` — :class:`PSDNode`, the pointer-backed
  :class:`PointerPSD`, and the conversions to and from the BFS arrays;
* :mod:`oracle.median` — the scalar private medians (each a batch of one
  segment of its registry record), the per-node Figure 4 loop over them and
  the normalized rank error it scores each split by;
* :mod:`oracle.splits` — the per-node split of every production rule
  (scalar private medians, per-rect grid medians, geometric routing that puts
  each point in exactly one child), and the full-weight grid median the
  prefix-sum form replaced;
* :mod:`oracle.build` — the per-node build pipeline (pointer structure,
  scalar noise draws, recursive OLS, top-down pruning) and the sequential
  loop of pointer builds a release batch is held to;
* :mod:`oracle.query` — the recursive canonical decomposition (estimates,
  ``n(Q)``, ``n_i``, ``Err(Q)``), the planar Hilbert walk and the
  pointer-walking engine compiler;
* :mod:`oracle.grid` — the per-depth loop of the closed form on complete
  quadtrees, the bitwise reference of the fused evaluator;
* :mod:`oracle.hilbert` — the Hilbert-interval formulation of a planar
  query (rectangle → index intervals → summed 1-D answers);
* :mod:`oracle.matching` — the seed-era record-matching blocking loop;
* :mod:`oracle.workload` — per-attempt query workload generation with
  brute-force true answers.

Nothing under ``src/`` imports this package.  Tests import it as ``oracle``
(pytest puts ``tests/`` on ``sys.path``); scripts outside ``tests/`` insert
that directory first.
"""

from .build import (
    apply_ols,
    build_private_hilbert_rtree,
    build_private_kdtree,
    build_private_quadtree,
    build_psd,
    check_consistency,
    ols_estimate_tree,
    pointer_builds,
    populate_noisy_counts,
    prune_low_count_subtrees,
)
from .grid import evaluate_per_depth
from .hilbert import range_query_intervals, rect_to_ranges
from .matching import blocking_reference, reference_blocking
from .median import fig4_rows, per_node, rank_error
from .query import (
    HilbertPointerView,
    compile_psd,
    contributing_nodes,
    hilbert_range_query,
    hilbert_view,
    node_bbox,
    node_bboxes,
    nodes_touched,
    nodes_touched_per_level,
    query_variance,
    range_query,
)
from .splits import domain_aware_mask, full_weight_grid_median, grid_median_along_axis, split_node
from .tree import (
    PointerPSD,
    PSDNode,
    bfs_order,
    flatten_tree,
    leaves,
    materialize_nodes,
    nodes,
    pointer_view,
    root,
)
from .workload import per_attempt_workload

__all__ = [
    "PSDNode",
    "PointerPSD",
    "pointer_view",
    "root",
    "nodes",
    "leaves",
    "bfs_order",
    "materialize_nodes",
    "flatten_tree",
    "per_node",
    "fig4_rows",
    "rank_error",
    "split_node",
    "grid_median_along_axis",
    "full_weight_grid_median",
    "domain_aware_mask",
    "build_psd",
    "populate_noisy_counts",
    "apply_ols",
    "ols_estimate_tree",
    "check_consistency",
    "prune_low_count_subtrees",
    "pointer_builds",
    "build_private_quadtree",
    "build_private_kdtree",
    "build_private_hilbert_rtree",
    "contributing_nodes",
    "range_query",
    "nodes_touched",
    "nodes_touched_per_level",
    "query_variance",
    "compile_psd",
    "HilbertPointerView",
    "hilbert_view",
    "node_bbox",
    "node_bboxes",
    "hilbert_range_query",
    "evaluate_per_depth",
    "rect_to_ranges",
    "range_query_intervals",
    "blocking_reference",
    "reference_blocking",
    "per_attempt_workload",
]

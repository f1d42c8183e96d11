"""The recursive canonical-decomposition walk (Section 4.1) over pointer trees.

Seed-era reference for every query answer the compiled engine of
:mod:`repro.engine` serves: estimates, ``n(Q)``, its per-level breakdown and
``Err(Q)``, the planar R-tree walk over a Hilbert R-tree's node bounding
boxes, and the pointer-walking engine compiler the array snapshot replaced.
Every function accepts a production PSD (its pointer view is materialised)
or a :class:`~oracle.tree.PointerPSD`.  A Hilbert R-tree (a PSD carrying a
``curve``) is walked over its planar node boxes, as its engine is compiled;
the Hilbert functions also accept a :class:`HilbertPointerView` (materialise
one with :func:`hilbert_view` to reuse it across queries).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.engine.flat import FlatPSD, level_variances
from repro.geometry.rect import Rect
from repro.privacy.mechanisms import laplace_variance

from .tree import PSDNode, PointerPSD, bfs_order, pointer_view

__all__ = [
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
]


def _has_released_count(psd: PointerPSD, node: PSDNode) -> bool:
    """Whether the node carries a usable released count."""
    if node.post_count is not None:
        return True
    return psd.count_epsilons[node.level] > 0 and np.isfinite(node.noisy_count)


def contributing_nodes(psd, query: Rect) -> Tuple[List[PSDNode], List[Tuple[PSDNode, float]]]:
    """The nodes the canonical decomposition uses to answer ``query``.

    Returns ``(full, partial)`` where ``full`` are nodes counted whole and
    ``partial`` are leaf nodes counted with the given area fraction under the
    uniformity assumption.
    """
    psd = pointer_view(psd)
    rect_of = _rect_of(psd)
    full: List[PSDNode] = []
    partial: List[Tuple[PSDNode, float]] = []
    stack = [psd.root]
    while stack:
        node = stack.pop()
        rect = rect_of(node)
        if not rect.intersects(query):
            continue
        contained = query.contains_rect(rect)
        if contained and _has_released_count(psd, node):
            full.append(node)
            continue
        if node.is_leaf:
            if not _has_released_count(psd, node):
                continue
            if contained:
                full.append(node)
            elif rect.area > 0:
                fraction = rect.intersection_area(query) / rect.area
                if fraction > 0:
                    partial.append((node, fraction))
            continue
        stack.extend(node.children)
    return full, partial


def range_query(psd, query: Rect, use_uniformity: bool = True) -> float:
    """Estimated number of points of the private dataset falling inside ``query``."""
    full, partial = contributing_nodes(psd, query)
    total = sum(node.released_count for node in full)
    if use_uniformity:
        total += sum(node.released_count * fraction for node, fraction in partial)
    return float(total)


def nodes_touched(psd, query: Rect) -> int:
    """``n(Q)``: how many released counts are summed to answer ``query``."""
    full, partial = contributing_nodes(psd, query)
    return len(full) + len(partial)


def nodes_touched_per_level(psd, query: Rect) -> dict:
    """``n_i``: the per-level breakdown of touched nodes (Lemma 2's quantity)."""
    full, partial = contributing_nodes(psd, query)
    counts: dict = {}
    for node in full:
        counts[node.level] = counts.get(node.level, 0) + 1
    for node, _ in partial:
        counts[node.level] = counts.get(node.level, 0) + 1
    return counts


def query_variance(psd, query: Rect) -> float:
    """The analytic error measure ``Err(Q) = sum over touched nodes of Var``."""
    psd = pointer_view(psd)
    full, partial = contributing_nodes(psd, query)
    total = 0.0
    for node in full:
        eps = psd.count_epsilons[node.level]
        if eps > 0:
            total += laplace_variance(eps)
    for node, fraction in partial:
        eps = psd.count_epsilons[node.level]
        if eps > 0:
            total += fraction * fraction * laplace_variance(eps)
    return total


# ----------------------------------------------------------------------
# The pointer-walking engine compiler
# ----------------------------------------------------------------------
def _rect_of(psd: PointerPSD):
    """A node's query rectangle: its own, or a Hilbert R-tree's planar box."""
    if psd.curve is None:
        return lambda node: node.rect
    view = hilbert_view(psd)
    return lambda node: node_bbox(view, node)


def compile_psd(psd) -> FlatPSD:
    """Compile a pointer tree into the engine arrays by walking its nodes
    (one ``node_bbox`` per node for a Hilbert R-tree)."""
    psd = pointer_view(psd)
    domain = psd.domain if psd.curve is None else psd.planar_domain
    return _compile(psd, _rect_of(psd), domain, psd.name)


def _freeze(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _compile(psd: PointerPSD, rect_of, domain, name: str) -> FlatPSD:
    # Breadth-first order (the canonical array order): every node's children
    # end up in one contiguous index range.
    order: List[PSDNode] = bfs_order(psd.root)
    n = len(order)
    dims = domain.dims

    starts = np.empty(n, dtype=np.int64)
    ends = np.empty(n, dtype=np.int64)
    pos = 1
    for idx, node in enumerate(order):
        starts[idx] = pos
        pos += len(node.children)
        ends[idx] = pos

    lo = np.empty((n, dims), dtype=np.float64)
    hi = np.empty((n, dims), dtype=np.float64)
    level = np.empty(n, dtype=np.int32)
    released = np.zeros(n, dtype=np.float64)
    has_count = np.zeros(n, dtype=bool)
    eps = np.asarray(psd.count_epsilons, dtype=np.float64)
    for idx, node in enumerate(order):
        rect = rect_of(node)
        lo[idx] = rect.lo
        hi[idx] = rect.hi
        level[idx] = node.level
        if _has_released_count(psd, node):
            released[idx] = node.released_count
            has_count[idx] = True

    return FlatPSD(
        lo=_freeze(lo),
        hi=_freeze(hi),
        level=_freeze(level),
        released=_freeze(released),
        has_count=_freeze(has_count),
        is_leaf=_freeze(ends == starts),
        child_start=_freeze(starts),
        child_end=_freeze(ends),
        area=_freeze(np.prod(hi - lo, axis=1)),
        count_epsilons=_freeze(eps),
        level_variance=_freeze(level_variances(eps)),
        height=psd.height,
        fanout=psd.fanout,
        release={"ols": order[0].post_count is not None, "metadata": dict(psd.metadata)},
        name=name,
        domain_lo=_freeze(np.asarray(domain.rect.lo, dtype=np.float64)),
        domain_hi=_freeze(np.asarray(domain.rect.hi, dtype=np.float64)),
        domain_name=domain.name,
    )


# ----------------------------------------------------------------------
# The planar Hilbert R-tree walk
# ----------------------------------------------------------------------
class HilbertPointerView:
    """A Hilbert R-tree as a pointer tree plus its per-node bounding-box cache."""

    def __init__(self, tree) -> None:
        self.psd = pointer_view(tree)
        self.curve = self.psd.curve
        self.bbox_cache: Dict[int, Rect] = {}


def hilbert_view(tree) -> HilbertPointerView:
    """The pointer view of a Hilbert R-tree (returned unchanged if it is one).

    A pointer tree keeps its view, so its box cache serves every query."""
    if isinstance(tree, HilbertPointerView):
        return tree
    psd = pointer_view(tree)
    view = getattr(psd, "_hilbert_view", None)
    if view is None:
        view = psd._hilbert_view = HilbertPointerView(psd)
    return view


def node_bbox(tree, node: PSDNode) -> Rect:
    """Planar bounding box of a node's Hilbert-index interval (cached).

    The box depends only on the interval and the public curve, never on the
    data, so computing and releasing it is privacy-free.
    """
    from repro.core.hilbert_rtree import hilbert_interval_bounds

    view = hilbert_view(tree)
    key = id(node)
    cached = view.bbox_cache.get(key)
    if cached is not None:
        return cached
    lo_idx, hi_idx = hilbert_interval_bounds(node.rect.lo[:1], node.rect.hi[:1], view.curve)
    bbox = view.curve.range_bbox(int(lo_idx[0]), int(hi_idx[0]))
    view.bbox_cache[key] = bbox
    return bbox


def node_bboxes(tree) -> List[Tuple[int, Rect]]:
    """``(level, planar box)`` of every node in BFS order, one node at a time."""
    view = hilbert_view(tree)
    return [(node.level, node_bbox(view, node)) for node in bfs_order(view.psd.root)]


def hilbert_range_query(tree, query: Rect) -> float:
    """Estimated number of points inside a planar query rectangle.

    R-tree-style canonical decomposition over the node bounding boxes: a node
    whose box lies inside the query contributes its whole released count;
    boxes that merely intersect are descended into; partially covered leaves
    contribute under a uniformity assumption proportional to the overlapped
    fraction of their box.
    """
    view = hilbert_view(tree)
    total = 0.0
    stack = [view.psd.root]
    while stack:
        node = stack.pop()
        bbox = node_bbox(view, node)
        if not bbox.intersects(query):
            continue
        has_count = _has_released_count(view.psd, node)
        if query.contains_rect(bbox) and has_count:
            total += node.released_count
            continue
        if node.is_leaf:
            if has_count and bbox.area > 0:
                total += node.released_count * bbox.intersection_area(query) / bbox.area
            continue
        stack.extend(node.children)
    return float(total)

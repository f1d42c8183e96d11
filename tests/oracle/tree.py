"""The pointer tree: one :class:`PSDNode` object per node.

This was the seed-era storage of a private spatial decomposition.  Production
code keeps every PSD in the breadth-first arrays of
:class:`repro.core.flatbuild.FlatTree`; the pointer form survives here as the
readable executable specification the parity suites compare against.

:class:`PointerPSD` is a pointer-backed PSD (what ``build_psd`` used to
return for ``layout="pointer"``), and :func:`pointer_view` materialises one
from a production PSD's arrays so tests can walk its nodes.  The conversions
between the two forms (:func:`bfs_order`, :func:`materialize_nodes`,
:func:`flatten_tree`) define the canonical BFS node order in one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.flatbuild import FlatTree
from repro.geometry.domain import Domain
from repro.geometry.rect import Rect
from repro.privacy.accountant import PrivacyAccountant

__all__ = ["PSDNode", "PointerPSD", "pointer_view", "root", "nodes", "leaves", "bfs_order",
           "materialize_nodes", "flatten_tree"]


@dataclass
class PSDNode:
    """One node of a private spatial decomposition.

    Attributes
    ----------
    rect:
        The axis-aligned region the node is responsible for.
    level:
        Height of the node: leaves are level 0 and the root is level ``h``
        (the paper's convention).
    noisy_count:
        The Laplace-noised count released for this node (``nan`` when the
        level's count budget is zero and no count is released).
    post_count:
        The count after OLS post-processing, populated by
        :func:`oracle.build.apply_ols`.  ``None`` until then.
    split_axis, split_value:
        For data-dependent nodes, the (privately chosen, hence releasable)
        split that produced the children.
    children:
        Child nodes, empty for leaves.
    """

    rect: Rect
    level: int
    noisy_count: float = float("nan")
    post_count: Optional[float] = None
    split_axis: Optional[int] = None
    split_value: Optional[float] = None
    children: List["PSDNode"] = field(default_factory=list)
    _true_count: int = 0

    # ------------------------------------------------------------------
    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def released_count(self) -> float:
        """The count a query should use: post-processed if available, else noisy."""
        if self.post_count is not None:
            return self.post_count
        return self.noisy_count

    def iter_subtree(self) -> Iterator["PSDNode"]:
        """Pre-order traversal of the subtree rooted here."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def subtree_size(self) -> int:
        return sum(1 for _ in self.iter_subtree())


class PointerPSD:
    """A private spatial decomposition stored as a :class:`PSDNode` tree.

    Same attributes as :class:`repro.core.tree.PrivateSpatialDecomposition`
    with ``root`` in place of ``flat_tree``; its queries run the recursive
    walk of :mod:`oracle.query` (over the planar node boxes when it carries
    a Hilbert ``curve``), and :mod:`oracle.build` post-processes and prunes
    it.
    """

    def __init__(
        self,
        root: PSDNode,
        domain: Domain,
        height: int,
        fanout: int,
        count_epsilons: Sequence[float],
        accountant: Optional[PrivacyAccountant] = None,
        name: str = "psd",
        metadata: Optional[Dict[str, object]] = None,
    ) -> None:
        self.root = root
        self.domain = domain
        self.height = int(height)
        self.fanout = int(fanout)
        self.count_epsilons = tuple(float(e) for e in count_epsilons)
        self.accountant = accountant
        self.name = name
        self.metadata: Dict[str, object] = {} if metadata is None else metadata
        self.curve = self.planar_domain = None

    # ------------------------------------------------------------------
    def nodes(self) -> Iterator[PSDNode]:
        """All nodes in pre-order."""
        return self.root.iter_subtree()

    def leaves(self) -> List[PSDNode]:
        """All current leaves (after any pruning)."""
        return [n for n in self.nodes() if n.is_leaf]

    def node_count(self) -> int:
        return self.root.subtree_size()

    def nodes_by_level(self) -> Dict[int, List[PSDNode]]:
        """Nodes grouped by level."""
        by_level: Dict[int, List[PSDNode]] = {}
        for node in self.nodes():
            by_level.setdefault(node.level, []).append(node)
        return by_level

    def is_complete(self) -> bool:
        for node in self.nodes():
            if node.is_leaf:
                if node.level != 0:
                    return False
            elif len(node.children) != self.fanout:
                return False
        return True

    # ------------------------------------------------------------------
    def range_query(self, query: Rect, use_uniformity: bool = True) -> float:
        from .query import range_query

        return range_query(self, query, use_uniformity=use_uniformity)

    def nodes_touched(self, query: Rect) -> int:
        from .query import nodes_touched

        return nodes_touched(self, query)

    def query_variance(self, query: Rect) -> float:
        from .query import query_variance

        return query_variance(self, query)


def pointer_view(psd) -> PointerPSD:
    """A pointer tree materialised from a production PSD's arrays.

    The view is a snapshot: editing its nodes never touches ``psd``.  A
    :class:`PointerPSD` is returned unchanged.
    """
    if isinstance(psd, PointerPSD):
        return psd
    view = PointerPSD(
        root=materialize_nodes(psd.flat_tree),
        domain=psd.domain,
        height=psd.height,
        fanout=psd.fanout,
        count_epsilons=psd.count_epsilons,
        accountant=psd.accountant,
        name=psd.name,
        metadata=dict(psd.metadata),
    )
    view.curve, view.planar_domain = psd.curve, psd.planar_domain
    return view


def root(psd) -> PSDNode:
    """The root node of ``psd`` (either storage); a fresh snapshot per call."""
    return pointer_view(psd).root


def nodes(psd) -> List[PSDNode]:
    """Every node of ``psd`` (either storage) in pre-order."""
    return list(pointer_view(psd).nodes())


def leaves(psd) -> List[PSDNode]:
    """The current leaves of ``psd`` (either storage)."""
    return pointer_view(psd).leaves()


def bfs_order(root) -> list:
    """Nodes of a pointer tree in breadth-first order, root first.

    This is **the** canonical order of the flat arrays: every conversion
    between the pointer view and the array form (materialise, flatten, engine
    compile, level-ordered noise draws) must agree with it, so it lives in
    exactly one place.
    """
    order = [root]
    i = 0
    while i < len(order):
        order.extend(order[i].children)
        i += 1
    return order


def materialize_nodes(tree: FlatTree):
    """Build the pointer :class:`PSDNode` view of a flat tree.

    Returns the root node.
    """
    n = tree.n_nodes
    post = tree.post_count
    nodes = [
        PSDNode(
            rect=Rect(tuple(tree.lo[i]), tuple(tree.hi[i])),
            level=int(tree.level[i]),
            noisy_count=float(tree.noisy_count[i]),
            post_count=None if post is None else float(post[i]),
            _true_count=int(tree.true_count[i]),
        )
        for i in range(n)
    ]
    for i in range(n):
        start, stop = int(tree.child_start[i]), int(tree.child_end[i])
        if stop > start:
            nodes[i].children = nodes[start:stop]
    return nodes[0]


def flatten_tree(psd) -> Tuple[list, FlatTree]:
    """Flatten any pointer-backed PSD into BFS arrays.

    Returns ``(order, tree)`` where ``order`` is the list of nodes in BFS
    order (``order[i]`` corresponds to row ``i`` of every array).
    """
    order = bfs_order(psd.root)
    n = len(order)
    dims = psd.domain.dims

    lo = np.empty((n, dims))
    hi = np.empty((n, dims))
    level = np.empty(n, dtype=np.int32)
    parent = np.full(n, -1, dtype=np.int64)
    child_start = np.empty(n, dtype=np.int64)
    child_end = np.empty(n, dtype=np.int64)
    true_count = np.empty(n, dtype=np.int64)
    noisy = np.empty(n)
    any_post = any(node.post_count is not None for node in order)
    post = np.full(n, np.nan) if any_post else None

    index = {id(node): i for i, node in enumerate(order)}
    pos = 1
    for i, node in enumerate(order):
        lo[i] = node.rect.lo
        hi[i] = node.rect.hi
        level[i] = node.level
        true_count[i] = node._true_count
        noisy[i] = node.noisy_count
        if post is not None and node.post_count is not None:
            post[i] = node.post_count
        child_start[i] = pos
        pos += len(node.children)
        child_end[i] = pos
        for child in node.children:
            parent[index[id(child)]] = i

    return order, FlatTree(
        lo=lo,
        hi=hi,
        level=level,
        parent=parent,
        child_start=child_start,
        child_end=child_end,
        true_count=true_count,
        noisy_count=noisy,
        post_count=post,
        height=psd.height,
        fanout=psd.fanout,
    )

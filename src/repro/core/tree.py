"""The released private spatial decomposition.

A PSD is a complete hierarchical decomposition of the data domain into nested
rectangles, where every node carries a *noisy* count released via the Laplace
mechanism.  :class:`PrivateSpatialDecomposition` is the released object: it
knows the per-level privacy parameters, answers range queries by the canonical
decomposition of Section 4.1, and exposes the post-processing (Section 5) and
pruning (Section 7) steps as methods that transform the released counts
without touching the underlying data.

The tree has exactly one representation: the breadth-first
structure-of-arrays :class:`repro.core.flatbuild.FlatTree`.  Noise
population, OLS post-processing and pruning run as vectorized per-level array
transforms on it, and queries are answered by the compiled flat engine of
:mod:`repro.engine`, memoised on the PSD and dropped whenever the counts
change.

A private Hilbert R-tree (Sections 3.2-3.3) is the same object: its tree is
the binary index tree over one-dimensional Hilbert values, which post-processing
and pruning act on, and it carries the public ``curve`` and the ``planar_domain``
beside it.  Its compiled engine's node rectangles are then the planar
bounding boxes of each node's index interval, so queries are planar.

The arrays also carry the *true* counts (``FlatTree.true_count``); they exist
so the test-suite and the non-private baselines (``kd-pure`` / ``kd-true``)
can compute ground truth, and they are explicitly **not** part of the private
release.  :meth:`PrivateSpatialDecomposition.strip_private_fields` zeroes them
to model handing the structure to an untrusted party.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence

import numpy as np

from ..geometry.domain import Domain
from ..geometry.rect import Rect
from ..privacy.accountant import PrivacyAccountant

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..geometry.hilbert import HilbertCurve
    from .flatbuild import FlatTree

__all__ = ["PrivateSpatialDecomposition"]


class PrivateSpatialDecomposition:
    """A released private spatial decomposition.

    Attributes
    ----------
    flat_tree:
        The tree in breadth-first structure-of-arrays form
        (:class:`~repro.core.flatbuild.FlatTree`); node 0 is the root,
        covering the whole domain.
    domain:
        The public data domain.
    height:
        Tree height ``h``: root level ``h``, leaves level 0.
    fanout:
        Fanout of internal nodes (4 for quadtrees and flattened kd-trees,
        2 for binary trees such as the Hilbert R-tree).
    count_epsilons:
        ``count_epsilons[i]`` is the Laplace parameter used for node counts at
        level ``i`` (length ``height + 1``); zero means no count was released
        at that level.
    accountant:
        The privacy accountant recording every charge made while building.
    name:
        Label used in experiment output (e.g. ``"quad-opt"``).
    metadata:
        Release facts only: split rule, count budget and the ε split.
    curve, planar_domain:
        For a Hilbert R-tree, the public Hilbert curve that maps the plane
        onto ``domain`` (the index space) and the planar data domain, both
        attached by its builder; ``None`` for every other tree.
    compiled_engines:
        Memoised compiled engines (:mod:`repro.engine.flat`).
    """

    def __init__(
        self,
        flat: "FlatTree",
        domain: Domain,
        count_epsilons: Sequence[float],
        accountant: Optional[PrivacyAccountant] = None,
        name: str = "psd",
        metadata: Optional[Dict[str, object]] = None,
    ) -> None:
        self.flat_tree = flat
        self.domain = domain
        self.height = int(flat.height)
        self.fanout = int(flat.fanout)
        self.count_epsilons = tuple(float(e) for e in count_epsilons)
        self.accountant = accountant
        self.name = name
        self.metadata: Dict[str, object] = {} if metadata is None else metadata
        self.curve: Optional["HilbertCurve"] = None
        self.planar_domain: Optional[Domain] = None
        self.compiled_engines: Dict[str, object] = {}
        if len(self.count_epsilons) != self.height + 1:
            raise ValueError("count_epsilons must have exactly height + 1 entries (levels 0..h)")
        if self.fanout < 2:
            raise ValueError("fanout must be at least 2")

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    def node_count(self) -> int:
        """Total number of nodes currently in the tree."""
        return self.flat_tree.n_nodes

    def leaf_count(self) -> int:
        """Number of current leaves (after any pruning)."""
        return self.flat_tree.leaf_count()

    def is_complete(self) -> bool:
        """True if every internal node has exactly ``fanout`` children and all
        leaves sit at level 0 (required by the OLS post-processing)."""
        return self.flat_tree.is_complete()

    # ------------------------------------------------------------------
    # Query answering (the memoised compiled engine)
    # ------------------------------------------------------------------
    def range_query(self, query: Rect, use_uniformity: bool = True) -> float:
        """Estimated number of data points inside ``query`` (Section 4.1)."""
        return self.compile().range_query(query, use_uniformity=use_uniformity)

    def nodes_touched(self, query: Rect) -> int:
        """Number of node counts summed when answering ``query`` (``n(Q)``)."""
        return self.compile().nodes_touched(query)

    def query_variance(self, query: Rect) -> float:
        """The analytic error measure ``Err(Q)`` = sum of touched node variances."""
        return self.compile().query_variance(query)

    def compile(self):
        """The memoised flat array engine for this tree (see :mod:`repro.engine`);
        planar for a Hilbert R-tree."""
        from ..engine.flat import compiled_engine

        return compiled_engine(self)

    def batch_range_query(self, queries, use_uniformity: bool = True):
        """Answer a whole workload in one vectorized pass over the flat engine.

        Per-query results equal :meth:`range_query`; this is the serving path
        the experiment runners use.
        """
        from ..engine.batch import batch_range_query as _batch_range_query

        return _batch_range_query(self.compile(), queries, use_uniformity=use_uniformity)

    # ------------------------------------------------------------------
    # Post-processing and pruning (released-data transformations)
    # ------------------------------------------------------------------
    def postprocess(self) -> "PrivateSpatialDecomposition":
        """Apply the OLS post-processing of Section 5 in place and return self."""
        from .postprocess import apply_ols

        apply_ols(self)
        return self

    def prune(self, threshold: float) -> "PrivateSpatialDecomposition":
        """Remove descendants of nodes with released count below ``threshold``."""
        from .pruning import prune_low_count_subtrees

        prune_low_count_subtrees(self, threshold)
        return self

    # ------------------------------------------------------------------
    def level_epsilon(self, level: int) -> float:
        """The count Laplace parameter used at ``level``."""
        if not 0 <= level <= self.height:
            raise ValueError(f"level {level} out of range for height {self.height}")
        return self.count_epsilons[level]

    def total_count_epsilon(self) -> float:
        """Total count budget along a root-to-leaf path."""
        return float(sum(self.count_epsilons))

    def strip_private_fields(self) -> "PrivateSpatialDecomposition":
        """Zero out the true counts, modelling release to an untrusted party."""
        tree = self.flat_tree
        tree.true_count = np.zeros_like(tree.true_count)
        return self

    def summary(self) -> Dict[str, object]:
        """A compact description used by the experiment harness."""
        return {
            "name": self.name,
            "height": self.height,
            "fanout": self.fanout,
            "nodes": self.node_count(),
            "leaves": self.leaf_count(),
            "count_epsilons": tuple(round(e, 6) for e in self.count_epsilons),
            "path_epsilon": None if self.accountant is None else self.accountant.path_epsilon,
        }

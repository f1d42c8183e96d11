"""Compiling a released PSD into a frozen flat structure-of-arrays engine.

The compiled form lays the nodes out in **breadth-first order**: node 0 is the
root, and every node's children occupy the contiguous index range
``[child_start[i], child_end[i])``.  That single invariant is what makes the
batch evaluator a loop of array operations — a query frontier expands into the
next wavefront with one ``np.repeat`` instead of per-node pointer chasing.
A PSD's build-side :class:`~repro.core.flatbuild.FlatTree` already has this
layout, so compiling is an array snapshot plus the released-count predicate.
A Hilbert R-tree compiles to its planar engine: the same snapshot, with each
node's Hilbert-index interval replaced by the interval's bounding box in the
plane (one vectorised pass), so the engine answers planar queries.

All arrays are read-only (``writeable=False``): a compiled engine is a view of
a *released* artifact and must never drift from the tree it was compiled from.
When the tree itself is mutated (post-processing, pruning) the memoised engine
attached to the PSD is dropped via :func:`invalidate_compiled_engine`.

The container is **dtype-generic**: the compiler always produces the
canonical dtypes (float64 counts/geometry, int64 child offsets), but the
arrays may equally be float32 counts with int32 child offsets (the
reduced-precision storage of :mod:`repro.engine.io`) or read-only
``np.memmap`` views of a FLATPSD2 file — the batch evaluator accumulates in
float64 regardless of what dtype the storage arrays carry, and the OS page
cache, not this object, owns mapped bytes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Tuple

import numpy as np

from ..privacy.mechanisms import laplace_variance

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..core.tree import PrivateSpatialDecomposition

__all__ = [
    "FlatPSD",
    "compile_psd",
    "compiled_engine",
    "invalidate_compiled_engine",
    "expand_ranges",
    "level_variances",
    "released_counts",
    "COMPILED_ENGINE_KEY",
]

#: ``psd.compiled_engines`` key of the memoised compiled form.
COMPILED_ENGINE_KEY = "_compiled_flat_engine"


def _freeze(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass
class FlatPSD:
    """A released PSD compiled to contiguous arrays, ready for batch queries.

    Attributes
    ----------
    lo, hi:
        ``(n_nodes, dims)`` rectangle bounds per node (half-open boxes, same
        convention as :class:`~repro.geometry.rect.Rect`).
    level:
        ``(n_nodes,)`` node levels (leaves 0, root ``height``).
    released:
        ``(n_nodes,)`` the count a query uses — post-processed when present,
        otherwise the raw noisy count; ``0.0`` where ``has_count`` is false.
    has_count:
        ``(n_nodes,)`` whether the node carries a usable released count: a
        post-processed count, or a raw noisy count at a level that released
        one.
    is_leaf:
        ``(n_nodes,)`` leaf mask (after any pruning).
    child_start, child_end:
        ``(n_nodes,)`` BFS child offset ranges; equal for leaves.
    area:
        ``(n_nodes,)`` rectangle areas, used for uniformity fractions.
    count_epsilons:
        ``(height + 1,)`` per-level Laplace parameters, indexed by level.
    level_variance:
        ``(height + 1,)`` per-level count variance ``2 / eps_i^2`` (zero for
        unreleased levels), the per-node term of Equation (1).
    release:
        ``{"ols": bool, "metadata": {...}}``: whether ``released`` holds OLS
        estimates, and the build metadata (split rule, count budget, ε split).
    """

    lo: np.ndarray
    hi: np.ndarray
    level: np.ndarray
    released: np.ndarray
    has_count: np.ndarray
    is_leaf: np.ndarray
    child_start: np.ndarray
    child_end: np.ndarray
    area: np.ndarray
    count_epsilons: np.ndarray
    level_variance: np.ndarray
    height: int
    fanout: int
    release: Dict[str, object]
    name: str = "psd"
    domain_lo: np.ndarray = field(default=None)  # type: ignore[assignment]
    domain_hi: np.ndarray = field(default=None)  # type: ignore[assignment]
    domain_name: str = "domain"
    #: Path of the FLATPSD2 file this instance was attached from, and that
    #: file's identity at attach time (both set by
    #: :func:`repro.engine.io.load_engine`); ``None`` if compiled in RAM.
    #: Not constructor fields, so ``dataclasses.replace`` gives an engine
    #: that no file backs.
    source_path: str = field(default=None, init=False)  # type: ignore[assignment]
    source_identity: Tuple[int, ...] = field(default=None, init=False, repr=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        # Guards the one-time derivation of the closed-form index of
        # repro.engine.grid, memoised on the instance as ``_grid``.
        self._grid_lock = threading.Lock()

    def __reduce_ex__(self, protocol):
        # An engine attached from a file pickles as that file's path and
        # identity; the receiving process attaches the same file again
        # (refused if it was replaced), so every process maps one copy.
        if self.source_path is not None:
            from .io import _reattach_engine

            return _reattach_engine, (self.source_path, self.source_identity)
        return super().__reduce_ex__(protocol)

    def __getstate__(self) -> Dict[str, object]:
        # The derived index stays behind: every process derives its own.
        return {k: v for k, v in self.__dict__.items() if k not in ("_grid", "_grid_lock")}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self.__post_init__()

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return int(self.lo.shape[0])

    @property
    def dims(self) -> int:
        return int(self.lo.shape[1])

    @property
    def storage_precision(self) -> str:
        """``"float32"`` when the released counts are stored narrowed,
        ``"float64"`` otherwise (the canonical compile output)."""
        return "float32" if self.released.dtype == np.float32 else "float64"

    def _arrays(self):
        return (self.lo, self.hi, self.level, self.released, self.has_count,
                self.is_leaf, self.child_start, self.child_end, self.area,
                self.count_epsilons, self.level_variance,
                self.domain_lo, self.domain_hi)

    def nbytes(self) -> int:
        """Memory footprint of the compiled arrays (mapped bytes included)."""
        return int(sum(a.nbytes for a in self._arrays()))

    def mapped_nbytes(self) -> int:
        """Bytes served from memory-mapped storage rather than process heap.

        Non-zero exactly when the engine was attached from a FLATPSD2 file
        (:func:`repro.engine.io.load_engine`); those bytes live in
        the OS page cache and are shared with every process mapping the
        same file.
        """
        return int(sum(a.nbytes for a in self._arrays() if isinstance(a, np.memmap)))

    def validate(self) -> "FlatPSD":
        """Check the structural invariants the batch evaluator relies on.

        Raises :class:`ValueError` on malformed input (wrong shapes, child
        ranges out of bounds or non-BFS, level mismatches).  A FLATPSD2 load
        runs it on request (``deep_validate=True``) so a corrupted file
        fails loudly.
        """
        n = self.n_nodes
        if n == 0:
            raise ValueError("compiled engine must contain at least the root node")
        if self.lo.shape != self.hi.shape or self.lo.ndim != 2:
            raise ValueError("lo/hi must be matching (n_nodes, dims) arrays")
        if not (np.all(np.isfinite(self.lo)) and np.all(np.isfinite(self.hi))):
            raise ValueError("node bounds must be finite")
        if np.any(self.lo > self.hi):
            raise ValueError("node lower bounds must not exceed upper bounds")
        if not np.all(np.isfinite(self.released)):
            raise ValueError("released counts must be finite (0.0 where has_count is false)")
        for name in ("level", "released", "has_count", "is_leaf",
                     "child_start", "child_end", "area"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must have shape ({n},)")
        if self.count_epsilons.shape != (self.height + 1,):
            raise ValueError("count_epsilons must have height + 1 entries")
        if self.level_variance.shape != (self.height + 1,):
            raise ValueError("level_variance must have height + 1 entries")
        if not np.all(np.isfinite(self.level_variance)) or np.any(self.level_variance < 0):
            raise ValueError("level_variance entries must be finite and non-negative")
        dims = self.dims
        if self.domain_lo.shape != (dims,) or self.domain_hi.shape != (dims,):
            raise ValueError("domain bounds must match the node dimensionality")
        if int(self.level[0]) != self.height:
            raise ValueError("node 0 must be the root at level == height")
        if np.any(self.level < 0) or np.any(self.level > self.height):
            raise ValueError("node levels must lie within [0, height]")
        starts, ends = self.child_start, self.child_end
        if np.any(ends < starts) or np.any(starts < 0) or np.any(ends > n):
            raise ValueError("child offset ranges out of bounds")
        leaf = ends == starts
        if not np.array_equal(leaf, self.is_leaf):
            raise ValueError("is_leaf mask inconsistent with child offsets")
        internal = ~leaf
        if np.any(starts[internal] <= np.nonzero(internal)[0]):
            raise ValueError("children must come after their parent in BFS order")
        parent_level = np.repeat(self.level[internal], (ends - starts)[internal])
        child_idx = expand_ranges(starts[internal], ends[internal])
        # In a breadth-first layout the child ranges, read in node order, must
        # partition nodes 1..n-1 exactly — no gaps, no aliased subtrees.
        if not np.array_equal(child_idx, np.arange(1, n, dtype=np.int64)):
            raise ValueError("child ranges must partition nodes 1..n-1 in BFS order")
        if not np.array_equal(self.level[child_idx], parent_level - 1):
            raise ValueError("child level must be one less than its parent's")
        return self

    # ------------------------------------------------------------------
    # Single-query conveniences (delegate to the batch evaluator)
    # ------------------------------------------------------------------
    def range_query(self, query, use_uniformity: bool = True) -> float:
        """Estimated count inside ``query`` (the canonical decomposition)."""
        from .batch import batch_query

        result = batch_query(self, [query], use_uniformity=use_uniformity)
        return float(result.estimates[0])

    def nodes_touched(self, query) -> int:
        """``n(Q)``: how many released counts the answer sums."""
        from .batch import batch_query

        return int(batch_query(self, [query]).nodes_touched[0])

    def query_variance(self, query) -> float:
        """``Err(Q)``: the analytic variance of the answer (Equation 1)."""
        from .batch import batch_query

        return float(batch_query(self, [query]).variances[0])


def level_variances(count_epsilons) -> np.ndarray:
    """Per-level count variance ``2 / eps_i^2`` (zero for unreleased levels).

    The single source of the per-node variance term of Equation (1), shared by
    the compiler and the float32 storage cast.
    """
    return np.asarray(
        [laplace_variance(e) if e > 0 else 0.0 for e in count_epsilons], dtype=np.float64
    )


def expand_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(s, e)`` for every (s, e) pair, fully vectorised.

    This is the ragged-range primitive behind both structure validation and
    the batch evaluator's frontier expansion.
    """
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out_ends = np.cumsum(counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(out_ends - counts, counts)
    return np.repeat(starts, counts) + offsets


def released_counts(noisy: np.ndarray, post, eps_node: np.ndarray):
    """Fresh ``(released, has_count)``: post-processed counts when present,
    else noisy counts where the level is funded and the count finite, else
    0.  Elementwise, so a tree's ``(n,)`` and a batch's ``(R, n)`` arrays
    take the same call."""
    if post is not None:
        return np.array(post, dtype=np.float64), np.ones(post.shape, dtype=bool)
    has_count = (eps_node > 0) & np.isfinite(noisy)
    return np.where(has_count, noisy, 0.0), has_count


def compile_psd(psd: "PrivateSpatialDecomposition") -> FlatPSD:
    """Compile a built PSD into its frozen flat structure-of-arrays form.

    Works for any of the three tree families and for pruned / incomplete
    trees.  The PSD's arrays are already in BFS order, so this is an array
    snapshot: copies, so later build-side mutations can never alias into a
    released engine.

    A Hilbert R-tree (a PSD carrying a ``curve``) compiles to its planar
    engine: the node rectangles are the planar bounding boxes of each node's
    Hilbert-index interval -- the R-tree rectangles the paper releases --
    produced by one vectorised
    :meth:`~repro.geometry.hilbert.HilbertCurve.range_bboxes` pass.  Unlike
    the other tree families, sibling boxes may overlap; the evaluator never
    assumes disjointness, so nothing changes.
    """
    tree = psd.flat_tree
    if psd.curve is None:
        lo, hi = tree.lo.astype(np.float64, copy=True), tree.hi.astype(np.float64, copy=True)
        domain = psd.domain
    else:
        from ..core.hilbert_rtree import hilbert_interval_bounds

        lo_idx, hi_idx = hilbert_interval_bounds(tree.lo[:, 0], tree.hi[:, 0], psd.curve)
        lo, hi = psd.curve.range_bboxes(lo_idx, hi_idx)
        domain = psd.planar_domain
    eps = np.asarray(psd.count_epsilons, dtype=np.float64)
    released, has_count = released_counts(tree.noisy_count, tree.post_count, eps[tree.level])
    return FlatPSD(
        lo=_freeze(lo),
        hi=_freeze(hi),
        level=_freeze(tree.level.astype(np.int32, copy=True)),
        released=_freeze(released),
        has_count=_freeze(has_count),
        is_leaf=_freeze(tree.is_leaf.copy()),
        child_start=_freeze(tree.child_start.astype(np.int64, copy=True)),
        child_end=_freeze(tree.child_end.astype(np.int64, copy=True)),
        area=_freeze(np.prod(hi - lo, axis=1)),
        count_epsilons=_freeze(eps),
        level_variance=_freeze(level_variances(eps)),
        height=psd.height,
        fanout=psd.fanout,
        release={"ols": tree.post_count is not None, "metadata": dict(psd.metadata)},
        name=psd.name,
        domain_lo=_freeze(np.asarray(domain.rect.lo, dtype=np.float64)),
        domain_hi=_freeze(np.asarray(domain.rect.hi, dtype=np.float64)),
        domain_name=domain.name,
    )


def compiled_engine(psd: "PrivateSpatialDecomposition") -> FlatPSD:
    """The memoised compiled engine for ``psd``, compiling on first use.

    The engine is cached in ``psd.compiled_engines`` so repeated queries pay
    the compile once.  Post-processing and pruning drop the cache (see
    :func:`invalidate_compiled_engine`).
    """
    engine = psd.compiled_engines.get(COMPILED_ENGINE_KEY)
    if engine is None:
        engine = psd.compiled_engines[COMPILED_ENGINE_KEY] = compile_psd(psd)
    return engine


def invalidate_compiled_engine(psd: "PrivateSpatialDecomposition") -> None:
    """Drop the memoised compiled engines after a mutation of the tree.

    Called by :func:`repro.core.postprocess.apply_ols` and
    :func:`repro.core.pruning.prune_low_count_subtrees`, the two released-data
    transformations that change query answers.
    """
    psd.compiled_engines.clear()

"""Axis-aligned rectangles (hyper-rectangles) and point containment tests.

The whole PSD framework manipulates axis-aligned boxes: tree-node regions,
range queries, and bounding boxes of Hilbert-curve cells.  ``Rect`` is the
single geometric primitive shared by every other module.

A ``Rect`` in ``d`` dimensions is stored as two length-``d`` float arrays,
``lo`` and ``hi``, with ``lo[k] <= hi[k]`` for every axis ``k``.  Rectangles
are treated as half-open boxes ``[lo, hi)`` for point-membership purposes so
that sibling node regions produced by a split partition their parent exactly
(every point belongs to exactly one child).  The one exception is the upper
boundary of the data domain itself, which is handled by
:meth:`Rect.contains_points` via the ``closed_hi`` mask so points lying on the
domain's top edge are not lost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = ["Rect", "bounding_rect"]


@dataclass(frozen=True)
class Rect:
    """An axis-aligned hyper-rectangle ``[lo, hi)``.

    Parameters
    ----------
    lo, hi:
        Coordinate tuples of equal length; ``lo[k] <= hi[k]`` must hold on
        every axis.  Stored as tuples so the object is hashable and safely
        usable as a frozen dataclass.
    """

    lo: Tuple[float, ...]
    hi: Tuple[float, ...]

    def __post_init__(self) -> None:
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        if len(lo) != len(hi):
            raise ValueError(f"lo and hi must have the same length, got {len(lo)} and {len(hi)}")
        if len(lo) == 0:
            raise ValueError("Rect must have at least one dimension")
        for axis, (a, b) in enumerate(zip(lo, hi)):
            if not (np.isfinite(a) and np.isfinite(b)):
                raise ValueError(f"Rect bounds must be finite, got axis {axis}: [{a}, {b}]")
            if a > b:
                raise ValueError(f"Rect lower bound exceeds upper bound on axis {axis}: {a} > {b}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_arrays(lo: Sequence[float], hi: Sequence[float]) -> "Rect":
        """Build a rectangle from any pair of coordinate sequences."""
        return Rect(tuple(float(v) for v in lo), tuple(float(v) for v in hi))

    @staticmethod
    def unit(dims: int = 2) -> "Rect":
        """The unit box ``[0, 1)^dims``."""
        return Rect((0.0,) * dims, (1.0,) * dims)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def dims(self) -> int:
        """Number of dimensions."""
        return len(self.lo)

    @property
    def widths(self) -> np.ndarray:
        """Per-axis extents ``hi - lo`` as a float array."""
        return np.asarray(self.hi, dtype=float) - np.asarray(self.lo, dtype=float)

    @property
    def area(self) -> float:
        """Product of the per-axis extents (area in 2-D, volume in d-D)."""
        return float(np.prod(self.widths))

    @property
    def center(self) -> Tuple[float, ...]:
        """Midpoint of the rectangle."""
        return tuple((a + b) / 2.0 for a, b in zip(self.lo, self.hi))

    def is_degenerate(self, axis: int | None = None) -> bool:
        """Return ``True`` if the rectangle has zero width on ``axis``.

        With ``axis=None``, checks whether *any* axis is degenerate.
        """
        widths = self.widths
        if axis is None:
            return bool(np.any(widths <= 0.0))
        return bool(widths[axis] <= 0.0)

    # ------------------------------------------------------------------
    # Relations with other rectangles
    # ------------------------------------------------------------------
    def intersects(self, other: "Rect") -> bool:
        """True if the two (half-open) rectangles share any volume."""
        self._check_dims(other)
        for a_lo, a_hi, b_lo, b_hi in zip(self.lo, self.hi, other.lo, other.hi):
            if a_hi <= b_lo or b_hi <= a_lo:
                return False
        return True

    def contains_rect(self, other: "Rect") -> bool:
        """True if ``other`` lies entirely inside this rectangle."""
        self._check_dims(other)
        for a_lo, a_hi, b_lo, b_hi in zip(self.lo, self.hi, other.lo, other.hi):
            if b_lo < a_lo or b_hi > a_hi:
                return False
        return True

    def intersection(self, other: "Rect") -> "Rect | None":
        """The overlapping rectangle, or ``None`` when the boxes are disjoint."""
        self._check_dims(other)
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        if any(a >= b for a, b in zip(lo, hi)):
            return None
        return Rect(lo, hi)

    def intersection_area(self, other: "Rect") -> float:
        """Area of the overlap (0.0 when disjoint)."""
        inter = self.intersection(other)
        return 0.0 if inter is None else inter.area

    def union_bounds(self, other: "Rect") -> "Rect":
        """The smallest rectangle containing both inputs."""
        self._check_dims(other)
        lo = tuple(min(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(max(a, b) for a, b in zip(self.hi, other.hi))
        return Rect(lo, hi)

    # ------------------------------------------------------------------
    # Points
    # ------------------------------------------------------------------
    def contains_point(self, point: Sequence[float], closed_hi: bool = False) -> bool:
        """Membership test for a single point.

        ``closed_hi=True`` treats the upper boundary as inclusive, which is
        used for the root domain so boundary points are never dropped.
        """
        for axis, value in enumerate(point):
            if value < self.lo[axis]:
                return False
            if closed_hi:
                if value > self.hi[axis]:
                    return False
            elif value >= self.hi[axis]:
                return False
        return True

    def contains_points(self, points: np.ndarray, closed_hi: bool = False) -> np.ndarray:
        """Vectorised membership mask for an ``(n, d)`` array of points."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if pts.shape[1] != self.dims:
            raise ValueError(f"points have {pts.shape[1]} dims, rect has {self.dims}")
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        mask = np.all(pts >= lo, axis=1)
        if closed_hi:
            mask &= np.all(pts <= hi, axis=1)
        else:
            mask &= np.all(pts < hi, axis=1)
        return mask

    def count_points(self, points: np.ndarray, closed_hi: bool = False) -> int:
        """Number of points falling inside the rectangle."""
        return int(np.count_nonzero(self.contains_points(points, closed_hi=closed_hi)))

    def filter_points(self, points: np.ndarray, closed_hi: bool = False) -> np.ndarray:
        """The subset of ``points`` inside the rectangle."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        return pts[self.contains_points(pts, closed_hi=closed_hi)]

    # ------------------------------------------------------------------
    # Splitting
    # ------------------------------------------------------------------
    def split_at(self, axis: int, value: float) -> Tuple["Rect", "Rect"]:
        """Split the rectangle along ``axis`` at ``value`` into (low, high) halves.

        ``value`` is clamped into ``[lo[axis], hi[axis]]`` so that a wildly
        noisy split point still produces two valid (possibly degenerate)
        children — exactly the failure mode the paper's noisy-median section
        describes ("wasting a level of the tree").
        """
        if not 0 <= axis < self.dims:
            raise ValueError(f"axis {axis} out of range for {self.dims}-dimensional Rect")
        value = float(min(max(value, self.lo[axis]), self.hi[axis]))
        left_hi = list(self.hi)
        left_hi[axis] = value
        right_lo = list(self.lo)
        right_lo[axis] = value
        return Rect(self.lo, tuple(left_hi)), Rect(tuple(right_lo), self.hi)

    def split_midpoint(self, axis: int) -> Tuple["Rect", "Rect"]:
        """Split at the midpoint of ``axis`` (quadtree-style split on one axis)."""
        return self.split_at(axis, self.center[axis])

    def quad_children(self) -> Tuple["Rect", ...]:
        """The ``2^d`` equal children produced by splitting every axis at its midpoint.

        In 2-D this is the standard quadtree split into four quadrants; in
        ``d`` dimensions it is the generalisation to ``2^d`` orthants the
        paper mentions (octree, etc.).
        """
        mid = self.center
        children = []
        for code in range(2 ** self.dims):
            lo = list(self.lo)
            hi = list(self.hi)
            for axis in range(self.dims):
                if (code >> axis) & 1:
                    lo[axis] = mid[axis]
                else:
                    hi[axis] = mid[axis]
            children.append(Rect(tuple(lo), tuple(hi)))
        return tuple(children)

    # ------------------------------------------------------------------
    def _check_dims(self, other: "Rect") -> None:
        if self.dims != other.dims:
            raise ValueError(f"dimension mismatch: {self.dims} vs {other.dims}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        coords = ", ".join(f"[{a:g}, {b:g})" for a, b in zip(self.lo, self.hi))
        return f"Rect({coords})"


def bounding_rect(points: np.ndarray, pad: float = 0.0) -> Rect:
    """The tight axis-aligned bounding box of an ``(n, d)`` point array.

    ``pad`` expands every axis by an absolute amount on both ends, which is
    useful when the box will be used as a half-open domain and the maximal
    points must remain strictly inside it.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.size == 0:
        raise ValueError("cannot compute the bounding box of an empty point set")
    lo = pts.min(axis=0) - pad
    hi = pts.max(axis=0) + pad
    return Rect.from_arrays(lo, hi)

"""Tests for the Rect primitive: construction, relations, splitting, point membership."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import domain_aware_mask
from repro.geometry import Rect, bounding_rect


# ----------------------------------------------------------------------
# Construction and validation
# ----------------------------------------------------------------------
class TestConstruction:
    def test_basic_properties(self):
        r = Rect((0.0, 1.0), (2.0, 5.0))
        assert r.dims == 2
        assert r.area == pytest.approx(2.0 * 4.0)
        assert r.center == (1.0, 3.0)
        assert np.allclose(r.widths, [2.0, 4.0])

    def test_rejects_mismatched_dims(self):
        with pytest.raises(ValueError):
            Rect((0.0,), (1.0, 2.0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Rect((), ())

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Rect((1.0, 0.0), (0.0, 1.0))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Rect((0.0, 0.0), (np.inf, 1.0))
        with pytest.raises(ValueError):
            Rect((np.nan, 0.0), (1.0, 1.0))

    def test_degenerate_allowed_and_detected(self):
        r = Rect((0.0, 0.0), (0.0, 1.0))
        assert r.is_degenerate()
        assert r.is_degenerate(axis=0)
        assert not r.is_degenerate(axis=1)
        assert r.area == 0.0

    def test_unit_and_from_arrays(self):
        assert Rect.unit(3).dims == 3
        assert Rect.from_arrays(np.array([0, 0]), np.array([1, 2])) == Rect((0.0, 0.0), (1.0, 2.0))

    def test_hashable_and_equal(self):
        a = Rect((0.0, 0.0), (1.0, 1.0))
        b = Rect((0, 0), (1, 1))
        assert a == b
        assert hash(a) == hash(b)


# ----------------------------------------------------------------------
# Relations between rectangles
# ----------------------------------------------------------------------
class TestRelations:
    def test_intersects_and_intersection(self):
        a = Rect((0.0, 0.0), (2.0, 2.0))
        b = Rect((1.0, 1.0), (3.0, 3.0))
        assert a.intersects(b) and b.intersects(a)
        inter = a.intersection(b)
        assert inter == Rect((1.0, 1.0), (2.0, 2.0))
        assert a.intersection_area(b) == pytest.approx(1.0)

    def test_disjoint(self):
        a = Rect((0.0, 0.0), (1.0, 1.0))
        b = Rect((2.0, 2.0), (3.0, 3.0))
        assert not a.intersects(b)
        assert a.intersection(b) is None
        assert a.intersection_area(b) == 0.0

    def test_touching_edges_do_not_intersect(self):
        a = Rect((0.0, 0.0), (1.0, 1.0))
        b = Rect((1.0, 0.0), (2.0, 1.0))
        assert not a.intersects(b)

    def test_contains_rect(self):
        outer = Rect((0.0, 0.0), (4.0, 4.0))
        inner = Rect((1.0, 1.0), (2.0, 2.0))
        assert outer.contains_rect(inner)
        assert not inner.contains_rect(outer)
        assert outer.contains_rect(outer)

    def test_union_bounds(self):
        a = Rect((0.0, 0.0), (1.0, 1.0))
        b = Rect((2.0, -1.0), (3.0, 0.5))
        u = a.union_bounds(b)
        assert u == Rect((0.0, -1.0), (3.0, 1.0))

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            Rect((0.0,), (1.0,)).intersects(Rect((0.0, 0.0), (1.0, 1.0)))


# ----------------------------------------------------------------------
# Point membership
# ----------------------------------------------------------------------
class TestPoints:
    def test_half_open_membership(self):
        r = Rect((0.0, 0.0), (1.0, 1.0))
        assert r.contains_point((0.0, 0.0))
        assert not r.contains_point((1.0, 0.5))
        assert r.contains_point((1.0, 0.5), closed_hi=True)

    def test_contains_points_vectorised(self):
        r = Rect((0.0, 0.0), (1.0, 1.0))
        pts = np.array([[0.5, 0.5], [1.5, 0.5], [0.0, 0.999], [1.0, 1.0]])
        mask = r.contains_points(pts)
        assert mask.tolist() == [True, False, True, False]
        mask_closed = r.contains_points(pts, closed_hi=True)
        assert mask_closed.tolist() == [True, False, True, True]

    def test_count_and_filter(self):
        r = Rect((0.0, 0.0), (1.0, 1.0))
        pts = np.array([[0.1, 0.1], [0.9, 0.9], [2.0, 2.0]])
        assert r.count_points(pts) == 2
        assert r.filter_points(pts).shape == (2, 2)

    def test_dim_mismatch_raises(self):
        r = Rect((0.0, 0.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            r.contains_points(np.zeros((3, 3)))

    def test_domain_aware_mask_keeps_boundary_points(self):
        domain = Rect((0.0, 0.0), (1.0, 1.0))
        child = Rect((0.5, 0.5), (1.0, 1.0))
        pts = np.array([[1.0, 1.0], [0.75, 0.75], [0.25, 0.25]])
        mask = domain_aware_mask(child, pts, domain)
        assert mask.tolist() == [True, True, False]

    def test_domain_aware_mask_half_open_interior(self):
        domain = Rect((0.0, 0.0), (1.0, 1.0))
        left = Rect((0.0, 0.0), (0.5, 1.0))
        right = Rect((0.5, 0.0), (1.0, 1.0))
        pts = np.array([[0.5, 0.2]])
        assert domain_aware_mask(left, pts, domain).tolist() == [False]
        assert domain_aware_mask(right, pts, domain).tolist() == [True]


# ----------------------------------------------------------------------
# Splitting
# ----------------------------------------------------------------------
class TestSplitting:
    def test_split_at_partitions(self):
        r = Rect((0.0, 0.0), (4.0, 2.0))
        left, right = r.split_at(0, 1.0)
        assert left == Rect((0.0, 0.0), (1.0, 2.0))
        assert right == Rect((1.0, 0.0), (4.0, 2.0))
        assert left.area + right.area == pytest.approx(r.area)

    def test_split_value_clamped(self):
        r = Rect((0.0, 0.0), (1.0, 1.0))
        left, right = r.split_at(0, 5.0)
        assert left == r
        assert right.is_degenerate(axis=0)

    def test_split_axis_out_of_range(self):
        with pytest.raises(ValueError):
            Rect((0.0,), (1.0,)).split_at(1, 0.5)

    def test_split_midpoint(self):
        r = Rect((0.0, 0.0), (2.0, 2.0))
        lo, hi = r.split_midpoint(1)
        assert lo.hi[1] == pytest.approx(1.0)
        assert hi.lo[1] == pytest.approx(1.0)

    def test_quad_children_partition_area(self):
        r = Rect((0.0, -1.0), (2.0, 3.0))
        children = r.quad_children()
        assert len(children) == 4
        assert sum(c.area for c in children) == pytest.approx(r.area)
        for c in children:
            assert r.contains_rect(c)

    def test_quad_children_in_3d(self):
        r = Rect((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        children = r.quad_children()
        assert len(children) == 8
        assert sum(c.area for c in children) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# bounding_rect
# ----------------------------------------------------------------------
class TestBoundingRect:
    def test_tight_box(self):
        pts = np.array([[0.0, 1.0], [2.0, -1.0], [1.0, 0.5]])
        box = bounding_rect(pts)
        assert box == Rect((0.0, -1.0), (2.0, 1.0))

    def test_padding(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        box = bounding_rect(pts, pad=0.5)
        assert box == Rect((-0.5, -0.5), (1.5, 1.5))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            bounding_rect(np.empty((0, 2)))

    def test_1d_input(self):
        box = bounding_rect(np.array([3.0, 1.0, 2.0]))
        assert box == Rect((1.0,), (3.0,))


# ----------------------------------------------------------------------
# Property-based tests
# ----------------------------------------------------------------------
coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def rects(draw, dims=2):
    lo = [draw(coords) for _ in range(dims)]
    hi = [draw(coords) for _ in range(dims)]
    lo, hi = [min(a, b) for a, b in zip(lo, hi)], [max(a, b) for a, b in zip(lo, hi)]
    return Rect(tuple(lo), tuple(hi))


class TestRectProperties:
    @given(rects(), rects())
    @settings(max_examples=60, deadline=None)
    def test_intersection_symmetric_and_contained(self, a, b):
        assert a.intersects(b) == b.intersects(a)
        inter = a.intersection(b)
        if inter is not None:
            assert a.contains_rect(inter)
            assert b.contains_rect(inter)
            assert inter.area <= min(a.area, b.area) + 1e-6

    @given(rects())
    @settings(max_examples=60, deadline=None)
    def test_union_contains_both(self, a):
        b = Rect(tuple(x + 1.0 for x in a.lo), tuple(x + 2.0 for x in a.hi))
        u = a.union_bounds(b)
        assert u.contains_rect(a)
        assert u.contains_rect(b)

    @given(rects(), st.integers(min_value=0, max_value=1), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_split_preserves_area(self, r, axis, t):
        value = r.lo[axis] + t * (r.hi[axis] - r.lo[axis])
        left, right = r.split_at(axis, value)
        assert left.area + right.area == pytest.approx(r.area, rel=1e-6, abs=1e-6)

    @given(rects())
    @settings(max_examples=60, deadline=None)
    def test_quad_children_disjoint_and_cover(self, r):
        children = r.quad_children()
        assert sum(c.area for c in children) == pytest.approx(r.area, rel=1e-6, abs=1e-6)
        for i in range(len(children)):
            for j in range(i + 1, len(children)):
                assert children[i].intersection_area(children[j]) == pytest.approx(0.0, abs=1e-6)

    @given(st.lists(st.tuples(coords, coords), min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_bounding_rect_contains_all_points(self, raw_points):
        pts = np.array(raw_points, dtype=float)
        box = bounding_rect(pts)
        assert bool(np.all(box.contains_points(pts, closed_hi=True)))

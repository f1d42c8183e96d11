"""Tests for the Hilbert curve: bijection, locality, query decomposition, bounding boxes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from repro.geometry import HilbertCurve, Rect


@pytest.fixture(scope="module")
def curve() -> HilbertCurve:
    return HilbertCurve(order=6, domain=Rect((0.0, 0.0), (1.0, 1.0)))


class TestConstruction:
    def test_rejects_non_2d_domain(self):
        with pytest.raises(ValueError):
            HilbertCurve(order=4, domain=Rect((0.0,), (1.0,)))

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            HilbertCurve(order=0, domain=Rect.unit(2))
        with pytest.raises(ValueError):
            HilbertCurve(order=40, domain=Rect.unit(2))

    def test_side_and_max_index(self, curve):
        assert curve.side == 64
        assert curve.max_index == 64 * 64 - 1


class TestEncodeDecode:
    def test_bijection_exhaustive_small_order(self):
        small = HilbertCurve(order=3, domain=Rect.unit(2))
        side = small.side
        gx, gy = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
        gx, gy = gx.ravel(), gy.ravel()
        d = small.encode_cells(gx, gy)
        # Every index appears exactly once.
        assert sorted(d.tolist()) == list(range(side * side))
        rx, ry = small.decode_cells(d)
        assert np.array_equal(rx, gx)
        assert np.array_equal(ry, gy)

    def test_adjacent_indices_are_adjacent_cells(self):
        """The defining locality property: consecutive curve cells share an edge."""
        small = HilbertCurve(order=4, domain=Rect.unit(2))
        d = np.arange(small.max_index + 1)
        gx, gy = small.decode_cells(d)
        steps = np.abs(np.diff(gx)) + np.abs(np.diff(gy))
        assert np.all(steps == 1)

    def test_encode_points_respects_domain(self):
        curve = HilbertCurve(order=5, domain=Rect((-10.0, 20.0), (10.0, 40.0)))
        pts = np.array([[-10.0, 20.0], [9.999, 39.999], [0.0, 30.0]])
        idx = curve.encode(pts)
        assert np.all(idx >= 0)
        assert np.all(idx <= curve.max_index)

    def test_encode_out_of_range_cells_raise(self, curve):
        with pytest.raises(ValueError):
            curve.encode_cells(np.array([curve.side]), np.array([0]))
        with pytest.raises(ValueError):
            curve.decode_cells(np.array([curve.max_index + 1]))

    def test_decode_returns_cell_centres_inside_domain(self, curve):
        idx = np.array([0, 17, curve.max_index])
        centers = curve.decode(idx)
        assert np.all(centers >= 0.0)
        assert np.all(centers <= 1.0)

    @given(st.lists(st.tuples(st.floats(0, 0.999999), st.floats(0, 0.999999)), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_stays_in_cell(self, raw):
        curve = HilbertCurve(order=8, domain=Rect.unit(2))
        pts = np.array(raw)
        idx = curve.encode(pts)
        decoded = curve.decode(idx)
        # The decoded centre must lie within one cell width of the original point.
        cell = 1.0 / curve.side
        assert np.all(np.abs(decoded - pts) <= cell)


class TestRectToRanges:
    def test_full_domain_is_one_interval(self, curve):
        ranges = oracle.rect_to_ranges(curve, curve.domain)
        assert ranges == [(0, curve.max_index)]

    def test_disjoint_query_gives_no_ranges(self, curve):
        assert oracle.rect_to_ranges(curve, Rect((2.0, 2.0), (3.0, 3.0))) == []

    def test_ranges_are_sorted_and_disjoint(self, curve):
        query = Rect((0.1, 0.2), (0.6, 0.9))
        ranges = oracle.rect_to_ranges(curve, query)
        assert ranges
        for (lo1, hi1), (lo2, hi2) in zip(ranges, ranges[1:]):
            assert hi1 < lo2 - 0  # disjoint and sorted (merged intervals are non-adjacent)
            assert lo1 <= hi1 and lo2 <= hi2

    def test_ranges_cover_exactly_the_query_cells(self):
        """Cells inside the query are covered; cells far outside are not."""
        curve = HilbertCurve(order=5, domain=Rect.unit(2))
        query = Rect((0.25, 0.25), (0.5, 0.5))
        ranges = oracle.rect_to_ranges(curve, query, max_ranges=10_000)
        covered = set()
        for lo, hi in ranges:
            covered.update(range(lo, hi + 1))
        # every cell whose centre is inside the query must be covered
        side = curve.side
        for gx in range(side):
            for gy in range(side):
                cx, cy = (gx + 0.5) / side, (gy + 0.5) / side
                idx = int(curve.encode_cells(np.array([gx]), np.array([gy]))[0])
                if query.contains_point((cx, cy)):
                    assert idx in covered
        # and the covered area should not be wildly larger than the query
        assert len(covered) <= (side // 4 + 2) ** 2

    def test_max_ranges_caps_interval_count(self):
        curve = HilbertCurve(order=8, domain=Rect.unit(2))
        query = Rect((0.11, 0.13), (0.57, 0.83))
        ranges = oracle.rect_to_ranges(curve, query, max_ranges=16)
        assert len(ranges) <= 16 + 4  # merging may reduce, cap may slightly overshoot per branch


class TestRangeBbox:
    def test_full_range_is_domain(self, curve):
        bbox = curve.range_bbox(0, curve.max_index)
        assert bbox == curve.domain

    def test_single_cell_bbox(self, curve):
        gx, gy = curve.decode_cells(np.array([5]))
        bbox = curve.range_bbox(5, 5)
        expected = curve.cell_rect(int(gx[0]), int(gy[0]))
        assert bbox == expected

    def test_bbox_contains_all_cells_in_range(self):
        curve = HilbertCurve(order=4, domain=Rect.unit(2))
        lo, hi = 37, 111
        bbox = curve.range_bbox(lo, hi)
        gx, gy = curve.decode_cells(np.arange(lo, hi + 1))
        centers = curve.decode(np.arange(lo, hi + 1))
        assert bool(np.all(bbox.contains_points(centers, closed_hi=True)))

    def test_empty_interval_raises(self, curve):
        with pytest.raises(ValueError):
            curve.range_bbox(10, 5)

    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=40, deadline=None)
    def test_bbox_contains_endpoints(self, a, b):
        curve = HilbertCurve(order=4, domain=Rect.unit(2))
        lo, hi = min(a, b), max(a, b)
        bbox = curve.range_bbox(lo, hi)
        ends = curve.decode(np.array([lo, hi]))
        assert bool(np.all(bbox.contains_points(ends, closed_hi=True)))

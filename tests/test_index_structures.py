"""Tests for the fixed-resolution grid and its noisy release."""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import Rect
from repro.index import UniformGrid


def brute_force_count(points: np.ndarray, query: Rect) -> int:
    return int(query.count_points(points, closed_hi=True))


# ----------------------------------------------------------------------
# Uniform grid
# ----------------------------------------------------------------------
class TestUniformGrid:
    def test_counts_sum_to_n(self, unit_domain, small_uniform_points):
        grid = UniformGrid(domain=unit_domain, shape=(16, 16)).fit(small_uniform_points)
        assert grid.counts.sum() == pytest.approx(small_uniform_points.shape[0])

    def test_shape_validation(self, unit_domain):
        with pytest.raises(ValueError):
            UniformGrid(domain=unit_domain, shape=(4,))
        with pytest.raises(ValueError):
            UniformGrid(domain=unit_domain, shape=(0, 4))

    def test_cell_rect_and_edges(self, unit_domain):
        grid = UniformGrid(domain=unit_domain, shape=(4, 2))
        assert grid.cell_rect((0, 0)) == Rect((0.0, 0.0), (0.25, 0.5))
        assert np.allclose(grid.edges(0), [0, 0.25, 0.5, 0.75, 1.0])
        assert grid.n_cells == 8

    def test_exact_query_on_aligned_rect(self, unit_domain, small_uniform_points):
        grid = UniformGrid(domain=unit_domain, shape=(8, 8)).fit(small_uniform_points)
        query = Rect((0.25, 0.25), (0.75, 0.75))  # aligned with cell edges
        estimate = grid.range_count(query)
        # Aligned queries are exact up to boundary points sitting exactly on edges.
        assert estimate == pytest.approx(brute_force_count(small_uniform_points, query), abs=6)

    def test_partial_cell_uniformity(self, unit_domain):
        grid = UniformGrid(domain=unit_domain, shape=(1, 1))
        grid.counts = np.array([[100.0]])
        query = Rect((0.0, 0.0), (0.5, 0.5))
        assert grid.range_count(query) == pytest.approx(25.0)

    def test_disjoint_query_zero(self, unit_domain, small_uniform_points):
        grid = UniformGrid(domain=unit_domain, shape=(4, 4)).fit(small_uniform_points)
        assert grid.range_count(Rect((2.0, 2.0), (3.0, 3.0))) == 0.0

    def test_point_cells_in_range(self, unit_domain, small_uniform_points):
        grid = UniformGrid(domain=unit_domain, shape=(8, 8))
        cells = grid.point_cells(small_uniform_points)
        assert cells.min() >= 0 and cells.max() <= 7

    def test_noisy_counts_epsilon_validation(self, unit_domain, small_uniform_points):
        grid = UniformGrid(domain=unit_domain, shape=(4, 4)).fit(small_uniform_points)
        with pytest.raises(ValueError):
            grid.noisy_counts(0.0)

    def test_noisy_counts_statistics(self, unit_domain, small_uniform_points, rng):
        grid = UniformGrid(domain=unit_domain, shape=(4, 4)).fit(small_uniform_points)
        noisy = grid.noisy_counts(10.0, rng=rng)
        assert np.allclose(noisy.counts, grid.counts, atol=5.0)
        assert noisy.non_negative().counts.min() >= 0.0

    def test_noisy_grid_range_count(self, unit_domain, small_uniform_points, rng):
        grid = UniformGrid(domain=unit_domain, shape=(8, 8)).fit(small_uniform_points)
        noisy = grid.noisy_counts(5.0, rng=rng)
        query = Rect((0.1, 0.1), (0.9, 0.9))
        assert noisy.range_count(query) == pytest.approx(grid.range_count(query), rel=0.1)

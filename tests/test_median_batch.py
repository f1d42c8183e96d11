"""Tests for the ragged-batch private medians and the level-batched builds.

Two contracts are under test:

* **batch == sequential, bitwise** — ``record.batch(sorted_values, offsets,
  epsilons, los, his, rng)`` must equal the per-segment scalar calls of
  :mod:`oracle.median` bit for bit *and* leave the generator in the identical
  state, for every method
  (EM / SS / cell / NM / true and the sampled variants) over ragged level
  shapes including empty, single-point and all-equal segments;
* **oracle parity with no per-node path** — the kd / hybrid / Hilbert
  builders run their data-dependent levels through the batched medians (the
  build has no per-node split left) and stay bit-for-bit interchangeable with
  the pointer builder of the test oracle, including the Hilbert R-tree's
  vectorized planar compile.
"""

from __future__ import annotations

import numpy as np
import pytest

import oracle
from oracle.median import per_node, smooth_sensitivity_of_median
from repro.core import build_psd
from repro.core.flatbuild import FlatTree
from repro.core.hilbert_rtree import build_private_hilbert_rtree
from repro.core.kdtree import build_private_kdtree
from repro.core.splits import CellKDSplit, HybridSplit, KDSplit
from repro.data import uniform_points
from repro.engine.flat import compile_psd
from repro.geometry import TIGER_DOMAIN, Domain, Rect
from repro.geometry.hilbert import HilbertCurve
from repro.index import NoisyGrid, UniformGrid
from repro.privacy.median import (
    MEDIAN_METHODS,
    exponential_mechanism_median_batch,
    smooth_sensitivity_median_batch,
)

DOMAIN = Domain.unit(2)
POINTS = uniform_points(1_500, DOMAIN, rng=np.random.default_rng(7))

ALL_METHODS = ["true", "em", "ss", "cell", "noisymean", "ems", "sss"]


def ragged_batch(seed: int):
    """Ragged segments covering empty, singleton, all-equal and generic shapes."""
    gen = np.random.default_rng(seed)
    segments = [
        np.empty(0),
        np.array([3.25]),
        np.full(9, 5.0),
        np.sort(gen.uniform(0.0, 10.0, 40)),
        np.sort(gen.uniform(2.0, 8.0, 137)),
        np.empty(0),
        np.sort(gen.uniform(4.9, 5.1, 11)),
    ]
    los = np.array([0.0, 0.0, 5.0, 0.0, 1.0, 2.0, 4.5])
    his = np.array([10.0, 10.0, 5.0, 10.0, 9.0, 2.0, 5.5])
    eps = np.array([0.5, 1.0, 0.2, 0.7, 0.05, 2.0, 0.9])
    values = np.concatenate(segments)
    offsets = np.concatenate(([0], np.cumsum([len(s) for s in segments])))
    return segments, values, offsets, eps, los, his


class TestBatchBitwiseParity:
    @pytest.mark.parametrize("method_name", ALL_METHODS)
    @pytest.mark.parametrize("data_seed", [0, 42])
    @pytest.mark.parametrize("rng_seed", [7, 1234])
    def test_batch_equals_sequential(self, method_name, data_seed, rng_seed):
        method = MEDIAN_METHODS[method_name]
        segments, values, offsets, eps, los, his = ragged_batch(data_seed)
        g_batch = np.random.default_rng(rng_seed)
        g_seq = np.random.default_rng(rng_seed)
        batch = method.batch(values, offsets, eps, los, his, rng=g_batch)
        sequential = np.array([
            per_node(method_name)(segments[i], eps[i], los[i], his[i], rng=g_seq)
            for i in range(len(segments))
        ])
        assert np.array_equal(batch, sequential)
        # The batch must also consume the stream exactly like the loop did.
        assert g_batch.bit_generator.state == g_seq.bit_generator.state

    def test_cell_n_cells_forwarded(self):
        method = MEDIAN_METHODS["cell"]
        segments, values, offsets, eps, los, his = ragged_batch(9)
        g1, g2 = np.random.default_rng(2), np.random.default_rng(2)
        batch = method.batch(values, offsets, eps, los, his, rng=g1, n_cells=64)
        sequential = np.array([
            per_node("cell")(segments[i], eps[i], los[i], his[i], rng=g2, n_cells=64)
            for i in range(len(segments))
        ])
        assert np.array_equal(batch, sequential)
        assert g1.bit_generator.state == g2.bit_generator.state

    def test_scalar_epsilon_broadcasts(self):
        _, values, offsets, _, los, his = ragged_batch(1)
        a = exponential_mechanism_median_batch(values, offsets, 0.5, los, his,
                                               rng=np.random.default_rng(0))
        b = exponential_mechanism_median_batch(values, offsets, np.full(7, 0.5), los, his,
                                               rng=np.random.default_rng(0))
        assert np.array_equal(a, b)

    def test_smooth_sensitivity_of_median_matches_kernel(self, rng):
        values = np.sort(rng.uniform(0.0, 100.0, 301))
        sigma = smooth_sensitivity_of_median(values, 0.4, 1e-4, 0.0, 100.0)
        batchless = smooth_sensitivity_median_batch(
            values, np.array([0, values.size]), 0.4, 0.0, 100.0,
            uniforms=np.array([[0.5]]))  # Lap(0.5 -> 0): pure median + 0 * sigma
        assert 0 < sigma <= 100.0
        assert 0.0 <= batchless[0] <= 100.0

    def test_rejects_bad_offsets_and_unsorted_values(self):
        with pytest.raises(ValueError, match="offsets"):
            exponential_mechanism_median_batch(np.array([1.0, 2.0]), np.array([0, 1]),
                                               1.0, 0.0, 10.0)
        with pytest.raises(ValueError, match="sorted"):
            exponential_mechanism_median_batch(np.array([2.0, 1.0]), np.array([0, 2]),
                                               1.0, 0.0, 10.0)
        with pytest.raises(ValueError, match="epsilon"):
            exponential_mechanism_median_batch(np.array([1.0, 2.0]), np.array([0, 2]),
                                               0.0, 0.0, 10.0)

    def test_rejects_values_outside_domain(self):
        with pytest.raises(ValueError, match="domain"):
            exponential_mechanism_median_batch(np.array([5.0]), np.array([0, 1]),
                                               1.0, 0.0, 1.0)


def cumsum_per_segment(flat, offsets):
    return np.concatenate([np.cumsum(flat[a:b]) for a, b in zip(offsets[:-1], offsets[1:])]
                          + [np.empty(0)])


def em_from_definition(values, epsilon, lo, hi, u):
    """One EM median straight from Definition 5, independent of the batch code.

    Interval ``I_t`` runs from the t-th to the (t+1)-th order statistic (``lo``
    and ``hi`` at the ends) and is picked with weight ``|I_t| exp(-eps/2 |t -
    n/2|)`` by inverting its CDF at ``u[0]``; the output sits at ``u[1]``
    across it.  A domain with no positive-width interval returns ``x_{n//2}``
    (``lo`` when empty).
    """
    n = values.size
    bounds = np.concatenate(([lo], values, [hi]))
    left, right = bounds[:-1], bounds[1:]
    lengths = right - left
    positive = lengths > 0
    if not positive.any():
        out = values[n // 2] if n else lo
    else:
        score = -(epsilon / 2.0) * np.abs(np.arange(n + 1) - n / 2.0)
        log_w = np.full(n + 1, -np.inf)
        log_w[positive] = score[positive] + np.log(lengths[positive])
        cdf = np.cumsum(np.exp(log_w - log_w.max()))
        t = min(int(np.count_nonzero(cdf / cdf[-1] <= u[0])), n)
        width = right[t] - left[t]
        out = left[t] + width * u[1] if width > 0 else left[t]
    return min(max(out, lo), hi)


def em_level(shape: str, seed: int):
    """A ragged EM level, or one mixed with every edge case.

    Shaped like a deep kd-standard level of the sweep-kd benchmark: 3,072
    segments of about 60 values on average, but a median of about 18 and a
    long tail, so they span a dozen power-of-two length classes.  Private
    splits far from the top leave siblings with very different counts.
    """
    gen = np.random.default_rng(seed)
    k = 3072
    counts = np.minimum(np.rint(np.exp(gen.normal(np.log(18.0), 1.55, k))), 4000).astype(int)
    los = np.zeros(k)
    his = gen.uniform(0.5, 2.0, k)
    if shape == "edge-cases":
        counts[::7] = 0  # empty segments
        counts[1::11] = 1
        counts[2::13] = gen.integers(100, 300, counts[2::13].size)
        his[3::17] = los[3::17]  # lo == hi, with values
        his[::29] = los[::29]  # lo == hi, some empty
    segments = [np.sort(gen.uniform(los[i], his[i], counts[i])) for i in range(k)]
    if shape == "edge-cases":
        for i in range(4, k, 19):  # duplicates, and values on lo and hi
            seg = segments[i]
            if seg.size >= 4:
                seg[: seg.size // 2] = seg[seg.size // 2]
                seg[0], seg[-1] = los[i], his[i]
                segments[i] = np.sort(seg)
    values = np.concatenate(segments)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    eps = gen.uniform(0.01, 2.0, k)
    return segments, values, offsets, eps, los, his


class TestEMIntervalSweep:
    """The EM batch builds every segment's intervals with two inserts and one
    per-class cumsum; both must keep the bits of the per-segment forms."""

    @pytest.mark.parametrize("lengths", [
        [],
        [0, 0, 0],
        [0, 40, 50, 0, 63, 33],  # one class (32..63)
        [0, 1, 2, 3, 4, 7, 8, 9, 16, 17, 0, 1000],  # several classes
        [2 ** j for j in range(12)] + [2 ** j + 1 for j in range(12)],
    ], ids=["no-segments", "all-empty", "one-class", "several-classes", "powers-of-two"])
    def test_segment_cumsum_equals_numpy_per_segment(self, lengths):
        from repro.privacy.median import _segment_cumsum

        gen = np.random.default_rng(len(lengths))
        offsets = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
        flat = 10.0 ** gen.uniform(-12.0, 12.0, int(offsets[-1]))
        got = _segment_cumsum(flat, offsets)
        assert got.shape == flat.shape
        assert np.array_equal(got, cumsum_per_segment(flat, offsets))

    @pytest.mark.parametrize("shape", ["sweep-level", "edge-cases"])
    def test_em_batch_equals_per_node_and_definition(self, shape):
        segments, values, offsets, eps, los, his = em_level(shape, seed=5)
        g_batch, g_seq = np.random.default_rng(3), np.random.default_rng(3)
        batch = exponential_mechanism_median_batch(values, offsets, eps, los, his, rng=g_batch,
                                                   validate=False)
        em = per_node("em")
        sequential = np.array([em(seg, eps[i], los[i], his[i], rng=g_seq)
                               for i, seg in enumerate(segments)])
        assert np.array_equal(batch, sequential)
        assert g_batch.bit_generator.state == g_seq.bit_generator.state
        u = np.random.default_rng(3).random((len(segments), 2))
        reference = np.array([em_from_definition(seg, eps[i], los[i], his[i], u[i])
                              for i, seg in enumerate(segments)])
        assert np.array_equal(batch, reference)


def build_pair(rule, height, seed, **kwargs):
    pointer = oracle.build_psd(POINTS, DOMAIN, height, rule, epsilon=1.0, rng=seed, **kwargs)
    flat = build_psd(POINTS, DOMAIN, height, rule, epsilon=1.0, rng=seed, **kwargs)
    return pointer, flat


def assert_engines_equal(a, b, names=("lo", "hi", "level", "released", "has_count",
                                      "is_leaf", "child_start", "child_end", "area")):
    for name in names:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def assert_index_trees_equal(pointer, flat):
    """The 1-D Hilbert-index trees of two Hilbert R-trees, bitwise on the
    raw arrays."""
    _, expected = oracle.flatten_tree(pointer)
    for name in ("lo", "hi", "level", "child_start", "child_end", "noisy_count",
                 "post_count"):
        a, b = getattr(expected, name), getattr(flat.flat_tree, name)
        assert (a is None and b is None) or np.array_equal(a, b, equal_nan=True), name


@pytest.fixture()
def no_per_node_fallback():
    """The build has no per-node split path left to fall back to."""
    import repro.core.flatbuild as flatbuild
    import repro.core.splits as splits

    assert not hasattr(flatbuild, "_split_level_per_node")
    assert not hasattr(splits.SplitRule, "split")


class TestLevelBatchedBuilds:
    @pytest.mark.parametrize("method", ["em", "true"])
    @pytest.mark.parametrize("height", [1, 3])
    @pytest.mark.parametrize("seed", [2, 23])
    def test_kd_layout_parity_zero_fallback(self, no_per_node_fallback, method, height, seed):
        pointer, flat = build_pair(KDSplit(median_method=method), height, seed,
                                   postprocess=True)
        assert isinstance(flat.flat_tree, FlatTree)
        assert_engines_equal(oracle.compile_psd(pointer), compile_psd(flat))

    @pytest.mark.slow
    @pytest.mark.parametrize("method", ["ss", "cell", "noisymean", "ems", "sss"])
    @pytest.mark.parametrize("height", [1, 2, 3])
    @pytest.mark.parametrize("seed", [2, 23, 151])
    def test_kd_layout_parity_all_methods(self, method, height, seed):
        pointer, flat = build_pair(KDSplit(median_method=method), height, seed,
                                   postprocess=True)
        assert_engines_equal(oracle.compile_psd(pointer), compile_psd(flat))

    def test_hybrid_zero_fallback(self, no_per_node_fallback):
        pointer, flat = build_pair(HybridSplit(kd_levels=2, median_method="em"), 4, 5,
                                   postprocess=True)
        assert_engines_equal(oracle.compile_psd(pointer), compile_psd(flat))

    def test_kd_level_below_a_quadtree_level(self):
        """A kd level that receives its points in a quadtree level's routing
        order (nodes interleaved, x still sorted) must sort them itself."""

        class QuadAboveKD(HybridSplit):
            def is_data_dependent(self, level, height):
                return level < height

        pts = POINTS[np.argsort(POINTS[:, 0])]
        rule = QuadAboveKD(median_method="em")
        pointer = oracle.build_psd(pts, DOMAIN, 3, rule, epsilon=1.0, rng=4)
        flat = build_psd(pts, DOMAIN, 3, rule, epsilon=1.0, rng=4)
        assert_engines_equal(oracle.compile_psd(pointer), compile_psd(flat))

    def test_kd_pure_variant_zero_fallback(self, no_per_node_fallback):
        pointer = oracle.build_private_kdtree(POINTS, DOMAIN, 3, 1.0, variant="kd-pure",
                                              rng=31)
        flat = build_private_kdtree(POINTS, DOMAIN, 3, 1.0, variant="kd-pure",
                                    rng=31)
        assert isinstance(flat.flat_tree, FlatTree)
        assert_engines_equal(oracle.compile_psd(pointer), compile_psd(flat))

    def test_median_method_override(self):
        psd = build_private_kdtree(POINTS, DOMAIN, 2, 1.0, variant="kd-standard",
                                   median_method="noisymean", rng=1)
        assert psd.name == "kd-standard"

    @pytest.mark.parametrize("seed", [3, 17])
    @pytest.mark.parametrize("height", [1, 6])
    def test_hilbert_layout_parity_zero_fallback(self, no_per_node_fallback, seed, height):
        kwargs = dict(height=height, epsilon=1.0, order=10, postprocess=True)
        pointer = oracle.build_private_hilbert_rtree(POINTS, DOMAIN, rng=seed, **kwargs)
        flat = build_private_hilbert_rtree(POINTS, DOMAIN, rng=seed, **kwargs)
        assert isinstance(flat.flat_tree, FlatTree)
        assert_index_trees_equal(pointer, flat)
        assert_engines_equal(oracle.compile_psd(pointer), compile_psd(flat))

    @pytest.mark.slow
    @pytest.mark.parametrize("method", ["ss", "noisymean", "true", "ems"])
    def test_hilbert_all_methods_parity(self, method):
        kwargs = dict(height=5, epsilon=1.0, order=8, median_method=method,
                      postprocess=True)
        pointer = oracle.build_private_hilbert_rtree(POINTS, DOMAIN, rng=13, **kwargs)
        flat = build_private_hilbert_rtree(POINTS, DOMAIN, rng=13, **kwargs)
        assert_index_trees_equal(pointer, flat)
        assert_engines_equal(oracle.compile_psd(pointer), compile_psd(flat))

    def test_boundary_points_still_exact(self):
        """Points exactly on the domain's top face keep both layouts identical
        (a split landing on them routes them to the high child only)."""
        gen = np.random.default_rng(0)
        pts = np.concatenate([uniform_points(500, DOMAIN, rng=gen),
                              np.array([[1.0, 1.0], [1.0, 0.4], [0.3, 1.0]])])
        pointer = oracle.build_psd(pts, DOMAIN, 3, KDSplit(median_method="em"),
                                   epsilon=1.0, rng=5)
        flat = build_psd(pts, DOMAIN, 3, KDSplit(median_method="em"),
                         epsilon=1.0, rng=5)
        assert_engines_equal(oracle.compile_psd(pointer), compile_psd(flat))

    def test_sampled_near_boundary_falls_back_correctly(self):
        """Sampled methods keep their level-batched layout when points hug the
        top face — the builds must still match bitwise."""
        gen = np.random.default_rng(1)
        pts = np.concatenate([uniform_points(400, DOMAIN, rng=gen),
                              np.array([[1.0 - 1e-9, 0.5]])])
        pointer = oracle.build_psd(pts, DOMAIN, 2, KDSplit(median_method="ems"),
                                   epsilon=1.0, rng=9)
        flat = build_psd(pts, DOMAIN, 2, KDSplit(median_method="ems"),
                         epsilon=1.0, rng=9)
        assert_engines_equal(oracle.compile_psd(pointer), compile_psd(flat))


class TestCellSplitLevel:
    """The cell-based kd split reads a whole level's medians off the grid in
    blocks of nodes; each rect must get the per-rect reference's bits."""

    @pytest.mark.parametrize("shape,n_rects", [((32, 24), 1024), ((256, 256), 64)])
    def test_level_medians_match_per_rect_reference(self, shape, n_rects):
        gen = np.random.default_rng(5)
        counts = gen.normal(3.0, 4.0, shape)
        counts[: shape[0] // 4, : shape[1] // 4] = -1.0  # nothing left after clipping
        rule = CellKDSplit(noisy_grid=NoisyGrid(grid=UniformGrid(domain=DOMAIN, shape=shape),
                                                counts=counts, epsilon=1.0))
        lo = gen.uniform(-0.25, 1.0, (n_rects, 2))
        hi = lo + gen.uniform(0.0, 0.6, (n_rects, 2))
        lo[0], hi[0] = (1.5, 1.5), (2.0, 2.0)  # no grid overlap
        lo[1], hi[1] = (0.01, 0.02), (0.2, 0.2)  # zero clipped grid mass
        hi[2, 0] = lo[2, 0]  # zero width: no overlap either
        no_points = np.empty((0, 2))
        child_lo, child_hi, _, _ = rule.split_level(lo, hi, no_points, np.empty(0, dtype=np.int64),
                                                    1, 1, 0.0)
        for i in range(n_rects):
            children = oracle.split_node(rule, Rect(tuple(lo[i]), tuple(hi[i])), no_points,
                                         1, 1, DOMAIN, 0.0)
            for j, (rect, _) in enumerate(children):
                assert rect.lo == tuple(child_lo[4 * i + j]), (i, j)
                assert rect.hi == tuple(child_hi[4 * i + j]), (i, j)

    @pytest.mark.parametrize("shape,n_rects", [((32, 24), 1024), ((256, 256), 256)])
    def test_level_medians_near_full_weight_formula(self, shape, n_rects):
        """The prefix-sum profile re-associates the full-weight grid sum: every
        split stays within 1e-12 of the domain width of the full-weight formula."""
        gen = np.random.default_rng(11)
        counts = gen.normal(3.0, 4.0, shape)
        counts[: shape[0] // 4, : shape[1] // 4] = -1.0  # nothing left after clipping
        grid = UniformGrid(domain=TIGER_DOMAIN, shape=shape)
        rule = CellKDSplit(noisy_grid=NoisyGrid(grid=grid, counts=counts, epsilon=1.0))
        d_lo, d_hi = np.asarray(TIGER_DOMAIN.rect.lo), np.asarray(TIGER_DOMAIN.rect.hi)
        widths = d_hi - d_lo
        lo = d_lo + widths * gen.uniform(-0.25, 1.0, (n_rects, 2))
        hi = lo + widths * gen.uniform(0.0, 0.6, (n_rects, 2))
        ex, ey = grid.edges(0), grid.edges(1)
        cell = np.array([ex[1] - ex[0], ey[1] - ey[0]])
        mx, my = shape[0] // 2, shape[1] // 2  # a cell with mass
        corner = np.array([ex[mx], ey[my]])
        edge_cases = [
            ((ex[3], ey[2]), (ex[mx + 3], ey[my + 5])),  # on grid edges
            ((ex[0], ey[0]), (ex[-1], ey[-1])),  # the whole grid
            (corner + (0.1, 0.2) * cell, corner + (0.4, 0.9) * cell),  # inside one cell
            ((ex[2], ey[my] + 0.3 * cell[1]), (ex[-3], ey[my] + 0.6 * cell[1])),  # one cell row
            (d_hi - 0.5 * cell, d_hi + cell),  # inside the top cell, partly off the grid
            (d_hi + 1.0, d_hi + 2.0),  # off the grid
            (d_lo + cell, d_lo + 0.2 * widths),  # zero clipped grid mass
            ((ex[4], ey[4]), (ex[4], ey[20])),  # zero width
        ]
        for i, (case_lo, case_hi) in enumerate(edge_cases):
            lo[i], hi[i] = case_lo, case_hi
        no_points = np.empty((0, 2))
        child_lo, child_hi, _, _ = rule.split_level(lo, hi, no_points, np.empty(0, dtype=np.int64),
                                                    1, 1, 0.0)
        split_x = child_hi[0::4, 0]
        split_y = child_hi[0::2, 1].reshape(n_rects, 2)  # low half's y-split, then the high half's
        noisy = rule.noisy_grid
        for i in range(n_rects):
            ref_x = oracle.full_weight_grid_median(noisy, Rect(tuple(lo[i]), tuple(hi[i])), axis=0)
            assert abs(split_x[i] - ref_x) <= 1e-12 * widths[0], (i, split_x[i], ref_x)
            halves = (Rect(tuple(lo[i]), (split_x[i], hi[i, 1])),
                      Rect((split_x[i], lo[i, 1]), tuple(hi[i])))
            for j, half in enumerate(halves):
                ref_y = oracle.full_weight_grid_median(noisy, half, axis=1)
                assert abs(split_y[i, j] - ref_y) <= 1e-12 * widths[1], (i, j, split_y[i, j], ref_y)

    @pytest.mark.parametrize("resolution", [16, 64])
    @pytest.mark.parametrize("height", [2, 4])
    def test_cell_layout_parity_zero_fallback(self, no_per_node_fallback, height, resolution):
        kwargs = dict(variant="kd-cell", cell_resolution=resolution, rng=29)
        pointer = oracle.build_private_kdtree(POINTS, DOMAIN, height, 1.0, **kwargs)
        flat = build_private_kdtree(POINTS, DOMAIN, height, 1.0, **kwargs)
        assert_engines_equal(oracle.compile_psd(pointer), compile_psd(flat))

    @pytest.mark.slow
    @pytest.mark.parametrize("height", [3, 5])
    def test_cell_default_resolution_parity(self, height):
        kwargs = dict(variant="kd-cell", rng=31)
        pointer = oracle.build_private_kdtree(POINTS, DOMAIN, height, 0.5, **kwargs)
        flat = build_private_kdtree(POINTS, DOMAIN, height, 0.5, **kwargs)
        assert_engines_equal(oracle.compile_psd(pointer), compile_psd(flat))


class TestHilbertPlanarCompile:
    def test_flat_compile_matches_pointer_walk(self):
        kwargs = dict(height=6, epsilon=1.0, order=10, postprocess=True)
        pointer = oracle.build_private_hilbert_rtree(POINTS, DOMAIN, rng=3, **kwargs)
        flat = build_private_hilbert_rtree(POINTS, DOMAIN, rng=3, **kwargs)
        a = oracle.compile_psd(pointer)
        b = compile_psd(flat)
        assert isinstance(flat.flat_tree, FlatTree)
        assert_engines_equal(a, b)
        assert (a.name, a.domain_name, a.release) == (b.name, b.domain_name, b.release)
        b.validate()

    def test_planar_queries_match_recursive(self):
        tree = build_private_hilbert_rtree(POINTS, DOMAIN, height=6, epsilon=1.0,
                                           order=10, rng=4, postprocess=True)
        engine = tree.compile()
        gen = np.random.default_rng(8)
        for _ in range(20):
            lo = gen.uniform(0.0, 0.6, 2)
            q = Rect(tuple(lo), tuple(lo + gen.uniform(0.05, 0.4, 2)))
            assert engine.range_query(q) == pytest.approx(
                oracle.hilbert_range_query(tree, q), rel=1e-9, abs=1e-9)

    def test_node_bboxes_flat_equals_pointer(self):
        kwargs = dict(height=5, epsilon=1.0, order=8, rng=6)
        engine = build_private_hilbert_rtree(POINTS, DOMAIN, **kwargs).compile()
        pointer = oracle.build_private_hilbert_rtree(POINTS, DOMAIN, **kwargs)
        boxes_pointer = oracle.node_bboxes(pointer)
        assert engine.level.tolist() == [level for level, _ in boxes_pointer]
        assert np.array_equal(engine.lo, [rect.lo for _, rect in boxes_pointer])
        assert np.array_equal(engine.hi, [rect.hi for _, rect in boxes_pointer])

    def test_range_bboxes_matches_scalar(self):
        curve = HilbertCurve(order=7, domain=Rect((0.0, 0.0), (4.0, 2.0)))
        gen = np.random.default_rng(11)
        lo = gen.integers(0, curve.max_index, 50)
        hi = np.minimum(lo + gen.integers(0, 5000, 50), curve.max_index)
        blo, bhi = curve.range_bboxes(lo, hi)
        for i in range(lo.size):
            rect = curve.range_bbox(int(lo[i]), int(hi[i]))
            assert tuple(blo[i]) == rect.lo
            assert tuple(bhi[i]) == rect.hi

    def test_range_bboxes_full_and_single(self):
        curve = HilbertCurve(order=5, domain=Rect((0.0, 0.0), (1.0, 1.0)))
        blo, bhi = curve.range_bboxes([0, 17], [curve.max_index, 17])
        rect_full = curve.range_bbox(0, curve.max_index)
        rect_one = curve.range_bbox(17, 17)
        assert tuple(blo[0]) == rect_full.lo and tuple(bhi[0]) == rect_full.hi
        assert tuple(blo[1]) == rect_one.lo and tuple(bhi[1]) == rect_one.hi


class TestCacheCounters:
    def test_cli_query_stats(self, tmp_path, capsys):
        from repro.cli import main

        release = tmp_path / "release.json"
        assert main(["build", "--synthetic", "500", "--height", "3",
                     "--output", str(release)]) == 0
        capsys.readouterr()
        rect = "--rect=-123,46,-121,48"
        assert main(["query", str(release), "--stats", rect, rect]) == 0
        captured = capsys.readouterr()
        # One worker serves in-process: one batch of both rects, no pool.
        assert "serve stats: 1 workers, 2 queries in 1 batches (0 sharded, 0 chunks)" \
            in captured.err
        assert "cache" not in captured.err

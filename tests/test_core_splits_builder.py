"""Tests for the split rules and the generic PSD builder.

Single-node splits go through the test oracle's per-node reference
(``oracle.split_node``); production splits whole levels at once.
"""

from __future__ import annotations

import numpy as np
import pytest

import oracle
from repro.core.builder import BudgetSplit, build_psd, populate_noisy_counts
from repro.core.hilbert_rtree import BinaryMedianSplit
from repro.core.splits import CellKDSplit, HybridSplit, KDSplit, QuadSplit, _stable_argsort
from repro.data import uniform_points
from repro.geometry import Domain, Rect
from repro.index import UniformGrid


@pytest.fixture(scope="module")
def domain():
    return Domain.unit(2)


@pytest.fixture(scope="module")
def points(domain):
    return uniform_points(3_000, domain, rng=np.random.default_rng(5))


def children_partition_points(children, total_points):
    counted = sum(pts.shape[0] for _, pts in children)
    assert counted == total_points


# ----------------------------------------------------------------------
# Split rules
# ----------------------------------------------------------------------
class TestQuadSplit:
    def test_four_equal_children(self, domain, points):
        rule = QuadSplit()
        children = oracle.split_node(rule, domain.rect, points, level=3, height=3, domain=domain,
                                     epsilon_median=0.0)
        assert len(children) == 4
        areas = [rect.area for rect, _ in children]
        assert all(a == pytest.approx(0.25) for a in areas)
        children_partition_points(children, points.shape[0])

    def test_not_data_dependent(self):
        rule = QuadSplit()
        assert not rule.is_data_dependent(3, 5)
        assert rule.data_dependent_levels(5) == []


class TestKDSplit:
    def test_fanout_four_and_partition(self, domain, points, rng):
        rule = KDSplit(median_method="true")
        children = oracle.split_node(rule, domain.rect, points, level=2, height=4, domain=domain,
                                     epsilon_median=0.0, rng=rng)
        assert len(children) == 4
        children_partition_points(children, points.shape[0])

    def test_true_median_balances_counts(self, domain, points, rng):
        rule = KDSplit(median_method="true")
        children = oracle.split_node(rule, domain.rect, points, level=2, height=4, domain=domain,
                                     epsilon_median=0.0, rng=rng)
        counts = [pts.shape[0] for _, pts in children]
        assert max(counts) - min(counts) <= points.shape[0] * 0.05 + 4

    def test_private_median_split_stays_inside_rect(self, domain, points, rng):
        rule = KDSplit(median_method="em")
        children = oracle.split_node(rule, domain.rect, points, level=2, height=4, domain=domain,
                                     epsilon_median=0.5, rng=rng)
        for rect, _ in children:
            assert domain.rect.contains_rect(rect)

    def test_zero_budget_falls_back_to_midpoint(self, domain, points, rng):
        rule = KDSplit(median_method="em")
        children = oracle.split_node(rule, domain.rect, points, level=2, height=4, domain=domain,
                                     epsilon_median=0.0, rng=rng)
        # With the midpoint fallback the children are the four equal quadrants.
        areas = sorted(rect.area for rect, _ in children)
        assert areas == pytest.approx([0.25, 0.25, 0.25, 0.25])

    def test_is_data_dependent_everywhere(self):
        assert KDSplit().data_dependent_levels(4) == [1, 2, 3, 4]

    def test_refuses_what_the_level_split_cannot_batch(self):
        with pytest.raises(ValueError, match="batch form"):
            KDSplit(median_method=lambda values, epsilon, lo, hi, rng=None: (lo + hi) / 2)
        with pytest.raises(ValueError, match="batch form"):
            HybridSplit(median_method=lambda values, epsilon, lo, hi, rng=None: (lo + hi) / 2)
        lo, hi = np.zeros((2, 2)), np.ones((2, 2))
        pts, node = np.full((2, 2), 0.5), np.array([0, 1])
        with pytest.raises(ValueError, match="all zero or all positive"):
            KDSplit().split_level(lo, hi, pts, node, 1, 1, np.array([0.0, 0.5]), rng=0)
        with pytest.raises(ValueError, match="two dimensions"):
            KDSplit().split_level(lo[:, :1], hi[:, :1], pts[:, :1], node, 1, 1, 0.5, rng=0)


class TestHybridSplit:
    def test_switch_level(self):
        rule = HybridSplit(kd_levels=2)
        assert rule.is_data_dependent(5, 5)
        assert rule.is_data_dependent(4, 5)
        assert not rule.is_data_dependent(3, 5)
        assert rule.data_dependent_levels(5) == [4, 5]

    def test_quad_below_switch(self, domain, points, rng):
        rule = HybridSplit(kd_levels=1, median_method="true")
        children = oracle.split_node(rule, domain.rect, points, level=2, height=5, domain=domain,
                                     epsilon_median=0.0, rng=rng)
        areas = sorted(rect.area for rect, _ in children)
        assert areas == pytest.approx([0.25, 0.25, 0.25, 0.25])

    def test_negative_levels_rejected(self):
        with pytest.raises(ValueError):
            HybridSplit(kd_levels=-1)


class TestCellKDSplit:
    @pytest.fixture(scope="class")
    def noisy_grid(self, domain, points):
        grid = UniformGrid(domain=domain, shape=(32, 32)).fit(points)
        return grid.noisy_counts(50.0, rng=np.random.default_rng(0))

    def test_requires_grid(self):
        with pytest.raises(ValueError):
            CellKDSplit(noisy_grid=None)
        line = UniformGrid(domain=Domain.unit(1), shape=(8,)).noisy_counts(1.0, rng=0)
        with pytest.raises(ValueError, match="two-dimensional"):
            CellKDSplit(noisy_grid=line)

    def test_fanout_and_partition(self, domain, points, noisy_grid, rng):
        rule = CellKDSplit(noisy_grid=noisy_grid)
        children = oracle.split_node(rule, domain.rect, points, level=2, height=4, domain=domain,
                                     epsilon_median=0.0, rng=rng)
        assert len(children) == 4
        children_partition_points(children, points.shape[0])

    def test_grid_median_close_to_true_median(self, domain, points, noisy_grid):
        est = oracle.grid_median_along_axis(noisy_grid, domain.rect, axis=0)
        assert est == pytest.approx(np.median(points[:, 0]), abs=0.1)

    def test_grid_median_on_disjoint_rect(self, noisy_grid):
        outside = Rect((5.0, 5.0), (6.0, 6.0))
        assert oracle.grid_median_along_axis(noisy_grid, outside, axis=0) == pytest.approx(5.5)

    def test_grid_median_invalid_axis(self, domain, noisy_grid):
        with pytest.raises(ValueError):
            oracle.grid_median_along_axis(noisy_grid, domain.rect, axis=3)

    def test_not_data_dependent(self, noisy_grid):
        assert CellKDSplit(noisy_grid=noisy_grid).data_dependent_levels(5) == []


# ----------------------------------------------------------------------
# Point order: each level arrives in the order the previous one returned
# ----------------------------------------------------------------------
def _keys(case):
    gen = np.random.default_rng(11)
    return {
        "empty": np.empty(0, dtype=np.int64),
        "one key": np.array([9], dtype=np.int64),
        "all equal": np.full(500, 2**33 + 5, dtype=np.int64),
        "below 2^16": gen.integers(0, 2**16, 4_000),
        "at 2^16": np.concatenate([gen.integers(2**16 - 3, 2**16 + 1, 4_000), [2**16]]),
        "above 2^16": gen.integers(0, 40, 4_000) * 3_001,
        "above 2^32": gen.integers(0, 40, 4_000) * (2**32 + 2**17 + 3),
        "mixed sign": gen.integers(-30, 30, 4_000) * (2**40 + 1),
    }[case]


@pytest.mark.parametrize("case", ["empty", "one key", "all equal", "below 2^16", "at 2^16",
                                  "above 2^16", "above 2^32", "mixed sign"])
def test_stable_argsort_equals_numpy_stable_argsort(case):
    keys = _keys(case)
    order = _stable_argsort(keys)
    expected = np.argsort(keys, kind="stable")
    assert order.dtype == expected.dtype
    assert np.array_equal(order, expected)


class TestSplitRulesOwnPointOrder:
    """The level loop hands a rule the points in the order the previous
    level's rule returned them: grouped by node after a kd or Hilbert level,
    in routing order after a quadtree or cell-based one.  A rule must split a
    level the same way whatever that order."""

    HEIGHT = 3

    @pytest.fixture(scope="class")
    def noisy_grid(self, domain, points):
        grid = UniformGrid(domain=domain, shape=(32, 32)).fit(points)
        return grid.noisy_counts(50.0, rng=np.random.default_rng(0))

    def level(self, points, dims):
        """Four nodes and their points, sorted by ``(node, x)`` as a kd level
        hands them on."""
        pts = points[:, :dims]
        if dims == 1:
            lo = np.array([[0.0], [0.25], [0.5], [0.75]])
            hi = lo + 0.25
            node = np.minimum((pts[:, 0] * 4).astype(np.int64), 3)
        else:
            lo = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]])
            hi = lo + 0.5
            node = (pts[:, 0] >= 0.5).astype(np.int64) + 2 * (pts[:, 1] >= 0.5)
        order = np.lexsort((pts[:, 0], node))
        return lo, hi, pts[order], node[order]

    def cases(self, noisy_grid):
        """Each rule with its point dimension and the level it splits."""
        h = self.HEIGHT
        return {
            "quad": (QuadSplit(), 2, h),
            "kd-em": (KDSplit(median_method="em"), 2, h),
            "kd-true": (KDSplit(median_method="true"), 2, h),
            "kd-noisymean": (KDSplit(median_method="noisymean"), 2, h),
            "hybrid-kd-side": (HybridSplit(kd_levels=1, median_method="em"), 2, h),
            "hybrid-quad-side": (HybridSplit(kd_levels=1, median_method="em"), 2, h - 1),
            "cell-kd": (CellKDSplit(noisy_grid=noisy_grid), 2, h),
            "hilbert-binary": (BinaryMedianSplit(median_method="em"), 1, h),
        }

    def split(self, rule, lo, hi, pts, node, level):
        eps = 0.5 if rule.is_data_dependent(level, self.HEIGHT) else 0.0
        return rule.split_level(lo, hi, pts, node, level, self.HEIGHT, eps,
                                rng=np.random.default_rng(21))

    @staticmethod
    def routed(child, pts):
        """The (child, point) pairs, in one canonical order."""
        rows = np.column_stack([child, pts])
        return rows[np.lexsort(rows.T[::-1])]

    @pytest.mark.parametrize("arrangement", ["shuffled", "sorted by x"])
    @pytest.mark.parametrize("case", ["quad", "kd-em", "kd-true", "kd-noisymean",
                                      "hybrid-kd-side", "hybrid-quad-side", "cell-kd",
                                      "hilbert-binary"])
    def test_split_does_not_depend_on_point_order(self, points, noisy_grid, arrangement, case):
        rule, dims, level = self.cases(noisy_grid)[case]
        lo, hi, pts, node = self.level(points, dims)
        if arrangement == "shuffled":
            perm = np.random.default_rng(3).permutation(pts.shape[0])
        else:  # interleaves the nodes, yet leaves x sorted within any window
            perm = np.argsort(pts[:, 0], kind="stable")
        grouped = self.split(rule, lo, hi, pts, node, level)
        moved = self.split(rule, lo, hi, pts[perm], node[perm], level)
        for a, b in zip(grouped[:2], moved[:2]):
            assert np.array_equal(a, b)  # child bounds, bitwise
        n_children = grouped[0].shape[0]
        assert np.array_equal(np.bincount(grouped[2], minlength=n_children),
                              np.bincount(moved[2], minlength=n_children))
        assert np.array_equal(self.routed(*grouped[2:]), self.routed(*moved[2:]))
        if rule.is_data_dependent(level, self.HEIGHT):  # the kd and Hilbert rules
            for child, out in (grouped[2:], moved[2:]):
                assert np.all(np.diff(child) >= 0)  # grouped by child ...
                assert np.all(np.diff(out[:, 0])[np.diff(child) == 0] >= 0)  # ... x sorted within


# ----------------------------------------------------------------------
# BudgetSplit and builder
# ----------------------------------------------------------------------
class TestBudgetSplit:
    def test_default_70_30(self):
        count, median = BudgetSplit().partition(1.0, data_dependent=True)
        assert count == pytest.approx(0.7)
        assert median == pytest.approx(0.3)

    def test_data_independent_gets_everything(self):
        count, median = BudgetSplit(count_fraction=0.5).partition(1.0, data_dependent=False)
        assert count == pytest.approx(1.0)
        assert median == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BudgetSplit(count_fraction=0.0)
        with pytest.raises(ValueError):
            BudgetSplit().partition(0.0, data_dependent=True)


class TestBuilder:
    def test_complete_tree_structure(self, domain, points):
        psd = build_psd(points, domain, 3, QuadSplit(), epsilon=1.0, rng=1)
        assert psd.is_complete()
        assert psd.node_count() == sum(4**i for i in range(4))
        assert psd.height == 3 and psd.fanout == 4

    def test_true_counts_partition_data(self, domain, points):
        psd = build_psd(points, domain, 3, QuadSplit(), epsilon=1.0, rng=1)
        assert oracle.root(psd)._true_count == points.shape[0]
        for node in oracle.nodes(psd):
            if not node.is_leaf:
                assert node._true_count == sum(c._true_count for c in node.children)

    def test_accountant_charges_sum_to_epsilon(self, domain, points):
        psd = build_psd(points, domain, 3, KDSplit(median_method="em"), epsilon=0.8,
                        count_budget="geometric", rng=2)
        acc = psd.accountant
        assert acc.path_epsilon == pytest.approx(0.8)
        assert acc.per_kind["count"] == pytest.approx(0.56)
        assert acc.per_kind["median"] == pytest.approx(0.24)
        acc.assert_within_budget()

    def test_noiseless_counts_for_baselines(self, domain, points):
        psd = build_psd(points, domain, 2, KDSplit(median_method="true"), epsilon=1.0,
                        budget_split=BudgetSplit(count_fraction=1.0), noiseless_counts=True, rng=3)
        for node in oracle.nodes(psd):
            assert node.noisy_count == node._true_count

    def test_zero_budget_levels_release_nothing(self, domain, points):
        psd = build_psd(points, domain, 2, QuadSplit(), epsilon=1.0, count_budget="leaf-only", rng=4)
        assert np.isnan(oracle.root(psd).noisy_count)
        for leaf in oracle.leaves(psd):
            assert np.isfinite(leaf.noisy_count)

    def test_postprocess_and_prune_flags(self, domain, points):
        # 3 000 points over 16 level-1 nodes gives ~190 per node; a threshold of
        # 250 therefore cuts every level-1 subtree while keeping level 2.
        psd = build_psd(points, domain, 3, QuadSplit(), epsilon=1.0, rng=5,
                        postprocess=True, prune_threshold=250.0)
        assert all(n.post_count is not None for n in oracle.nodes(psd))
        assert psd.node_count() < sum(4**i for i in range(4))

    def test_invalid_parameters(self, domain, points):
        with pytest.raises(ValueError):
            build_psd(points, domain, -1, QuadSplit(), epsilon=1.0)
        with pytest.raises(ValueError):
            build_psd(points, domain, 2, QuadSplit(), epsilon=0.0)

    def test_populate_noisy_counts_redraws(self, domain, points):
        psd = build_psd(points, domain, 2, QuadSplit(), epsilon=1.0, rng=6)
        first = oracle.root(psd).noisy_count
        populate_noisy_counts(psd, rng=np.random.default_rng(123))
        assert oracle.root(psd).noisy_count != first

    def test_points_outside_domain_rejected(self, domain):
        bad = np.array([[0.5, 1.5]])
        with pytest.raises(ValueError):
            build_psd(bad, domain, 2, QuadSplit(), epsilon=1.0)

    def test_height_zero_single_node(self, domain, points):
        psd = build_psd(points, domain, 0, QuadSplit(), epsilon=1.0, rng=7)
        assert psd.node_count() == 1
        assert oracle.root(psd).is_leaf

    def test_empty_dataset(self, domain):
        psd = build_psd(np.empty((0, 2)), domain, 2, QuadSplit(), epsilon=1.0, rng=8)
        assert oracle.root(psd)._true_count == 0
        assert psd.is_complete()

    def test_noise_statistics_match_level_epsilon(self, domain, points):
        """Leaf-level noise should have the variance implied by the leaf epsilon."""
        psd = build_psd(points, domain, 4, QuadSplit(), epsilon=1.0, count_budget="geometric",
                        rng=np.random.default_rng(9))
        leaves = oracle.leaves(psd)
        residuals = np.array([leaf.noisy_count - leaf._true_count for leaf in leaves])
        eps_leaf = psd.count_epsilons[0]
        expected_var = 2.0 / eps_leaf**2
        assert np.var(residuals) == pytest.approx(expected_var, rel=0.4)

"""Tests for the PSD variant constructors: quadtrees, kd-trees, Hilbert R-trees."""

from __future__ import annotations

import numpy as np
import pytest

import oracle
from repro.core import (
    KDTREE_VARIANTS,
    QUADTREE_VARIANTS,
    build_private_hilbert_rtree,
    build_private_kdtree,
    build_private_quadtree,
)
from repro.core.quadtree import QuadtreeConfig
from repro.data import gaussian_cluster_points
from repro.geometry import Domain, Rect

EPSILON = 1.0
HEIGHT = 4


@pytest.fixture(scope="module")
def domain():
    return Domain.unit(2)


@pytest.fixture(scope="module")
def clustered_points(domain):
    return gaussian_cluster_points(4_000, domain, n_clusters=4, spread=0.05,
                                   rng=np.random.default_rng(31))


def total_epsilon(psd):
    return psd.accountant.path_epsilon


# ----------------------------------------------------------------------
# Quadtree variants
# ----------------------------------------------------------------------
class TestQuadtreeVariants:
    def test_registry_has_figure3_variants(self):
        assert set(QUADTREE_VARIANTS) == {"quad-baseline", "quad-geo", "quad-post", "quad-opt"}

    @pytest.mark.parametrize("variant", sorted(QUADTREE_VARIANTS))
    def test_each_variant_builds_and_respects_budget(self, domain, clustered_points, variant):
        psd = build_private_quadtree(clustered_points, domain, HEIGHT, EPSILON, variant=variant, rng=1)
        assert psd.name == variant
        assert psd.is_complete()
        assert total_epsilon(psd) == pytest.approx(EPSILON)
        psd.accountant.assert_within_budget()

    def test_postprocess_flag_respected(self, domain, clustered_points):
        baseline = build_private_quadtree(clustered_points, domain, HEIGHT, EPSILON,
                                          variant="quad-baseline", rng=2)
        optimised = build_private_quadtree(clustered_points, domain, HEIGHT, EPSILON,
                                           variant="quad-opt", rng=2)
        assert all(n.post_count is None for n in oracle.nodes(baseline))
        assert all(n.post_count is not None for n in oracle.nodes(optimised))

    def test_budget_strategies_differ(self, domain, clustered_points):
        geo = build_private_quadtree(clustered_points, domain, HEIGHT, EPSILON, variant="quad-geo", rng=3)
        uni = build_private_quadtree(clustered_points, domain, HEIGHT, EPSILON, variant="quad-baseline", rng=3)
        assert geo.count_epsilons[0] > uni.count_epsilons[0]
        assert sum(geo.count_epsilons) == pytest.approx(sum(uni.count_epsilons))

    def test_unknown_variant_raises(self, domain, clustered_points):
        with pytest.raises(KeyError):
            build_private_quadtree(clustered_points, domain, HEIGHT, EPSILON, variant="quad-magic")

    def test_explicit_config(self, domain, clustered_points):
        config = QuadtreeConfig("custom", count_budget="uniform", postprocess=True)
        psd = build_private_quadtree(clustered_points, domain, HEIGHT, EPSILON, variant=config, rng=4)
        assert psd.name == "custom"

    def test_structure_is_data_independent(self, domain, clustered_points, rng):
        """Two quadtrees over different datasets have identical node rectangles."""
        other_points = gaussian_cluster_points(4_000, domain, n_clusters=2, spread=0.2, rng=rng)
        a = build_private_quadtree(clustered_points, domain, 3, EPSILON, rng=5)
        b = build_private_quadtree(other_points, domain, 3, EPSILON, rng=6)
        rects_a = [n.rect for n in oracle.nodes(a)]
        rects_b = [n.rect for n in oracle.nodes(b)]
        assert rects_a == rects_b

    def test_query_accuracy_reasonable(self, domain, clustered_points):
        psd = build_private_quadtree(clustered_points, domain, 5, 2.0, variant="quad-opt", rng=7)
        query = Rect((0.2, 0.2), (0.9, 0.9))
        truth = query.count_points(clustered_points, closed_hi=True)
        assert psd.range_query(query) == pytest.approx(truth, rel=0.2, abs=30)


# ----------------------------------------------------------------------
# kd-tree variants
# ----------------------------------------------------------------------
class TestKDTreeVariants:
    def test_registry_has_figure5_variants(self):
        assert set(KDTREE_VARIANTS) == {
            "kd-pure", "kd-true", "kd-standard", "kd-hybrid", "kd-cell", "kd-noisymean",
        }

    @pytest.mark.parametrize("variant", sorted(KDTREE_VARIANTS))
    def test_each_variant_builds_complete_fanout4_tree(self, domain, clustered_points, variant):
        psd = build_private_kdtree(clustered_points, domain, HEIGHT, EPSILON, variant=variant, rng=8)
        assert psd.fanout == 4
        assert psd.is_complete()
        assert psd.name == variant

    def test_private_variants_respect_budget(self, domain, clustered_points):
        for variant in ("kd-standard", "kd-hybrid", "kd-cell", "kd-noisymean"):
            psd = build_private_kdtree(clustered_points, domain, HEIGHT, EPSILON, variant=variant, rng=9)
            assert total_epsilon(psd) == pytest.approx(EPSILON), variant
            psd.accountant.assert_within_budget()

    def test_kd_pure_is_noiseless(self, domain, clustered_points):
        psd = build_private_kdtree(clustered_points, domain, HEIGHT, EPSILON, variant="kd-pure", rng=10)
        for node in oracle.nodes(psd):
            assert node.noisy_count == node._true_count

    def test_kd_true_uses_exact_medians_but_noisy_counts(self, domain, clustered_points):
        psd = build_private_kdtree(clustered_points, domain, 2, EPSILON, variant="kd-true", rng=11)
        # Exact medians balance the children of the root almost perfectly.
        counts = [c._true_count for c in oracle.root(psd).children]
        assert max(counts) - min(counts) <= clustered_points.shape[0] * 0.02 + 4
        residuals = [n.noisy_count - n._true_count for n in oracle.nodes(psd)]
        assert any(abs(r) > 1e-9 for r in residuals)

    def test_kd_standard_median_budget_split(self, domain, clustered_points):
        psd = build_private_kdtree(clustered_points, domain, HEIGHT, EPSILON, variant="kd-standard", rng=12)
        kinds = psd.accountant.per_kind
        assert kinds["count"] == pytest.approx(0.7 * EPSILON)
        assert kinds["median"] == pytest.approx(0.3 * EPSILON)

    def test_kd_cell_charges_structure_budget(self, domain, clustered_points):
        psd = build_private_kdtree(clustered_points, domain, HEIGHT, EPSILON, variant="kd-cell",
                                   cell_resolution=64, rng=13)
        kinds = psd.accountant.per_kind
        assert kinds["structure"] == pytest.approx(0.3 * EPSILON)
        assert kinds["count"] == pytest.approx(0.7 * EPSILON)

    def test_hybrid_switch_level_controls_data_dependence(self, domain, clustered_points):
        psd = build_private_kdtree(clustered_points, domain, HEIGHT, EPSILON, variant="kd-hybrid",
                                   switch_level=1, rng=14)
        # Only the root level is data dependent: its grandchildren (from the
        # quad stage of the flattened split) have equal areas below the switch.
        level_below = [n for n in oracle.nodes(psd) if n.level == HEIGHT - 2]
        areas = {round(n.rect.area, 12) for n in level_below if n.rect.area > 0}
        # Quad splits of equal parents produce only a handful of distinct areas.
        assert len(areas) <= len(level_below)

    def test_prune_threshold_applied(self, domain, clustered_points):
        full = build_private_kdtree(clustered_points, domain, HEIGHT, EPSILON, variant="kd-standard",
                                    prune_threshold=None, rng=15)
        pruned = build_private_kdtree(clustered_points, domain, HEIGHT, EPSILON, variant="kd-standard",
                                      prune_threshold=200.0, rng=15)
        assert pruned.node_count() < full.node_count()

    def test_unknown_variant_raises(self, domain, clustered_points):
        with pytest.raises(KeyError):
            build_private_kdtree(clustered_points, domain, HEIGHT, EPSILON, variant="kd-unknown")

    def test_cell_budget_fraction_validation(self, domain, clustered_points):
        with pytest.raises(ValueError):
            build_private_kdtree(clustered_points, domain, HEIGHT, EPSILON, variant="kd-cell",
                                 cell_budget_fraction=1.5)

    def test_query_accuracy_reasonable(self, domain, clustered_points):
        psd = build_private_kdtree(clustered_points, domain, HEIGHT, 2.0, variant="kd-hybrid", rng=16)
        query = Rect((0.1, 0.1), (0.8, 0.8))
        truth = query.count_points(clustered_points, closed_hi=True)
        assert psd.range_query(query) == pytest.approx(truth, rel=0.25, abs=40)


# ----------------------------------------------------------------------
# Hilbert R-tree
# ----------------------------------------------------------------------
class TestPrivateHilbertRTree:
    @pytest.fixture(scope="class")
    def tree(self, domain, clustered_points):
        return build_private_hilbert_rtree(clustered_points, domain, height=8, epsilon=EPSILON,
                                           order=8, rng=17)

    def test_binary_structure_over_hilbert_domain(self, tree, domain):
        assert tree.fanout == 2
        assert tree.is_complete()
        assert tree.domain.dims == 1
        assert tree.planar_domain is domain and tree.curve.domain == domain.rect

    def test_budget_respected(self, tree):
        assert tree.accountant.path_epsilon == pytest.approx(EPSILON)

    def test_bboxes_inside_domain(self, tree, domain):
        engine = tree.compile()
        assert engine.dims == 2
        for lo, hi in zip(engine.lo, engine.hi):
            assert domain.rect.contains_rect(Rect(tuple(lo), tuple(hi)))

    def test_query_accuracy_reasonable(self, tree, clustered_points, domain):
        query = Rect((0.1, 0.1), (0.9, 0.9))
        truth = query.count_points(clustered_points, closed_hi=True)
        assert tree.range_query(query) == pytest.approx(truth, rel=0.25, abs=60)

    def test_full_domain_query(self, tree, clustered_points, domain):
        assert tree.range_query(domain.rect) == pytest.approx(clustered_points.shape[0], rel=0.1)

    def test_interval_query_path_agrees_roughly(self, tree, clustered_points):
        query = Rect((0.2, 0.3), (0.7, 0.8))
        bbox_answer = tree.range_query(query)
        interval_answer = oracle.range_query_intervals(tree, query, max_ranges=4096)
        truth = query.count_points(clustered_points, closed_hi=True)
        assert abs(bbox_answer - truth) < 0.5 * truth + 80
        assert abs(interval_answer - truth) < 0.5 * truth + 80

    def test_postprocess_and_prune_chain(self, domain, clustered_points):
        tree = build_private_hilbert_rtree(clustered_points, domain, height=6, epsilon=EPSILON,
                                           order=8, postprocess=False, rng=18)
        assert all(n.post_count is None for n in oracle.nodes(tree))
        tree.postprocess().prune(50.0)
        assert any(n.post_count is not None for n in oracle.nodes(tree))
        assert tree.curve is not None and tree.compile().dims == 2

    def test_rejects_non_2d_domain(self, clustered_points):
        with pytest.raises(ValueError):
            build_private_hilbert_rtree(clustered_points[:, :1], Domain.unit(1), height=4, epsilon=1.0)

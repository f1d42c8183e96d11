"""Tests for canonical range-query processing (Section 4.1) and pruning (Section 7)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from repro.analysis import quadtree_touched_bound
from repro.core import build_psd, nodes_touched, nodes_touched_per_level, query_variance, range_query
from repro.core.builder import BudgetSplit
from repro.core.pruning import count_pruned_nodes, prune_low_count_subtrees
from repro.core.quadtree import build_private_quadtree
from repro.core.splits import KDSplit, QuadSplit
from repro.data import uniform_points
from repro.geometry import Domain, Rect
from repro.privacy import laplace_variance


@pytest.fixture(scope="module")
def domain():
    return Domain.unit(2)


@pytest.fixture(scope="module")
def points(domain):
    return uniform_points(4_000, domain, rng=np.random.default_rng(8))


@pytest.fixture(scope="module")
def noiseless_psd(domain, points):
    """A quadtree with exact counts so query answers can be checked against brute force."""
    return build_psd(points, domain, 4, QuadSplit(), epsilon=1.0, noiseless_counts=True, rng=1)


def brute_force(points, query):
    return float(query.count_points(points, closed_hi=True))


_PROPERTY_CACHE = {}


def _property_tree():
    """A shared noiseless quadtree for the hypothesis property test."""
    if "tree" not in _PROPERTY_CACHE:
        domain = Domain.unit(2)
        pts = uniform_points(3_000, domain, rng=np.random.default_rng(21))
        psd = build_psd(pts, domain, 4, QuadSplit(), epsilon=1.0, noiseless_counts=True, rng=22)
        _PROPERTY_CACHE["tree"] = (psd, pts)
    return _PROPERTY_CACHE["tree"]


class TestCanonicalDecomposition:
    def test_full_domain_query_returns_total(self, noiseless_psd, points):
        assert range_query(noiseless_psd, noiseless_psd.domain.rect) == pytest.approx(points.shape[0])

    def test_aligned_query_exact(self, noiseless_psd, points):
        query = Rect((0.25, 0.5), (0.75, 1.0))
        assert range_query(noiseless_psd, query) == pytest.approx(brute_force(points, query), abs=6)

    def test_unaligned_query_close_under_uniformity(self, noiseless_psd, points):
        query = Rect((0.13, 0.27), (0.81, 0.64))
        estimate = range_query(noiseless_psd, query)
        assert estimate == pytest.approx(brute_force(points, query), rel=0.1)

    def test_disjoint_query_zero(self, noiseless_psd):
        assert range_query(noiseless_psd, Rect((2.0, 2.0), (3.0, 3.0))) == 0.0

    def test_without_uniformity_underestimates(self, noiseless_psd, points):
        query = Rect((0.13, 0.27), (0.81, 0.64))
        no_uniform = range_query(noiseless_psd, query, use_uniformity=False)
        with_uniform = range_query(noiseless_psd, query)
        assert no_uniform <= with_uniform

    def test_aligned_query_uses_few_nodes(self, noiseless_psd):
        # The top-left quadrant is a single node of the decomposition.
        assert nodes_touched(noiseless_psd, Rect((0.0, 0.0), (0.5, 0.5))) == 1

    def test_nodes_touched_within_lemma2_bound(self, noiseless_psd, rng):
        for _ in range(30):
            lo = rng.random(2) * 0.6
            hi = lo + rng.random(2) * 0.39 + 0.005
            query = Rect(tuple(lo), tuple(hi))
            assert nodes_touched(noiseless_psd, query) <= quadtree_touched_bound(noiseless_psd.height)

    def test_per_level_counts_sum_to_total(self, noiseless_psd):
        query = Rect((0.1, 0.1), (0.9, 0.7))
        per_level = nodes_touched_per_level(noiseless_psd, query)
        assert sum(per_level.values()) == nodes_touched(noiseless_psd, query)

    def test_query_variance_formula(self, domain, points):
        psd = build_psd(points, domain, 3, QuadSplit(), epsilon=1.0, count_budget="uniform", rng=2)
        query = Rect((0.0, 0.0), (0.5, 0.5))  # exactly one level-2 node
        expected = laplace_variance(psd.count_epsilons[2])
        assert query_variance(psd, query) == pytest.approx(expected)

    def test_leaf_only_budget_descends_to_leaves(self, domain, points):
        psd = build_psd(points, domain, 3, QuadSplit(), epsilon=1.0, count_budget="leaf-only",
                        noiseless_counts=True, rng=3)
        # Internal nodes have no released counts, so even an aligned quadrant
        # query must be answered from the 4^2 leaf cells beneath it.
        query = Rect((0.0, 0.0), (0.5, 0.5))
        assert nodes_touched(psd, query) == 4**2
        assert range_query(psd, query) == pytest.approx(brute_force(points, query), abs=6)

    def test_private_answer_unbiased_over_draws(self, domain, points):
        from repro.core.builder import populate_noisy_counts

        psd = build_psd(points, domain, 3, QuadSplit(), epsilon=0.5, rng=4)
        query = Rect((0.2, 0.2), (0.8, 0.8))
        truth = brute_force(points, query)
        rng = np.random.default_rng(55)
        answers = []
        for _ in range(150):
            populate_noisy_counts(psd, rng=rng)
            answers.append(range_query(psd, query))
        assert np.mean(answers) == pytest.approx(truth, rel=0.05)

    @given(st.floats(0.0, 0.8), st.floats(0.0, 0.8), st.floats(0.05, 0.2), st.floats(0.05, 0.2))
    @settings(max_examples=40, deadline=None)
    def test_property_noiseless_answers_close_to_truth(self, x, y, w, h):
        psd, pts = _property_tree()
        query = Rect((x, y), (min(x + w, 1.0), min(y + h, 1.0)))
        if query.area <= 0:
            return
        estimate = range_query(psd, query)
        truth = brute_force(pts, query)
        # Uniformity-assumption error only; generous bound for small queries.
        assert abs(estimate - truth) <= max(25.0, 0.25 * truth)


class TestPruning:
    def test_prune_removes_low_count_subtrees(self, domain, points):
        psd = build_psd(points, domain, 4, QuadSplit(), epsilon=1.0, rng=5, postprocess=True)
        full_nodes = psd.node_count()
        # ~4000 points over 64 level-1 nodes gives ~62 points per node, so a
        # threshold of 70 cuts the level-1 subtrees but keeps level 2 and above.
        removed = prune_low_count_subtrees(psd, threshold=70.0)
        assert removed > 0
        assert psd.node_count() == full_nodes - removed
        assert count_pruned_nodes(psd) == removed

    def test_prune_keeps_dense_regions(self, domain):
        # All mass in one quadrant: that quadrant's subtree must survive.
        dense = uniform_points(2_000, Domain.from_bounds((0.0, 0.0), (0.5, 0.5)), rng=np.random.default_rng(1))
        psd = build_psd(dense, domain, 3, QuadSplit(), epsilon=5.0, rng=6, postprocess=True)
        prune_low_count_subtrees(psd, threshold=100.0)
        dense_child = next(c for c in oracle.root(psd).children if c.rect.contains_point((0.1, 0.1)))
        assert not dense_child.is_leaf
        sparse_child = next(c for c in oracle.root(psd).children if c.rect.contains_point((0.9, 0.9)))
        assert sparse_child.is_leaf

    def test_threshold_zero_keeps_everything_positive(self, domain, points):
        psd = build_psd(points, domain, 3, QuadSplit(), epsilon=1.0, rng=7, postprocess=True)
        prune_low_count_subtrees(psd, threshold=0.0)
        # Only subtrees under negative released counts can be removed at threshold 0.
        for node in oracle.nodes(psd):
            if not node.is_leaf:
                assert node.released_count >= 0.0

    def test_negative_threshold_rejected(self, domain, points):
        psd = build_psd(points, domain, 2, QuadSplit(), epsilon=1.0, rng=8)
        with pytest.raises(ValueError):
            prune_low_count_subtrees(psd, threshold=-1.0)

    def test_nan_threshold_rejected(self, domain, points):
        """Every comparison with nan is false, so a nan threshold would prune
        nothing, silently; it is refused on every route to the pruner."""
        psd = build_psd(points, domain, 2, QuadSplit(), epsilon=1.0, rng=8)
        nodes = psd.node_count()
        with pytest.raises(ValueError, match="non-negative"):
            prune_low_count_subtrees(psd, threshold=float("nan"))
        with pytest.raises(ValueError, match="non-negative"):
            psd.prune(float("nan"))
        assert psd.node_count() == nodes
        with pytest.raises(ValueError, match="non-negative"):
            build_private_quadtree(points, domain, 2, 1.0, prune_threshold=float("nan"), rng=8)

    def test_queries_still_work_after_pruning(self, domain, points):
        psd = build_psd(points, domain, 4, QuadSplit(), epsilon=1.0, rng=9, postprocess=True,
                        prune_threshold=30.0)
        query = Rect((0.1, 0.1), (0.6, 0.6))
        estimate = psd.range_query(query)
        assert estimate == pytest.approx(brute_force(points, query), rel=0.35)

    def test_prune_via_psd_method_chains(self, domain, points):
        psd = build_psd(points, domain, 3, QuadSplit(), epsilon=1.0, rng=10, postprocess=True)
        assert psd.prune(25.0) is psd


class TestTreeHelpers:
    def test_nodes_by_level_and_summary(self, noiseless_psd):
        by_level = oracle.pointer_view(noiseless_psd).nodes_by_level()
        assert len(by_level[noiseless_psd.height]) == 1
        assert len(by_level[0]) == 4**noiseless_psd.height
        summary = noiseless_psd.summary()
        assert summary["nodes"] == noiseless_psd.node_count()
        assert summary["height"] == noiseless_psd.height

    def test_level_epsilon_bounds(self, noiseless_psd):
        with pytest.raises(ValueError):
            noiseless_psd.level_epsilon(noiseless_psd.height + 1)

    def test_strip_private_fields(self, domain, points):
        psd = build_psd(points, domain, 2, QuadSplit(), epsilon=1.0, rng=11)
        psd.strip_private_fields()
        assert all(node._true_count == 0 for node in oracle.nodes(psd))

    def test_total_count_epsilon(self, domain, points):
        psd = build_psd(points, domain, 2, KDSplit(median_method="em"), epsilon=1.0,
                        budget_split=BudgetSplit(count_fraction=0.7), rng=12)
        assert psd.total_count_epsilon() == pytest.approx(0.7)

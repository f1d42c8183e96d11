"""Tests for the OLS post-processing (Section 5): correctness, consistency, optimality."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from repro.core import apply_ols, build_psd, check_consistency
from repro.core.builder import populate_noisy_counts
from repro.core.splits import QuadSplit
from repro.data import uniform_points
from repro.geometry import Domain


def build_quad_psd(n_points=400, height=3, epsilon=1.0, budget="geometric", seed=0, postprocess=False):
    domain = Domain.unit(2)
    points = uniform_points(n_points, domain, rng=np.random.default_rng(seed))
    return build_psd(points, domain, height, QuadSplit(), epsilon=epsilon,
                     count_budget=budget, rng=seed + 1, postprocess=postprocess)


def brute_force_ols(psd):
    """Solve the weighted least-squares problem directly (reference implementation).

    Returns the estimates in the pre-order of ``oracle.nodes(psd)``.
    """
    nodes = oracle.nodes(psd)
    leaves = [n for n in nodes if n.is_leaf]
    leaf_index = {id(n): i for i, n in enumerate(leaves)}
    H = np.zeros((len(nodes), len(leaves)))
    weights = np.zeros(len(nodes))
    y = np.zeros(len(nodes))
    for row, node in enumerate(nodes):
        eps = psd.count_epsilons[node.level]
        weights[row] = eps
        y[row] = node.noisy_count if np.isfinite(node.noisy_count) else 0.0
        for descendant in node.iter_subtree():
            if descendant.is_leaf:
                H[row, leaf_index[id(descendant)]] = 1.0
    A = np.diag(weights) @ H
    b = np.diag(weights) @ y
    leaf_beta, *_ = np.linalg.lstsq(A, b, rcond=None)
    return [float(H[r] @ leaf_beta) for r in range(len(nodes))]


class TestAgainstBruteForce:
    @pytest.mark.parametrize("budget", ["uniform", "geometric", "leaf-only"])
    def test_matches_weighted_least_squares(self, budget):
        psd = build_quad_psd(height=3, budget=budget, seed=3)
        expected = brute_force_ols(psd)
        apply_ols(psd)
        for node, want in zip(oracle.nodes(psd), expected):
            assert node.post_count == pytest.approx(want, abs=1e-6)

    def test_matches_on_binary_tree(self):
        from repro.core.hilbert_rtree import BinaryMedianSplit

        domain = Domain.from_bounds((0.0,), (1.0,))
        points = np.random.default_rng(0).random((300, 1))
        psd = build_psd(points, domain, 4, BinaryMedianSplit(median_method="true"),
                        epsilon=1.0, count_budget="geometric", rng=1)
        expected = brute_force_ols(psd)
        apply_ols(psd)
        for node, want in zip(oracle.nodes(psd), expected):
            assert node.post_count == pytest.approx(want, abs=1e-6)

    @given(st.integers(1, 4), st.sampled_from(["uniform", "geometric"]), st.integers(0, 100))
    @settings(max_examples=12, deadline=None)
    def test_property_small_random_trees(self, height, budget, seed):
        psd = build_quad_psd(n_points=120, height=height, budget=budget, seed=seed)
        expected = brute_force_ols(psd)
        apply_ols(psd)
        worst = max(abs(node.post_count - want) for node, want in zip(oracle.nodes(psd), expected))
        assert worst < 1e-6


class TestEstimatorProperties:
    def test_consistency(self):
        psd = build_quad_psd(height=4, seed=7)
        apply_ols(psd)
        assert check_consistency(psd) < 1e-6

    def test_post_counts_populated_for_every_node(self):
        psd = build_quad_psd(height=3)
        apply_ols(psd)
        assert all(node.post_count is not None for node in oracle.nodes(psd))

    def test_postprocessing_is_pure_released_data_transformation(self):
        """The OLS never looks at the true counts: zeroing them changes nothing."""
        psd_a = build_quad_psd(height=3, seed=11)
        psd_b = build_quad_psd(height=3, seed=11)
        psd_b.strip_private_fields()
        apply_ols(psd_a)
        apply_ols(psd_b)
        for a, b in zip(oracle.nodes(psd_a), oracle.nodes(psd_b)):
            assert a.post_count == pytest.approx(b.post_count)

    def test_variance_reduction_on_root(self):
        """Averaged over many noise draws, the OLS root count beats the raw noisy root count."""
        domain = Domain.unit(2)
        points = uniform_points(500, domain, rng=np.random.default_rng(2))
        psd = build_psd(points, domain, 3, QuadSplit(), epsilon=0.4, count_budget="uniform", rng=5)
        true_root = oracle.root(psd)._true_count
        raw_errors, post_errors = [], []
        rng = np.random.default_rng(99)
        for _ in range(80):
            populate_noisy_counts(psd, rng=rng)
            raw_errors.append((oracle.root(psd).noisy_count - true_root) ** 2)
            apply_ols(psd)
            post_errors.append((oracle.root(psd).post_count - true_root) ** 2)
        assert np.mean(post_errors) < np.mean(raw_errors)

    def test_unbiasedness_of_root_estimate(self):
        domain = Domain.unit(2)
        points = uniform_points(300, domain, rng=np.random.default_rng(4))
        psd = build_psd(points, domain, 2, QuadSplit(), epsilon=1.0, count_budget="geometric", rng=6)
        true_root = oracle.root(psd)._true_count
        rng = np.random.default_rng(77)
        estimates = []
        for _ in range(300):
            populate_noisy_counts(psd, rng=rng)
            apply_ols(psd)
            estimates.append(oracle.root(psd).post_count)
        assert np.mean(estimates) == pytest.approx(true_root, abs=0.15 * true_root ** 0.5 + 3)

    def test_leaf_only_budget_internal_nodes_become_leaf_sums(self):
        psd = build_quad_psd(height=2, budget="leaf-only", seed=13)
        apply_ols(psd)
        for node in oracle.nodes(psd):
            if not node.is_leaf:
                child_sum = sum(c.post_count for c in node.children)
                assert node.post_count == pytest.approx(child_sum, abs=1e-9)
        # With no internal information, the leaf estimates equal the leaf noisy counts.
        for leaf in oracle.leaves(psd):
            assert leaf.post_count == pytest.approx(leaf.noisy_count, abs=1e-9)

    def test_ols_estimate_tree_does_not_mutate(self):
        psd = oracle.pointer_view(build_quad_psd(height=2))
        before = [n.post_count for n in psd.nodes()]
        estimates = oracle.ols_estimate_tree(psd)
        after = [n.post_count for n in psd.nodes()]
        assert before == after
        assert len(estimates) == psd.node_count()


class TestValidation:
    def test_requires_complete_tree(self):
        psd = build_quad_psd(height=2)
        psd.prune(1e9)  # truncate the tree below the root
        with pytest.raises(ValueError, match="complete"):
            apply_ols(psd)

    def test_requires_positive_leaf_budget(self):
        from repro.core.budget import CustomBudget

        domain = Domain.unit(2)
        points = uniform_points(100, domain, rng=np.random.default_rng(1))
        psd = build_psd(points, domain, 2, QuadSplit(), epsilon=1.0,
                        count_budget=CustomBudget(weights=(0.0, 1.0, 1.0)), rng=2)
        with pytest.raises(ValueError, match="leaf budget"):
            apply_ols(psd)

    def test_check_consistency_requires_postprocessing(self):
        psd = build_quad_psd(height=2)
        with pytest.raises(ValueError):
            check_consistency(psd)

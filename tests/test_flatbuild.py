"""Tests for the flat-native build pipeline (structure-of-arrays construction).

The contract under test: ``build_psd`` and the pointer builder of the test
oracle (``oracle.build_psd``) are **bit-for-bit interchangeable** for the
same seeded generator — identical structure, released counts, OLS estimates,
pruning decisions, recursive query answers, and accountant charges.  Plus the
regression for the stale-engine bug in ``populate_noisy_counts`` and the OLS
property suite (vectorized == recursive == brute force).
"""

from __future__ import annotations

import numpy as np
import pytest

import oracle
from repro.core import build_psd, populate_noisy_counts
from repro.core.budget import LevelSkippingBudget
from repro.core.flatbuild import FlatTree, ols_beta
from repro.core.hilbert_rtree import BinaryMedianSplit, build_private_hilbert_rtree
from repro.core.kdtree import build_private_kdtree
from repro.core.postprocess import check_consistency
from repro.core.splits import HybridSplit, KDSplit, QuadSplit
from repro.data import uniform_points
from repro.engine.flat import COMPILED_ENGINE_KEY, compile_psd
from repro.geometry import Domain, Rect

DOMAIN = Domain.unit(2)
POINTS = uniform_points(1_500, DOMAIN, rng=np.random.default_rng(7))

#: (label, split-rule factory, sensible max height) for the parity sweeps.
RULES = [
    ("quad", lambda: QuadSplit(), 4),
    ("kd-em", lambda: KDSplit(median_method="em"), 3),
    ("kd-hybrid", lambda: HybridSplit(kd_levels=2, median_method="em"), 4),
]

BUDGETS = ["uniform", "geometric", LevelSkippingBudget(stride=2)]


def build_pair(rule, height, budget, seed=11, **kwargs):
    """The same build by the oracle and by production, identically seeded."""
    pointer = oracle.build_psd(POINTS, DOMAIN, height, rule, epsilon=1.0, count_budget=budget,
                               rng=seed, **kwargs)
    flat = build_psd(POINTS, DOMAIN, height, rule, epsilon=1.0, count_budget=budget,
                     rng=seed, **kwargs)
    return pointer, flat


def bfs_nodes(psd):
    order = [psd.root]
    i = 0
    while i < len(order):
        order.extend(order[i].children)
        i += 1
    return order


def assert_same_tree(pointer_psd, flat_psd):
    """Bitwise structural and count equality, checked on the raw flat arrays."""
    tree = flat_psd.flat_tree
    assert isinstance(tree, FlatTree)
    order = bfs_nodes(pointer_psd)
    assert len(order) == tree.n_nodes
    assert np.array_equal(np.array([n.rect.lo for n in order]), tree.lo)
    assert np.array_equal(np.array([n.rect.hi for n in order]), tree.hi)
    assert np.array_equal(np.array([n.level for n in order]), tree.level)
    assert np.array_equal(np.array([n._true_count for n in order]), tree.true_count)
    assert np.array_equal(np.array([n.noisy_count for n in order]),
                          tree.noisy_count, equal_nan=True)
    posts = [n.post_count for n in order]
    if tree.post_count is None:
        assert all(p is None for p in posts)
    else:
        assert np.array_equal(np.array(posts, dtype=float), tree.post_count)
    leaf_flags = np.array([n.is_leaf for n in order])
    assert np.array_equal(leaf_flags, tree.is_leaf)


class TestLayoutParity:
    @pytest.mark.parametrize("label,make_rule,height", RULES)
    @pytest.mark.parametrize("budget", BUDGETS, ids=["uniform", "geometric", "level-skip"])
    def test_structure_counts_and_ols_bitwise(self, label, make_rule, height, budget):
        pointer_psd, flat_psd = build_pair(make_rule(), height, budget, postprocess=True)
        assert_same_tree(pointer_psd, flat_psd)

    @pytest.mark.parametrize("height", [0, 1, 3])
    def test_heights_including_degenerate(self, height):
        pointer_psd, flat_psd = build_pair(QuadSplit(), height, "geometric", postprocess=False)
        assert_same_tree(pointer_psd, flat_psd)

    @pytest.mark.parametrize("label,make_rule,height", RULES)
    def test_query_answers_match(self, label, make_rule, height):
        pointer_psd, flat_psd = build_pair(make_rule(), height, "geometric", postprocess=True)
        rng = np.random.default_rng(5)
        for _ in range(25):
            lo = rng.uniform(0.0, 0.6, 2)
            q = Rect(tuple(lo), tuple(lo + rng.uniform(0.05, 0.4, 2)))
            reference = pointer_psd.range_query(q)
            # Recursive walk over the materialised view of the flat build: bitwise.
            assert oracle.range_query(flat_psd, q) == reference
            # Compiled engine: n(Q) exact, estimate/Err within the engine's
            # established float-summation tolerance.
            assert flat_psd.nodes_touched(q) == pointer_psd.nodes_touched(q)
            assert flat_psd.range_query(q) == pytest.approx(reference, rel=1e-9, abs=1e-9)
            assert flat_psd.query_variance(q) == pytest.approx(
                pointer_psd.query_variance(q), rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("label,make_rule,height", RULES)
    def test_pruning_matches(self, label, make_rule, height):
        pointer_psd, flat_psd = build_pair(make_rule(), height, "geometric",
                                           postprocess=True, prune_threshold=40.0)
        assert isinstance(flat_psd.flat_tree, FlatTree)
        assert flat_psd.node_count() == pointer_psd.node_count()
        assert flat_psd.leaf_count() == len(pointer_psd.leaves())
        assert_same_tree(pointer_psd, flat_psd)

    def test_prune_removed_counts_equal(self):
        from repro.core.pruning import prune_low_count_subtrees

        pointer_psd, flat_psd = build_pair(QuadSplit(), 4, "geometric", postprocess=True)
        removed_pointer = oracle.prune_low_count_subtrees(pointer_psd, 30.0)
        removed_flat = prune_low_count_subtrees(flat_psd, 30.0)
        assert removed_pointer == removed_flat > 0
        assert pointer_psd.node_count() == flat_psd.node_count()
        assert_same_tree(pointer_psd, flat_psd)

    def test_accountant_charges_match(self):
        pointer_psd, flat_psd = build_pair(KDSplit(), 3, "geometric")
        a, b = pointer_psd.accountant, flat_psd.accountant
        assert a.path_epsilon == b.path_epsilon
        assert a.per_kind == b.per_kind

    def test_hilbert_rtree_parity(self):
        kwargs = dict(height=6, epsilon=1.0, order=10, postprocess=True)
        pointer_tree = oracle.build_private_hilbert_rtree(POINTS, DOMAIN, rng=3, **kwargs)
        flat_tree = build_private_hilbert_rtree(POINTS, DOMAIN, rng=3, **kwargs)
        assert isinstance(flat_tree.flat_tree, FlatTree)
        assert_same_tree(pointer_tree, flat_tree)
        q = Rect((0.2, 0.1), (0.7, 0.8))
        reference = oracle.hilbert_range_query(pointer_tree, q)
        assert oracle.hilbert_range_query(flat_tree, q) == reference
        assert flat_tree.range_query(q) == pytest.approx(reference, rel=1e-9, abs=1e-9)

    def test_cell_kdtree_parity(self):
        kwargs = dict(height=3, epsilon=1.0, variant="kd-cell", cell_resolution=32)
        pointer_psd = oracle.build_private_kdtree(POINTS, DOMAIN, rng=9, **kwargs)
        flat_psd = build_private_kdtree(POINTS, DOMAIN, rng=9, **kwargs)
        assert_same_tree(pointer_psd, flat_psd)

    def test_noiseless_counts_parity(self):
        pointer_psd, flat_psd = build_pair(KDSplit(median_method="true"), 3, "geometric",
                                           noiseless_counts=True)
        assert_same_tree(pointer_psd, flat_psd)
        tree = flat_psd.flat_tree
        assert np.array_equal(tree.noisy_count, tree.true_count.astype(float))


class TestFlatNativeFacade:
    def test_build_stays_flat_through_whole_pipeline(self):
        psd = build_psd(POINTS, DOMAIN, 4, QuadSplit(), epsilon=1.0,
                        postprocess=True, prune_threshold=20.0)
        assert isinstance(psd.flat_tree, FlatTree)
        # Batch serving straight from the arrays keeps it flat too.
        engine = psd.compile()
        assert engine.validate() is engine
        assert isinstance(psd.flat_tree, FlatTree)

    def test_strip_private_fields_stays_flat(self):
        psd = build_psd(POINTS, DOMAIN, 3, QuadSplit(), epsilon=1.0)
        psd.strip_private_fields()
        assert isinstance(psd.flat_tree, FlatTree)
        assert not psd.flat_tree.true_count.any()
        assert all(n._true_count == 0 for n in oracle.nodes(psd))

    def test_compiled_engines_identical_across_layouts(self):
        pointer_psd, flat_psd = build_pair(QuadSplit(), 3, "geometric", postprocess=True)
        a = oracle.compile_psd(pointer_psd)
        b = compile_psd(flat_psd)
        for name in ("lo", "hi", "level", "released", "has_count", "is_leaf",
                     "child_start", "child_end", "area", "count_epsilons", "level_variance"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        b.validate()


class TestStaleEngineRegression:
    """``populate_noisy_counts`` re-randomizes the released counts, so any
    memoised flat engine must be dropped — previously it kept serving the old
    counts."""

    def test_flat_backend_sees_fresh_counts(self):
        psd = build_psd(POINTS, DOMAIN, 3, QuadSplit(), epsilon=1.0, rng=0)
        q = Rect((0.1, 0.1), (0.9, 0.9))
        before = psd.range_query(q)
        assert COMPILED_ENGINE_KEY in psd.compiled_engines
        populate_noisy_counts(psd, rng=12345)
        assert COMPILED_ENGINE_KEY not in psd.compiled_engines
        after = psd.range_query(q)
        assert after != before
        # and the re-compiled engine agrees with the recursive reference
        assert after == pytest.approx(oracle.range_query(psd, q), rel=1e-9, abs=1e-9)


def brute_force_ols(psd):
    """Direct weighted-least-squares solve (the slow definitional reference)."""
    nodes = list(psd.nodes())
    leaves = [n for n in nodes if n.is_leaf]
    leaf_index = {id(n): i for i, n in enumerate(leaves)}
    H = np.zeros((len(nodes), len(leaves)))
    weights = np.zeros(len(nodes))
    y = np.zeros(len(nodes))
    for row, node in enumerate(nodes):
        weights[row] = psd.count_epsilons[node.level]
        y[row] = node.noisy_count if np.isfinite(node.noisy_count) else 0.0
        for descendant in node.iter_subtree():
            if descendant.is_leaf:
                H[row, leaf_index[id(descendant)]] = 1.0
    A = np.diag(weights) @ H
    b = np.diag(weights) @ y
    leaf_beta, *_ = np.linalg.lstsq(A, b, rcond=None)
    return {id(n): float(H[r] @ leaf_beta) for r, n in enumerate(nodes)}


HILBERT_DOMAIN = Domain.from_bounds((0.0,), (1.0,), name="hilbert-index")

OLS_VARIANTS = [
    ("quad", lambda h, seed, budget: oracle.build_psd(
        POINTS, DOMAIN, h, QuadSplit(), epsilon=1.0,
        count_budget=budget, rng=seed)),
    ("kd", lambda h, seed, budget: oracle.build_psd(
        POINTS, DOMAIN, h, KDSplit(median_method="em"), epsilon=1.0,
        count_budget=budget, rng=seed)),
    ("hilbert", lambda h, seed, budget: oracle.build_psd(
        POINTS[:, :1], HILBERT_DOMAIN, h, BinaryMedianSplit(median_method="em"),
        epsilon=1.0, count_budget=budget, rng=seed)),
]


class TestOLSProperty:
    """Vectorized OLS == recursive OLS == brute-force WLS, heights 0-6."""

    @pytest.mark.parametrize("label,build", OLS_VARIANTS)
    @pytest.mark.parametrize("budget", BUDGETS, ids=["uniform", "geometric", "level-skip"])
    @pytest.mark.parametrize("height", [0, 1, 2, 3, 6])
    def test_vectorized_equals_recursive(self, label, build, budget, height):
        if label != "hilbert" and height == 6:
            height = 4  # keep the fanout-4 reference builds quick; 6 covered below
        psd = build(height, 21, budget)
        # vectorized, non-mutating
        vectorized = oracle.ols_estimate_tree(psd)
        assert all(n.post_count is None for n in psd.nodes())
        # recursive reference, in place
        oracle.apply_ols(psd)
        for node in psd.nodes():
            assert vectorized[id(node)] == node.post_count  # bitwise
        assert oracle.check_consistency(psd) < 1e-6

    @pytest.mark.parametrize("label,build", OLS_VARIANTS)
    @pytest.mark.parametrize("height", [1, 2, 3])
    def test_matches_brute_force(self, label, build, height):
        psd = build(height, 31, "geometric")
        expected = brute_force_ols(psd)
        estimates = oracle.ols_estimate_tree(psd)
        worst = max(abs(estimates[id(n)] - expected[id(n)]) for n in psd.nodes())
        assert worst < 1e-6

    def test_flat_quad_height6_consistency(self):
        psd = build_psd(POINTS, DOMAIN, 6, QuadSplit(), epsilon=1.0,
                        count_budget="geometric", rng=4, postprocess=True)
        assert isinstance(psd.flat_tree, FlatTree)
        tree = psd.flat_tree
        # consistency directly on the arrays: parent post == sum of children
        internal = ~tree.is_leaf
        sums = np.add.reduceat(tree.post_count, tree.child_start[internal])
        assert np.max(np.abs(tree.post_count[internal] - sums)) < 1e-6
        assert check_consistency(psd) < 1e-6
        assert oracle.check_consistency(oracle.pointer_view(psd)) < 1e-6  # and via the materialised view

    def test_level_skipping_budget_flat_vs_pointer(self):
        budget = LevelSkippingBudget(stride=2)
        pointer_psd, flat_psd = build_pair(QuadSplit(), 4, budget, postprocess=True)
        assert_same_tree(pointer_psd, flat_psd)

    def test_ols_beta_rejects_zero_leaf_budget(self):
        psd = oracle.build_psd(POINTS, DOMAIN, 2, QuadSplit(), epsilon=1.0)
        _, arrays = oracle.flatten_tree(psd)
        with pytest.raises(ValueError, match="leaf budget"):
            ols_beta(arrays.level, arrays.parent, arrays.noisy_count,
                     (0.0, 0.5, 0.5), psd.fanout, psd.height)

    def test_ols_estimate_tree_requires_complete(self):
        psd = build_psd(POINTS, DOMAIN, 2, QuadSplit(), epsilon=1.0, prune_threshold=1e9)
        with pytest.raises(ValueError, match="complete"):
            oracle.ols_estimate_tree(oracle.pointer_view(psd))


class TestFlatTreeInternals:
    def test_level_slices_cover_array(self):
        psd = build_psd(POINTS, DOMAIN, 3, QuadSplit(), epsilon=1.0)
        tree = psd.flat_tree
        total = 0
        for level in range(tree.height, -1, -1):
            sl = tree.level_slice(level)
            assert sl.start == total
            total = sl.stop
            assert np.all(tree.level[sl] == level)
        assert total == tree.n_nodes

    def test_flatten_round_trips_through_materialise(self):
        psd = build_psd(POINTS, DOMAIN, 3, KDSplit(), epsilon=1.0, rng=2, postprocess=True)
        tree_before = psd.flat_tree
        snapshot = {
            "lo": tree_before.lo.copy(), "noisy": tree_before.noisy_count.copy(),
            "post": tree_before.post_count.copy(), "true": tree_before.true_count.copy(),
        }
        _, tree_after = oracle.flatten_tree(oracle.pointer_view(psd))
        assert np.array_equal(tree_after.lo, snapshot["lo"])
        assert np.array_equal(tree_after.noisy_count, snapshot["noisy"])
        assert np.array_equal(tree_after.post_count, snapshot["post"])
        assert np.array_equal(tree_after.true_count, snapshot["true"])
        assert isinstance(tree_after, FlatTree)

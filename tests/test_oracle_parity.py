"""Production PSDs against the test oracle, across the paper's variants.

The oracle (``tests/oracle``) keeps the per-node pointer pipeline and the
recursive query walk that the BFS arrays replaced.  For one seed the two must
release the same tree bit for bit — geometry, levels, true / noisy / post
counts and the generator's final state — for every quadtree and kd-tree
variant and the Hilbert R-tree, with and without OLS and pruning; and the
compiled engine must answer like the recursive walk: ``n(Q)`` and ``n_i``
identical, estimates and ``Err(Q)`` within 1e-9.  Every point lands in exactly
one node per level, including points on the domain's top face where a split
lands on them.
"""

from __future__ import annotations

import numpy as np
import pytest

import oracle
from repro.core import (
    KDTREE_VARIANTS,
    QUADTREE_VARIANTS,
    HybridSplit,
    KDSplit,
    QuadSplit,
    build_private_hilbert_rtree,
    build_private_kdtree,
    build_private_quadtree,
    build_psd,
    nodes_touched_per_level,
)
from repro.core.budget import LevelSkippingBudget
from repro.data import gaussian_cluster_points, road_intersections
from repro.engine import batch_query, compile_psd
from repro.geometry import TIGER_DOMAIN, Domain
from repro.privacy import MEDIAN_METHODS
from repro.queries import random_query_rects

DOMAIN = Domain.unit(2)
POINTS = gaussian_cluster_points(600, DOMAIN, n_clusters=3, spread=0.1,
                                 rng=np.random.default_rng(13))
VARIANTS = sorted(QUADTREE_VARIANTS) + sorted(KDTREE_VARIANTS) + ["hilbert-r"]


def build(lib, variant, height, seed, **kwargs):
    """``lib`` is ``oracle`` (pointer builds) or ``None`` (production builds)."""
    quadtree, kdtree, hilbert = (
        (oracle.build_private_quadtree, oracle.build_private_kdtree,
         oracle.build_private_hilbert_rtree) if lib is oracle
        else (build_private_quadtree, build_private_kdtree, build_private_hilbert_rtree))
    if variant in QUADTREE_VARIANTS:
        return quadtree(POINTS, DOMAIN, height, 1.0, variant=variant, rng=seed, **kwargs)
    if variant == "hilbert-r":
        return hilbert(POINTS, DOMAIN, 2 * height, 1.0, order=10, rng=seed, **kwargs)
    if variant == "kd-cell":
        kwargs["cell_resolution"] = 32
    return kdtree(POINTS, DOMAIN, height, 1.0, variant=variant, rng=seed, **kwargs)


def build_both(variant, height, **kwargs):
    gen_pointer, gen_flat = np.random.default_rng(5), np.random.default_rng(5)
    pointer = build(oracle, variant, height, gen_pointer, **kwargs)
    flat = build(None, variant, height, gen_flat, **kwargs)
    assert gen_pointer.bit_generator.state == gen_flat.bit_generator.state
    return pointer, flat


def assert_same_release(pointer_psd, flat_psd):
    _, expected = oracle.flatten_tree(pointer_psd)
    got = flat_psd.flat_tree
    for name in ("lo", "hi", "level", "parent", "child_start", "child_end", "true_count"):
        assert np.array_equal(getattr(expected, name), getattr(got, name)), name
    assert np.array_equal(expected.noisy_count, got.noisy_count, equal_nan=True)
    if expected.post_count is None:
        assert got.post_count is None
    else:
        assert got.post_count.tobytes() == expected.post_count.tobytes()
    assert pointer_psd.count_epsilons == flat_psd.count_epsilons


@pytest.mark.parametrize("prune", [None, 30.0], ids=["unpruned", "pruned"])
@pytest.mark.parametrize("height", [0, 1, 3])
@pytest.mark.parametrize("variant", VARIANTS)
def test_builds_are_bitwise_equal(variant, height, prune):
    pointer, flat = build_both(variant, height, prune_threshold=prune)
    assert_same_release(pointer, flat)


@pytest.mark.parametrize("postprocess", [False, True], ids=["raw", "ols"])
@pytest.mark.parametrize("budget", ["uniform", "geometric", "leaf-only", LevelSkippingBudget(stride=2)],
                         ids=["uniform", "geometric", "leaf-only", "level-skip"])
@pytest.mark.parametrize("variant", ["kd-standard", "hilbert-r"])
def test_budgets_are_bitwise_equal(variant, budget, postprocess):
    pointer, flat = build_both(variant, 3, count_budget=budget, postprocess=postprocess)
    assert_same_release(pointer, flat)


@pytest.mark.parametrize("variant", ["quad-opt", "kd-hybrid", "hilbert-r"])
def test_height_six(variant):
    pointer, flat = build_both(variant, 6 if variant == "hilbert-r" else 5)
    assert_same_release(pointer, flat)


@pytest.mark.parametrize("prune", [None, 30.0], ids=["unpruned", "pruned"])
@pytest.mark.parametrize("variant", ["quad-baseline", "quad-opt", "kd-standard", "kd-cell",
                                     "hilbert-r"])
def test_queries_match_the_recursive_walk(variant, prune):
    pointer, flat = build_both(variant, 3, prune_threshold=prune)
    queries = random_query_rects(DOMAIN, 40, rng=np.random.default_rng(17))
    result = batch_query(compile_psd(flat), queries)
    for i, query in enumerate(queries):
        assert int(result.nodes_touched[i]) == oracle.nodes_touched(pointer, query)
        assert result.estimates[i] == pytest.approx(oracle.range_query(pointer, query),
                                                    rel=1e-9, abs=1e-9)
        assert result.variances[i] == pytest.approx(oracle.query_variance(pointer, query),
                                                    rel=1e-9, abs=1e-9)
        assert nodes_touched_per_level(flat, query) == oracle.nodes_touched_per_level(pointer, query)


def test_hilbert_planar_queries_match_the_recursive_walk():
    pointer, flat = build_both("hilbert-r", 3, prune_threshold=30.0)
    view = oracle.hilbert_view(pointer)
    for query in random_query_rects(DOMAIN, 40, rng=np.random.default_rng(19)):
        assert flat.range_query(query) == pytest.approx(oracle.hilbert_range_query(view, query),
                                                        rel=1e-9, abs=1e-9)


# ----------------------------------------------------------------------
# Exclusive routing: each point in exactly one node per level
# ----------------------------------------------------------------------
#: 200 unit-square points, 150 of them exactly on the domain's top face
#: (y = 1.0), where medians clamped to a node's top land on them.
TOP_FACE = np.random.default_rng(0).uniform(0.0, 1.0, (200, 2))
TOP_FACE[:150, 1] = 1.0

ROUTING_RULES = (["quad"] + [f"kd-{method}" for method in sorted(MEDIAN_METHODS)]
                 + ["hybrid", "kd-cell", "hilbert-r"])


def build_routed(lib, rule, points, domain, height, gen):
    """One ε = 0.1 release by ``lib`` (``oracle`` or ``None`` for production)."""
    if rule == "kd-cell":
        kdtree = oracle.build_private_kdtree if lib is oracle else build_private_kdtree
        return kdtree(points, domain, height, 0.1, variant="kd-cell", cell_resolution=16, rng=gen)
    if rule == "hilbert-r":
        hilbert = oracle.build_private_hilbert_rtree if lib is oracle else build_private_hilbert_rtree
        return hilbert(points, domain, 2 * height, 0.1, order=10, rng=gen)
    if rule == "quad":
        split = QuadSplit()
    elif rule == "hybrid":
        split = HybridSplit(kd_levels=1, median_method="true")
    else:
        split = KDSplit(median_method=rule[len("kd-"):])
    return (oracle.build_psd if lib is oracle else build_psd)(
        points, domain, height, split, epsilon=0.1, rng=gen)


def assert_routed_once(rule, points, domain, height, seed):
    """Every level's true counts sum to n, and production equals the oracle
    bitwise, including the generator's final state."""
    gen_pointer, gen_flat = np.random.default_rng(seed), np.random.default_rng(seed)
    pointer = build_routed(oracle, rule, points, domain, height, gen_pointer)
    flat = build_routed(None, rule, points, domain, height, gen_flat)
    tree = flat.flat_tree
    for level in range(tree.height + 1):
        assert int(tree.true_count[tree.level_slice(level)].sum()) == points.shape[0], level
    assert gen_pointer.bit_generator.state == gen_flat.bit_generator.state
    assert_same_release(pointer, flat)


@pytest.mark.parametrize("height", [1, 2, 3])
@pytest.mark.parametrize("rule", ROUTING_RULES)
def test_top_face_points_land_in_one_node_per_level(rule, height):
    assert_routed_once(rule, TOP_FACE, DOMAIN, height, seed=7)


@pytest.mark.slow
def test_road_points_on_the_top_face_count_once():
    """The sweep-kd points (29 of them on the top face), kd-noisymean at h = 6."""
    points = road_intersections(60_000, rng=np.random.default_rng([3, 10]))
    assert_routed_once("kd-noisymean", points, TIGER_DOMAIN, 6, seed=3)

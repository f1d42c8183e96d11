"""Production PSDs against the test oracle, across the paper's variants.

The oracle (``tests/oracle``) keeps the per-node pointer pipeline and the
recursive query walk that the BFS arrays replaced.  For one seed the two must
release the same tree bit for bit — geometry, levels, true / noisy / post
counts and the generator's final state — for every quadtree and kd-tree
variant and the Hilbert R-tree, with and without OLS and pruning; and the
compiled engine must answer like the recursive walk: ``n(Q)`` and ``n_i``
identical, estimates and ``Err(Q)`` within 1e-9.
"""

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
    measure_level_usage,
    nodes_touched_per_level,
)
from repro.core.budget import LevelSkippingBudget
from repro.data import gaussian_cluster_points
from repro.engine import batch_query, compile_psd
from repro.geometry import Domain
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
    if variant == "hilbert-r":
        pointer, flat = pointer.psd, flat.psd
    assert_same_release(pointer, flat)


@pytest.mark.parametrize("postprocess", [False, True], ids=["raw", "ols"])
@pytest.mark.parametrize("budget", ["uniform", "geometric", "leaf-only", LevelSkippingBudget(stride=2)],
                         ids=["uniform", "geometric", "leaf-only", "level-skip"])
@pytest.mark.parametrize("variant", ["kd-standard", "hilbert-r"])
def test_budgets_are_bitwise_equal(variant, budget, postprocess):
    pointer, flat = build_both(variant, 3, count_budget=budget, postprocess=postprocess)
    if variant == "hilbert-r":
        pointer, flat = pointer.psd, flat.psd
    assert_same_release(pointer, flat)


@pytest.mark.parametrize("variant", ["quad-opt", "kd-hybrid", "hilbert-r"])
def test_height_six(variant):
    pointer, flat = build_both(variant, 6 if variant == "hilbert-r" else 5)
    if variant == "hilbert-r":
        pointer, flat = pointer.psd, flat.psd
    assert_same_release(pointer, flat)


@pytest.mark.parametrize("prune", [None, 30.0], ids=["unpruned", "pruned"])
@pytest.mark.parametrize("variant", ["quad-baseline", "quad-opt", "kd-standard", "kd-cell"])
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
    assert measure_level_usage(flat, queries) == oracle.measure_level_usage(pointer, queries)


def test_hilbert_planar_queries_match_the_recursive_walk():
    pointer, flat = build_both("hilbert-r", 3, prune_threshold=30.0)
    view = oracle.hilbert_view(pointer)
    for query in random_query_rects(DOMAIN, 40, rng=np.random.default_rng(19)):
        assert flat.range_query(query) == pytest.approx(oracle.hilbert_range_query(view, query),
                                                        rel=1e-9, abs=1e-9)

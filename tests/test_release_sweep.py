"""The release-sweep pipeline: batched builds, matrix OLS, workload algebra.

The pipeline's load-bearing guarantee is the **parity contract**: release
``r`` of ``build_psd_releases`` is bitwise identical — structure, counts,
post-processed counts, final RNG state — to the ``r``-th build of the
sequential ``build_psd`` loop under the same seed, and the shared query
matrix's ``S @ counts`` answers match the per-release flat engine to 1e-9.
This module asserts that contract for every structure family plus the
supporting pieces (matrix OLS, matrix metrics, the sweep driver, the CLI).
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
import pytest

import oracle
from repro.cli import main
from repro.core.builder import (
    BudgetSplit,
    build_psd,
    build_psd_releases,
    populate_noisy_counts,
)
from repro.core.flatbuild import _batch_topology, build_flat_structure, ols_beta
from repro.core.hilbert_rtree import (
    BinaryMedianSplit,
    build_private_hilbert_rtree,
    build_private_hilbert_rtree_releases,
)
from repro.core.kdtree import build_private_kdtree, build_private_kdtree_releases
from repro.core.quadtree import build_private_quadtree, build_private_quadtree_releases
from repro.core.splits import CellKDSplit, HybridSplit, KDSplit, QuadSplit
from repro.data.tiger import road_intersections
from repro.engine.batch import batch_query, batch_range_query, compile_query_matrix
from repro.experiments import ExperimentScale, make_workloads, run_fig3
from repro.experiments.common import SweepCase, release_workload_errors, run_sweep
from repro.geometry.domain import TIGER_DOMAIN, Domain
from repro.index.grid import UniformGrid
from repro.privacy import MEDIAN_METHODS
from repro.privacy.rng import ReplayRng
from repro.queries.metrics import (
    mean_relative_error,
    median_relative_error,
    relative_errors,
)
from repro.queries.workload import KD_QUERY_SHAPES, random_query_rects

EPSILONS = (0.1, 0.5)
REPETITIONS = 2
HEIGHT = 4


@pytest.fixture(scope="module")
def points():
    return road_intersections(n=3_000, rng=np.random.default_rng(0))


def sequential_releases(points, split_rule_factory, seed, **kwargs):
    """The reference loop the batch must match bit for bit."""
    gen = np.random.default_rng(seed)
    psds = [
        build_psd(points, TIGER_DOMAIN, HEIGHT, split_rule_factory(), epsilon=e,
                  rng=gen, **kwargs)
        for e in EPSILONS
        for _ in range(REPETITIONS)
    ]
    return psds, gen


def assert_release_equal(reference, release, label):
    ref, got = reference.flat_tree, release.flat_tree
    assert ref is not None and got is not None
    for name in ("lo", "hi", "level", "parent", "child_start", "child_end",
                 "true_count", "noisy_count"):
        assert np.array_equal(getattr(ref, name), getattr(got, name), equal_nan=True), \
            f"{label}: {name} differs"
    assert (ref.post_count is None) == (got.post_count is None), f"{label}: post presence"
    if ref.post_count is not None:
        assert np.array_equal(ref.post_count, got.post_count), f"{label}: post_count"


class TestReleaseParity:
    """Acceptance: batch == sequential loop, bit for bit, per structure family."""

    @pytest.mark.parametrize("factory,kwargs", [
        (QuadSplit, dict(count_budget="geometric", postprocess=True)),
        (QuadSplit, dict(count_budget="uniform", postprocess=False)),
        (QuadSplit, dict(count_budget="leaf-only", postprocess=False)),
        (lambda: HybridSplit(kd_levels=2, median_method="em"),
         dict(postprocess=True, prune_threshold=16.0)),
        (lambda: KDSplit(median_method="em"), dict(postprocess=True)),
        (lambda: KDSplit(median_method="ss"), dict(postprocess=False)),
        (lambda: KDSplit(median_method="noisymean"), dict(postprocess=True)),
        # sampled EM also draws one uniform per value: a count fixed by the
        # level's points, pre-drawn and replayed like every other layout
        (lambda: KDSplit(median_method="ems"), dict(postprocess=True)),
    ])
    def test_bitwise_parity_and_rng_state(self, points, factory, kwargs):
        references, gen_seq = sequential_releases(points, factory, seed=42, **kwargs)
        gen_batch = np.random.default_rng(42)
        batch = build_psd_releases(points, TIGER_DOMAIN, HEIGHT, factory(),
                                   EPSILONS, REPETITIONS, rng=gen_batch, **kwargs)
        assert batch.n_releases == len(references)
        assert gen_batch.bit_generator.state == gen_seq.bit_generator.state
        for r, reference in enumerate(references):
            assert_release_equal(reference, batch.release(r), f"release {r}")

    def test_hilbert_parity(self, points):
        gen_seq = np.random.default_rng(11)
        references = [
            build_private_hilbert_rtree(points, TIGER_DOMAIN, height=2 * HEIGHT,
                                        epsilon=e, order=10, prune_threshold=16.0,
                                        rng=gen_seq)
            for e in EPSILONS
            for _ in range(REPETITIONS)
        ]
        gen_batch = np.random.default_rng(11)
        releases = build_private_hilbert_rtree_releases(
            points, TIGER_DOMAIN, 2 * HEIGHT, EPSILONS, REPETITIONS, order=10,
            prune_threshold=16.0, rng=gen_batch)
        assert gen_batch.bit_generator.state == gen_seq.bit_generator.state
        queries = random_query_rects(TIGER_DOMAIN, 8, rng=np.random.default_rng(3))
        for r, reference in enumerate(references):
            release = releases.release(r)
            assert_release_equal(reference, release, f"hilbert release {r}")
            assert release.curve == reference.curve
            assert release.planar_domain is reference.planar_domain
            expected = [reference.range_query(q) for q in queries]
            got = batch_range_query(release.compile(), queries)
            assert np.allclose(got, expected, rtol=0, atol=0)

    def test_kdtree_variant_helper_matches_sequential(self, points):
        gen_seq = np.random.default_rng(5)
        references = [
            build_private_kdtree(points, TIGER_DOMAIN, HEIGHT, epsilon=e,
                                 variant="kd-hybrid", prune_threshold=32.0, rng=gen_seq)
            for e in EPSILONS
            for _ in range(REPETITIONS)
        ]
        gen_batch = np.random.default_rng(5)
        batch = build_private_kdtree_releases(points, TIGER_DOMAIN, HEIGHT, EPSILONS,
                                              REPETITIONS, variant="kd-hybrid",
                                              prune_threshold=32.0, rng=gen_batch)
        assert gen_batch.bit_generator.state == gen_seq.bit_generator.state
        for r, reference in enumerate(references):
            assert_release_equal(reference, batch.release(r), f"kd release {r}")

    def test_kd_pure_noiseless_releases(self, points):
        batch = build_private_kdtree_releases(points, TIGER_DOMAIN, HEIGHT, (0.5,),
                                              repetitions=2, variant="kd-pure", rng=1)
        for r in range(batch.n_releases):
            flat = batch.release(r).flat_tree
            assert np.array_equal(flat.noisy_count, flat.true_count.astype(float))

    @pytest.mark.parametrize("variant", ["kd-true", "kd-pure"])
    def test_exact_median_baselines_match_sequential(self, points, variant):
        """kd-true and kd-pure split every release alike: one tree is built
        for all of them, and each release still equals its sequential build."""
        epsilons = (0.1, 0.5, 1.0)
        gen_seq = np.random.default_rng(17)
        references = [
            build_private_kdtree(points, TIGER_DOMAIN, HEIGHT, epsilon=e, variant=variant,
                                 prune_threshold=32.0, rng=gen_seq)
            for e in epsilons
            for _ in range(REPETITIONS)
        ]
        gen_batch = np.random.default_rng(17)
        batch = build_private_kdtree_releases(points, TIGER_DOMAIN, HEIGHT, epsilons,
                                              REPETITIONS, variant=variant,
                                              prune_threshold=32.0, rng=gen_batch)
        assert gen_batch.bit_generator.state == gen_seq.bit_generator.state
        assert batch.n_releases == len(references)
        for r, reference in enumerate(references):
            assert_release_equal(reference, batch.release(r), f"{variant} release {r}")

    @pytest.mark.parametrize("method,count_fraction,epsilons,root_nodes", [
        ("true", 1.0, EPSILONS, 1),  # kd-true's budget: no median budget
        ("em", 1.0, EPSILONS, 1),  # a private method with no budget splits at midpoints
        ("true", 0.7, (0.5,), 1),  # one epsilon: every release has the same budget
        ("true", 0.7, (0.1, 0.5, 1.0), 3 * REPETITIONS),  # budgets differ
        ("em", 0.7, (0.5,), REPETITIONS),  # EM draws uniforms
    ])
    def test_releases_that_split_alike_share_one_build(self, points, method, count_fraction,
                                                       epsilons, root_nodes):
        calls = []

        class SpyKDSplit(KDSplit):
            def split_level(self, lo, hi, *args, **kwargs):
                calls.append(lo.shape[0])
                return super().split_level(lo, hi, *args, **kwargs)

        gen = np.random.default_rng(8)
        batch = build_psd_releases(points, TIGER_DOMAIN, HEIGHT, SpyKDSplit(median_method=method),
                                   epsilons, REPETITIONS,
                                   budget_split=BudgetSplit(count_fraction=count_fraction),
                                   rng=gen)
        assert calls[0] == root_nodes
        n_releases = len(epsilons) * REPETITIONS
        flat = batch.flat_batch
        assert flat.lo.shape == (n_releases, flat.n_nodes, 2) and not batch.shared_geometry
        gen_seq = np.random.default_rng(8)
        for r, e in enumerate(np.repeat(epsilons, REPETITIONS)):
            reference = build_psd(points, TIGER_DOMAIN, HEIGHT, KDSplit(median_method=method),
                                  epsilon=e, budget_split=BudgetSplit(count_fraction),
                                  rng=gen_seq)
            assert_release_equal(reference, batch.release(r), f"release {r}")
        assert gen.bit_generator.state == gen_seq.bit_generator.state

    def test_cell_variant_falls_back_to_sequential(self, points):
        gen_seq = np.random.default_rng(9)
        references = [
            build_private_kdtree(points, TIGER_DOMAIN, HEIGHT, epsilon=e,
                                 variant="kd-cell", cell_resolution=32, rng=gen_seq)
            for e in EPSILONS
            for _ in range(REPETITIONS)
        ]
        gen_batch = np.random.default_rng(9)
        batch = build_private_kdtree_releases(points, TIGER_DOMAIN, HEIGHT, EPSILONS,
                                              REPETITIONS, variant="kd-cell",
                                              cell_resolution=32, rng=gen_batch)
        assert gen_batch.bit_generator.state == gen_seq.bit_generator.state
        assert not batch.supports_shared_queries()
        for r, reference in enumerate(references):
            assert_release_equal(reference, batch.release(r), f"cell release {r}")

    def test_release_takes_the_batch_arrays_and_never_writes_back(self, points):
        batch = build_psd_releases(points, TIGER_DOMAIN, HEIGHT, KDSplit(), (0.5,), rng=4)
        flat = batch.flat_batch
        before = {name: getattr(flat, name).copy()
                  for name in ("lo", "hi", "true_count", "noisy_count")}
        release = batch.release(0)
        assert np.shares_memory(release.flat_tree.lo, flat.lo)
        assert np.shares_memory(release.flat_tree.noisy_count, flat.noisy_count)
        populate_noisy_counts(release, rng=5)
        release.strip_private_fields().postprocess().prune(32.0)
        for name, array in before.items():
            assert np.array_equal(getattr(flat, name), array, equal_nan=True), name

    def test_shared_structure_across_variants(self, points):
        structure = build_flat_structure(points, TIGER_DOMAIN, HEIGHT, QuadSplit(), 0.0)
        with_structure = build_private_quadtree_releases(
            points, TIGER_DOMAIN, HEIGHT, EPSILONS, REPETITIONS,
            variant="quad-opt", rng=3, structure=structure)
        fresh = build_private_quadtree_releases(
            points, TIGER_DOMAIN, HEIGHT, EPSILONS, REPETITIONS,
            variant="quad-opt", rng=3)
        for r in range(fresh.n_releases):
            assert_release_equal(fresh.release(r), with_structure.release(r), f"r{r}")

    def test_structure_rejected_for_data_dependent(self, points):
        structure = build_flat_structure(points, TIGER_DOMAIN, HEIGHT, QuadSplit(), 0.0)
        with pytest.raises(ValueError, match="data-independent"):
            build_psd_releases(points, TIGER_DOMAIN, HEIGHT, KDSplit(), EPSILONS,
                               rng=0, structure=structure)

    def test_input_validation(self, points):
        with pytest.raises(ValueError):
            build_psd_releases(points, TIGER_DOMAIN, HEIGHT, QuadSplit(), (), rng=0)
        with pytest.raises(ValueError):
            build_psd_releases(points, TIGER_DOMAIN, HEIGHT, QuadSplit(), (0.5,),
                               repetitions=0, rng=0)
        with pytest.raises(ValueError):
            build_psd_releases(points, TIGER_DOMAIN, HEIGHT, QuadSplit(), (0.0,), rng=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("factory", [QuadSplit, KDSplit], ids=["quad", "kd"])
    def test_non_finite_epsilon_refused(self, points, factory, value):
        """An infinite budget would release exact counts; nan has no meaning."""
        with pytest.raises(ValueError, match=f"every epsilon must be finite, got {value}"):
            build_psd_releases(points, TIGER_DOMAIN, HEIGHT, factory(), (0.5, value), rng=0)


class CountingRng(np.random.Generator):
    """A seeded generator that counts the uniforms drawn through ``random``."""

    def __init__(self, seed: int) -> None:
        super().__init__(np.random.PCG64(seed))
        self.drawn = 0

    def random(self, size=None, dtype=np.float64, out=None):
        self.drawn += 1 if size is None else int(np.prod(size))
        return super().random(size, dtype, out)


#: One-dimensional Hilbert-index values for the binary split.
HILBERT_DOMAIN = Domain.from_bounds((0.0,), (1024.0,), name="hilbert-index")
HILBERT_VALUES = np.random.default_rng(2).integers(0, 1024, 1_500).astype(float).reshape(-1, 1)


def median_rule(family, method, spy_calls=None):
    """A ``family`` split rule on median ``method``; with ``spy_calls`` a list,
    every ``split_level`` call appends its node count to it."""
    base = {"kd": KDSplit, "hybrid": HybridSplit, "binary": BinaryMedianSplit}[family]
    kwargs = {"kd_levels": 2} if family == "hybrid" else {}
    if spy_calls is None:
        return base(median_method=method, **kwargs)

    class Spy(base):
        def split_level(self, lo, hi, *args, **kw):
            spy_calls.append(lo.shape[0])
            return super().split_level(lo, hi, *args, **kw)

    return Spy(median_method=method, **kwargs)


class TestOneStructurePath:
    """Every batch is planned, pre-drawn and built by one stacked level sweep."""

    @pytest.mark.parametrize("epsilon_median", [0.0, 0.05], ids=["no-budget", "budget"])
    @pytest.mark.parametrize("rule", [
        *(f"{family}-{method}" for family in ("kd", "hybrid", "binary")
          for method in sorted(MEDIAN_METHODS)),
        "quad", "cell-grid",
    ])
    def test_level_random_draws_counts_what_split_level_draws(self, points, rule,
                                                              epsilon_median):
        if rule == "quad":
            split = QuadSplit()
        elif rule == "cell-grid":
            grid = UniformGrid(domain=TIGER_DOMAIN, shape=(16, 16)).fit(points)
            split = CellKDSplit(noisy_grid=grid.noisy_counts(0.5, rng=0))
        else:
            family, method = rule.split("-", 1)
            split = median_rule(family, method)
        data, domain = ((HILBERT_VALUES, HILBERT_DOMAIN) if rule.startswith("binary")
                        else (points, TIGER_DOMAIN))
        lo = np.asarray(domain.rect.lo, dtype=float)[None, :]
        hi = np.asarray(domain.rect.hi, dtype=float)[None, :]
        level_points, node = data, np.zeros(data.shape[0], dtype=np.int64)
        for level in range(HEIGHT, 0, -1):
            eps = epsilon_median if split.is_data_dependent(level, HEIGHT) else 0.0
            planned = split.level_random_draws(level, HEIGHT, lo.shape[0], data.shape[0], eps)
            gen = CountingRng(level)
            lo, hi, node, level_points = split.split_level(lo, hi, level_points, node, level,
                                                           HEIGHT, eps, rng=gen)
            assert isinstance(planned, int) and planned == gen.drawn, level
            # and no draw went around random(): the stream moved by `planned` doubles
            reference = np.random.Generator(np.random.PCG64(level))
            reference.random(planned)
            assert gen.bit_generator.state == reference.bit_generator.state, level

    @pytest.mark.parametrize("method", ["ems", "sss"])
    @pytest.mark.parametrize("family", ["kd", "hybrid", "binary"])
    def test_sampled_medians_build_in_one_stacked_sweep(self, points, family, method):
        """Sampled medians draw one uniform per value, a count fixed before the
        first draw: their batches take one split_level call per level, and
        every release equals its sequential build, generator included."""
        data, domain, height = ((HILBERT_VALUES, HILBERT_DOMAIN, 2 * HEIGHT)
                                if family == "binary" else (points, TIGER_DOMAIN, HEIGHT))
        calls = []
        gen = np.random.default_rng(21)
        batch = build_psd_releases(data, domain, height, median_rule(family, method, calls),
                                   EPSILONS, REPETITIONS, rng=gen, postprocess=True)
        n_releases = len(EPSILONS) * REPETITIONS
        assert calls == [n_releases * batch.fanout ** (height - level)
                         for level in range(height, 0, -1)]
        gen_seq = np.random.default_rng(21)
        gen_pointer = np.random.default_rng(21)
        for r, e in enumerate(np.repeat(EPSILONS, REPETITIONS)):
            reference = build_psd(data, domain, height, median_rule(family, method),
                                  epsilon=e, rng=gen_seq, postprocess=True)
            assert_release_equal(reference, batch.release(r), f"release {r}")
            pointer = oracle.build_psd(data, domain, height, median_rule(family, method),
                                       epsilon=e, rng=gen_pointer, postprocess=True)
            _, expected = oracle.flatten_tree(pointer)
            assert_release_equal(SimpleNamespace(flat_tree=expected), batch.release(r),
                                 f"pointer release {r}")
        assert gen.bit_generator.state == gen_seq.bit_generator.state
        assert gen.bit_generator.state == gen_pointer.bit_generator.state

    @pytest.mark.parametrize("method", ["em", "ems", "true"])
    def test_underflowing_median_budget_refused_before_any_draw(self, points, method):
        """A subnormal epsilon's per-level median share is zero beside 0.5's:
        one stacked level cannot both draw and not draw."""
        gen = np.random.default_rng(4)
        before = gen.bit_generator.state
        with pytest.raises(ValueError, match="disagree on whether"):
            build_psd_releases(points, TIGER_DOMAIN, HEIGHT, KDSplit(median_method=method),
                               (5e-324, 0.5), rng=gen)
        assert gen.bit_generator.state == before

    def test_data_independent_rule_that_draws_is_refused(self, points):
        """A rule that calls itself data-independent but draws would give each
        sequential release another structure; the replay refuses it."""

        class DrawingQuadSplit(QuadSplit):
            def split_level(self, lo, hi, points, point_node, level, height,
                            epsilon_median, rng=None):
                rng.random(1)
                return super().split_level(lo, hi, points, point_node, level, height,
                                           epsilon_median, rng=rng)

        with pytest.raises(RuntimeError, match="ReplayRng"):
            build_psd_releases(points, TIGER_DOMAIN, HEIGHT, DrawingQuadSplit(), EPSILONS,
                               REPETITIONS, rng=0)


class TestReleaseMetadata:
    """What a release carries: its own metadata dict and its own accountant."""

    def test_single_builds_carry_their_budget(self, points):
        quad = build_private_quadtree(points, TIGER_DOMAIN, HEIGHT, 0.5, variant="quad-opt",
                                      rng=1)
        assert quad.metadata == {
            "split_rule": "quad", "count_budget": "geometric", "epsilon": 0.5,
            "epsilon_count": 0.5, "epsilon_median": 0.0, "structure_epsilon": 0.0,
        }
        cell = build_private_kdtree(points, TIGER_DOMAIN, HEIGHT, 0.5, variant="kd-cell",
                                    cell_resolution=32, rng=1)
        assert cell.metadata == {
            "split_rule": "kd-cell", "count_budget": "geometric", "epsilon": 0.5 - 0.5 * 0.3,
            "epsilon_count": 0.5 - 0.5 * 0.3, "epsilon_median": 0.0,
            "structure_epsilon": 0.5 * 0.3,
        }

    def test_batch_releases_carry_their_own_epsilons(self, points):
        batch = build_psd_releases(points, TIGER_DOMAIN, HEIGHT, KDSplit(), EPSILONS,
                                   REPETITIONS, rng=3)
        for r in range(batch.n_releases):
            eps = EPSILONS[r // REPETITIONS]
            release = batch.release(r)
            assert release.metadata == {
                "split_rule": "kd", "count_budget": "geometric", "epsilon": eps,
                "epsilon_count": eps * 0.7, "epsilon_median": eps - eps * 0.7,
                "structure_epsilon": 0.0,
            }, r
            assert release.accountant.path_epsilon == pytest.approx(eps)
        assert batch.release(0).metadata is not batch.release(1).metadata

    def test_cell_accountant_charges_the_grid_at_the_root(self, points):
        cell = build_private_kdtree(points, TIGER_DOMAIN, HEIGHT, 0.5, variant="kd-cell",
                                    cell_resolution=32, rng=1)
        charges = [(c.level, c.epsilon) for c in cell.accountant.charges
                   if c.kind == "structure"]
        assert charges == [(HEIGHT, 0.5 * 0.3)]
        assert cell.accountant.path_epsilon == pytest.approx(0.5)


class TestMatrixOls:
    def test_matrix_columns_equal_single_release_runs(self):
        height, fanout, n_releases = 5, 4, 7
        level, parent, *_ = _batch_topology(height, fanout)
        n = level.shape[0]
        rng = np.random.default_rng(0)
        counts = rng.normal(scale=20.0, size=(n, n_releases))
        eps = rng.uniform(0.05, 1.0, size=(height + 1, n_releases))
        batched = ols_beta(level, parent, counts, eps, fanout, height)
        for r in range(n_releases):
            single = ols_beta(level, parent, counts[:, r].copy(), eps[:, r].copy(),
                              fanout, height)
            assert np.array_equal(batched[:, r], single), f"column {r} not bitwise equal"

    def test_matrix_ols_handles_unreleased_levels(self):
        height, fanout = 3, 4
        level, parent, *_ = _batch_topology(height, fanout)
        n = level.shape[0]
        rng = np.random.default_rng(1)
        counts = rng.normal(size=(n, 3))
        eps = rng.uniform(0.1, 1.0, size=(height + 1, 3))
        eps[2, :] = 0.0  # one unreleased level
        counts[level == 2, :] = np.nan
        batched = ols_beta(level, parent, counts, eps, fanout, height)
        assert np.all(np.isfinite(batched))

    def test_zero_leaf_budget_rejected(self):
        height, fanout = 2, 4
        level, parent, *_ = _batch_topology(height, fanout)
        eps = np.ones((height + 1, 2))
        eps[0, 1] = 0.0
        with pytest.raises(ValueError, match="leaf budget"):
            ols_beta(level, parent, np.zeros((level.shape[0], 2)), eps, fanout, height)


class TestQueryMatrix:
    @pytest.fixture(scope="class")
    def batch(self, points):
        return build_private_quadtree_releases(points, TIGER_DOMAIN, HEIGHT,
                                               EPSILONS, REPETITIONS,
                                               variant="quad-opt", rng=7)

    @pytest.fixture(scope="class")
    def queries(self):
        return random_query_rects(TIGER_DOMAIN, 25, rng=np.random.default_rng(2))

    def test_dot_matches_per_release_engines(self, batch, queries):
        engine = batch.query_engine()
        matrix = compile_query_matrix(engine, queries)
        estimates = matrix.dot(batch.released_matrix())
        assert estimates.shape == (len(queries), batch.n_releases)
        for r in range(batch.n_releases):
            reference = batch_range_query(batch.release(r).compile(), queries)
            scale = np.maximum(1.0, np.abs(reference))
            assert np.max(np.abs(estimates[:, r] - reference) / scale) <= 1e-9

    def test_single_vector_dot_and_touched(self, batch, queries):
        engine = batch.query_engine()
        matrix = compile_query_matrix(engine, queries)
        result = batch_query(engine, queries)
        assert np.allclose(matrix.dot(engine.released), result.estimates,
                           rtol=1e-9, atol=1e-9)
        assert np.array_equal(matrix.nodes_touched(), result.nodes_touched)

    def test_no_uniformity_mode(self, batch, queries):
        engine = batch.query_engine()
        matrix = compile_query_matrix(engine, queries)
        expected = batch_query(engine, queries, use_uniformity=False).estimates
        assert np.allclose(matrix.dot(engine.released, use_uniformity=False),
                           expected, rtol=1e-9, atol=1e-9)

    def test_variances(self, batch, queries):
        engine = batch.query_engine()
        matrix = compile_query_matrix(engine, queries)
        expected = batch_query(engine, queries).variances
        got = matrix.variances(engine.level_variance, engine.level)
        assert np.allclose(got, expected, rtol=1e-9, atol=1e-12)

    def test_empty_workload(self, batch):
        engine = batch.query_engine()
        matrix = compile_query_matrix(engine, [])
        assert matrix.n_queries == 0
        assert matrix.dot(engine.released).shape == (0,)

    def test_counts_shape_mismatch_rejected(self, batch, queries):
        matrix = compile_query_matrix(batch.query_engine(), queries)
        with pytest.raises(ValueError, match="nodes"):
            matrix.dot(np.zeros(3))

    def test_per_release_matrices_for_data_dependent_structures(self, points, queries):
        """kd-hybrid and Hilbert geometries differ per release, so each release
        gets its own matrix — S @ released must still equal the engine."""
        kd = build_private_kdtree_releases(points, TIGER_DOMAIN, HEIGHT, EPSILONS,
                                           REPETITIONS, variant="kd-hybrid", rng=13)
        hilbert = build_private_hilbert_rtree_releases(points, TIGER_DOMAIN,
                                                       2 * HEIGHT, EPSILONS,
                                                       REPETITIONS, order=10, rng=13)
        for collection in (kd, hilbert):
            for r in range(collection.n_releases):
                engine = collection.release(r).compile()
                matrix = compile_query_matrix(engine, queries)
                reference = batch_range_query(engine, queries)
                got = matrix.dot(engine.released)
                scale = np.maximum(1.0, np.abs(reference))
                assert np.max(np.abs(got - reference) / scale) <= 1e-9


class TestMatrixMetrics:
    def test_matrix_relative_errors_broadcast(self):
        truths = np.array([10.0, 20.0])
        estimates = np.array([[10.0, 10.0], [20.0, 40.0]])
        errs = relative_errors(estimates, truths)
        assert errs.shape == (2, 2)
        assert np.allclose(errs, [[0.0, 0.5], [1.0, 1.0]])

    def test_scalar_forms_are_views_of_matrix_form(self):
        rng = np.random.default_rng(0)
        truths = rng.uniform(1, 100, size=9)
        estimates = rng.uniform(1, 100, size=(4, 9))
        per_release_median = median_relative_error(estimates, truths)
        per_release_mean = mean_relative_error(estimates, truths)
        assert per_release_median.shape == (4,)
        for r in range(4):
            assert per_release_median[r] == median_relative_error(estimates[r], truths)
            assert per_release_mean[r] == mean_relative_error(estimates[r], truths)

    def test_scalar_form_unchanged(self):
        assert median_relative_error([10.0, 30.0], [10.0, 20.0]) == pytest.approx(0.25)
        assert np.isnan(median_relative_error([], []))

    def test_mismatched_queries_rejected(self):
        with pytest.raises(ValueError):
            relative_errors(np.zeros((2, 3)), np.zeros(4))
        with pytest.raises(ValueError):
            relative_errors(np.zeros(3), np.zeros(4))


class TestSweepDriver:
    def test_release_errors_matrix_path_equals_per_release_path(self, points):
        scale = ExperimentScale.smoke()
        workloads = make_workloads(points, KD_QUERY_SHAPES, scale, rng=1)
        batch = build_private_quadtree_releases(points, TIGER_DOMAIN, HEIGHT,
                                                EPSILONS, REPETITIONS,
                                                variant="quad-opt", rng=3)
        assert batch.supports_shared_queries()
        fast = release_workload_errors(batch, workloads)
        assert set(fast) == set(workloads)
        for label, workload in workloads.items():
            slow = [median_relative_error(batch_range_query(psd.compile(), workload.queries),
                                          workload.true_answers)
                    for psd in batch.releases()]
            assert np.allclose(fast[label], slow, rtol=1e-9, atol=1e-12)

    def test_run_sweep_groups_repetitions(self, points):
        scale = ExperimentScale.smoke()
        workloads = make_workloads(points, KD_QUERY_SHAPES[:1], scale, rng=1)

        def build(gen):
            return build_private_quadtree_releases(points, TIGER_DOMAIN, HEIGHT,
                                                   (0.5,), 3, variant="quad-opt",
                                                   rng=gen)

        case = SweepCase(label="quad-opt",
                         keys=tuple({"epsilon": 0.5, "variant": "quad-opt"}
                                    for _ in range(3)),
                         build=build)
        rows = run_sweep([case], workloads, rng=0)
        assert len(rows) == 1  # 3 repetitions collapse into one row per shape
        assert rows[0]["variant"] == "quad-opt"
        assert np.isfinite(rows[0]["median_rel_error_pct"])

    def test_run_sweep_key_count_mismatch(self, points):
        scale = ExperimentScale.smoke()
        workloads = make_workloads(points, KD_QUERY_SHAPES[:1], scale, rng=1)
        case = SweepCase(
            label="bad", keys=({"epsilon": 0.5},),
            build=lambda gen: build_private_quadtree_releases(
                points, TIGER_DOMAIN, HEIGHT, (0.5,), 2, rng=gen))
        with pytest.raises(ValueError, match="release keys"):
            run_sweep([case], workloads, rng=0)

    def test_fig3_runner_schema(self, points):
        rows = run_fig3(scale=ExperimentScale.smoke(), epsilons=(0.5,),
                        points=points, rng=2)
        assert {r["variant"] for r in rows} == {"quad-baseline", "quad-geo",
                                                "quad-post", "quad-opt"}
        assert all({"epsilon", "variant", "shape", "median_rel_error_pct"}
                   <= set(r) for r in rows)


class TestReplayRng:
    def test_replays_chunks_in_order(self):
        replay = ReplayRng([np.array([0.1, 0.2]), np.array([0.3])])
        assert np.allclose(replay.random(2), [0.1, 0.2])
        assert not replay.exhausted()
        assert np.allclose(replay.random(1), [0.3])
        assert replay.exhausted()

    def test_size_mismatch_raises(self):
        replay = ReplayRng([np.array([0.1, 0.2])])
        with pytest.raises(RuntimeError, match="draw-layout mismatch"):
            replay.random(3)

    def test_exhaustion_raises(self):
        replay = ReplayRng([])
        with pytest.raises(RuntimeError, match="exhausted"):
            replay.random(1)

    def test_non_uniform_draws_rejected(self):
        replay = ReplayRng([np.array([0.1])])
        with pytest.raises(RuntimeError):
            replay.laplace(0.0, 1.0)
        with pytest.raises(RuntimeError):
            replay.integers(0, 10)


class TestSweepCli:
    def test_figure_number_scale_and_json(self, tmp_path, capsys):
        out = tmp_path / "fig3.json"
        rc = main(["experiment", "--figure", "3", "--scale", "smoke",
                   "--json", str(out), "--seed", "1"])
        assert rc == 0
        assert "quad-opt" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["scale"]["name"] == "smoke"
        assert payload["figures"][0]["figure"] == "fig3"
        assert len(payload["figures"][0]["rows"]) == 16
        assert all(np.isfinite(r["median_rel_error_pct"])
                   for r in payload["figures"][0]["rows"])

    def test_positional_name_still_works(self, capsys):
        rc = main(["experiment", "fig2", "--scale", "smoke"])
        assert rc == 0
        assert "err_uniform" in capsys.readouterr().out

    def test_scale_overrides(self, capsys):
        rc = main(["experiment", "--figure", "2", "--scale", "paper"])
        assert rc == 0

    def test_conflicting_figure_args_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig3", "--figure", "2"])

    def test_missing_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment"])

"""Tests for query workloads, accuracy metrics, and the dataset generators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from oracle import rank_error
from repro.data import (
    MEDIAN_STUDY_DOMAIN,
    RoadNetworkConfig,
    gaussian_cluster_points,
    median_study_dataset,
    mixture_1d,
    road_intersections,
    skewed_points,
    uniform_1d,
    uniform_points,
)
from repro.geometry import Domain, TIGER_DOMAIN
from repro.queries import (
    KD_QUERY_SHAPES,
    PAPER_QUERY_SHAPES,
    QueryShape,
    generate_workload,
    mean_relative_error,
    median_relative_error,
    relative_error,
    relative_errors,
    workload_error_summary,
)


# ----------------------------------------------------------------------
# Query shapes and workloads
# ----------------------------------------------------------------------
class TestQueryShape:
    def test_label_generated(self):
        assert QueryShape((5.0, 5.0)).label == "(5, 5)"
        assert QueryShape((15.0, 0.2)).label == "(15, 0.2)"

    def test_square_helper(self):
        assert QueryShape.square(3.0).extents == (3.0, 3.0)

    def test_rejects_non_positive_extents(self):
        with pytest.raises(ValueError):
            QueryShape((0.0, 1.0))

    def test_paper_shape_lists(self):
        assert len(PAPER_QUERY_SHAPES) == 4
        assert len(KD_QUERY_SHAPES) == 3
        assert PAPER_QUERY_SHAPES[-1].extents == (15.0, 0.2)


class TestGenerateWorkload:
    def test_all_queries_nonzero_and_inside_domain(self, road_points, tiger_domain, rng):
        workload = generate_workload(road_points, tiger_domain, QueryShape((5.0, 5.0)),
                                     n_queries=40, rng=rng)
        assert len(workload) == 40
        assert np.all(workload.true_answers > 0)
        for query in workload.queries:
            assert tiger_domain.rect.contains_rect(query)

    def test_true_answers_match_brute_force(self, road_points, tiger_domain, rng):
        workload = generate_workload(road_points, tiger_domain, QueryShape((10.0, 10.0)),
                                     n_queries=10, rng=rng)
        for query, answer in workload:
            assert answer == query.count_points(road_points, closed_hi=True)

    def test_query_extents_respected(self, road_points, tiger_domain, rng):
        shape = QueryShape((2.0, 0.5))
        workload = generate_workload(road_points, tiger_domain, shape, n_queries=15, rng=rng)
        for query in workload.queries:
            widths = query.widths
            assert widths[0] <= 2.0 + 1e-9
            assert widths[1] <= 0.5 + 1e-9

    def test_gives_up_gracefully_on_empty_data(self, tiger_domain, rng):
        workload = generate_workload(np.empty((0, 2)), tiger_domain, QueryShape((1.0, 1.0)),
                                     n_queries=5, rng=rng, max_attempts_factor=3)
        assert len(workload) == 0

    def test_allow_zero_answers(self, tiger_domain, rng):
        workload = generate_workload(np.empty((0, 2)), tiger_domain, QueryShape((1.0, 1.0)),
                                     n_queries=5, rng=rng, require_nonzero=False)
        assert len(workload) == 5
        assert np.all(workload.true_answers == 0)

    def test_shape_dimension_mismatch(self, road_points, tiger_domain):
        with pytest.raises(ValueError):
            generate_workload(road_points, tiger_domain, QueryShape((1.0, 1.0, 1.0)), n_queries=3)

    def test_evaluate_applies_function(self, road_points, tiger_domain, rng):
        workload = generate_workload(road_points, tiger_domain, QueryShape((5.0, 5.0)),
                                     n_queries=5, rng=rng)
        answers = workload.evaluate(lambda q: 7.0)
        assert np.all(answers == 7.0)

    def test_reproducible_with_seed(self, road_points, tiger_domain):
        w1 = generate_workload(road_points, tiger_domain, QueryShape((5.0, 5.0)), n_queries=8, rng=9)
        w2 = generate_workload(road_points, tiger_domain, QueryShape((5.0, 5.0)), n_queries=8, rng=9)
        assert [q.lo for q in w1.queries] == [q.lo for q in w2.queries]


#: (points, domain, shape, keyword arguments) per case of the block-drawn vs
#: per-attempt equivalence test; ``road`` / ``tiger`` stand for the fixtures.
_WORKLOAD_CASES = {
    **{f"kd-{shape.label}": ("road", "tiger", shape, {"n_queries": 150})
       for shape in KD_QUERY_SHAPES},
    "empty-exhausted": (np.empty((0, 2)), "tiger", QueryShape((1.0, 1.0)),
                        {"n_queries": 5, "max_attempts_factor": 3}),
    "empty-zero-allowed": (np.empty((0, 2)), "tiger", QueryShape((1.0, 1.0)),
                           {"n_queries": 70, "require_nonzero": False}),
    "larger-than-domain": ("road", "tiger", QueryShape((100.0, 100.0)), {"n_queries": 9}),
    "sparse-many-blocks": ("road", "tiger", QueryShape((0.1, 0.1)), {"n_queries": 60}),
    "tiny-shape-capped": ("road", "tiger", QueryShape((1e-3, 1e-3)),
                          {"n_queries": 40, "max_attempts_factor": 2}),
    "no-queries": ("road", "tiger", QueryShape((5.0, 5.0)), {"n_queries": 0}),
    "1-d-domain": (uniform_points(500, Domain.unit(1), rng=np.random.default_rng(3)),
                   Domain.unit(1), QueryShape((0.01,)), {"n_queries": 90}),
    "3-d-domain": (uniform_points(500, Domain.unit(3), rng=np.random.default_rng(4)),
                   Domain.unit(3), QueryShape((0.1, 0.2, 0.3)), {"n_queries": 90}),
}


@pytest.mark.parametrize("case", sorted(_WORKLOAD_CASES))
def test_block_drawn_workload_matches_per_attempt_reference(case, road_points, tiger_domain):
    """Block-drawn attempts with exact grid counts give the per-attempt loop's
    queries, true answers and final generator state, bit for bit."""
    points, domain, shape, kwargs = _WORKLOAD_CASES[case]
    points = road_points if isinstance(points, str) else points
    domain = tiger_domain if isinstance(domain, str) else domain
    gen, ref_gen = np.random.default_rng(77), np.random.default_rng(77)
    workload = generate_workload(points, domain, shape, rng=gen, **kwargs)
    reference = oracle.per_attempt_workload(points, domain, shape, rng=ref_gen, **kwargs)
    assert workload.queries == reference.queries
    assert workload.true_answers.dtype == reference.true_answers.dtype
    assert np.array_equal(workload.true_answers, reference.true_answers)
    assert gen.bit_generator.state == ref_gen.bit_generator.state


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_relative_error_basic(self):
        assert relative_error(110.0, 100.0) == pytest.approx(0.1)
        assert relative_error(90.0, 100.0) == pytest.approx(0.1)
        assert relative_error(0.0, 0.0) == pytest.approx(0.0)

    def test_relative_errors_vector(self):
        errs = relative_errors([10.0, 20.0], [10.0, 10.0])
        assert np.allclose(errs, [0.0, 1.0])
        with pytest.raises(ValueError):
            relative_errors([1.0], [1.0, 2.0])

    def test_median_and_mean_relative_error(self):
        est = [10.0, 20.0, 30.0]
        tru = [10.0, 10.0, 10.0]
        assert median_relative_error(est, tru) == pytest.approx(1.0)
        assert mean_relative_error(est, tru) == pytest.approx(1.0)

    def test_empty_workload_is_nan(self):
        assert np.isnan(median_relative_error([], []))

    def test_workload_error_summary(self):
        summary = workload_error_summary([11.0, 9.0], [10.0, 10.0])
        assert summary["n"] == 2
        assert summary["median"] == pytest.approx(0.1)

    def test_rank_error_perfect_median(self):
        values = np.arange(100, dtype=float)
        assert rank_error(values, 49.5, 0.0, 100.0) == pytest.approx(0.0, abs=0.01)

    def test_rank_error_outside_data_range_is_one(self):
        values = np.linspace(10, 20, 50)
        assert rank_error(values, 5.0, 0.0, 100.0) == 1.0
        assert rank_error(values, 95.0, 0.0, 100.0) == 1.0

    def test_rank_error_outside_domain_is_one(self):
        values = np.linspace(10, 20, 50)
        assert rank_error(values, -5.0, 0.0, 100.0) == 1.0

    def test_rank_error_extreme_in_range(self):
        values = np.linspace(0, 100, 101)
        assert rank_error(values, 0.0, 0.0, 100.0) == pytest.approx(0.5, abs=0.02)

    @given(st.lists(st.floats(0, 1000, allow_nan=False), min_size=2, max_size=100),
           st.floats(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_rank_error_always_in_unit_interval(self, values, estimate):
        err = rank_error(np.array(values), estimate, 0.0, 1000.0)
        assert 0.0 <= err <= 1.0


# ----------------------------------------------------------------------
# Dataset generators
# ----------------------------------------------------------------------
class TestSyntheticData:
    def test_uniform_points_in_domain(self, unit_domain, rng):
        pts = uniform_points(500, unit_domain, rng=rng)
        assert pts.shape == (500, 2)
        assert bool(np.all(unit_domain.contains(pts)))

    def test_gaussian_clusters_in_domain(self, unit_domain, rng):
        pts = gaussian_cluster_points(800, unit_domain, n_clusters=3, rng=rng)
        assert bool(np.all(unit_domain.contains(pts)))

    def test_gaussian_clusters_weight_validation(self, unit_domain, rng):
        with pytest.raises(ValueError):
            gaussian_cluster_points(10, unit_domain, n_clusters=2, weights=[1.0], rng=rng)

    def test_skewed_points_concentrate_near_origin(self, unit_domain, rng):
        pts = skewed_points(5_000, unit_domain, exponent=4.0, rng=rng)
        assert np.median(pts[:, 0]) < 0.2

    def test_uniform_1d_range(self, rng):
        values = uniform_1d(1_000, lo=5.0, hi=6.0, rng=rng)
        assert values.min() >= 5.0 and values.max() <= 6.0

    def test_mixture_1d_clipped(self, rng):
        values = mixture_1d(1_000, lo=0.0, hi=1.0, modes=4, rng=rng)
        assert values.min() >= 0.0 and values.max() <= 1.0

    def test_median_study_dataset_matches_paper_domain(self, rng):
        values = median_study_dataset(n=1_000, rng=rng)
        lo, hi = MEDIAN_STUDY_DOMAIN
        assert lo == 0.0 and hi == float(2**26)
        assert values.min() >= lo and values.max() <= hi

    def test_negative_counts_rejected(self, unit_domain):
        with pytest.raises(ValueError):
            uniform_points(-1, unit_domain)
        with pytest.raises(ValueError):
            uniform_1d(-5)


class TestRoadIntersections:
    def test_in_tiger_domain_and_shape(self, rng):
        pts = road_intersections(n=5_000, rng=rng)
        assert pts.shape == (5_000, 2)
        assert bool(np.all(TIGER_DOMAIN.contains(pts)))

    def test_zero_points(self):
        assert road_intersections(n=0).shape == (0, 2)

    def test_reproducible(self):
        a = road_intersections(n=1_000, rng=7)
        b = road_intersections(n=1_000, rng=7)
        assert np.array_equal(a, b)

    def test_skewness(self, rng):
        """The generator must be much more concentrated than uniform data (the
        property that makes the TIGER data interesting for PSDs)."""
        pts = road_intersections(n=40_000, rng=rng)
        unit = TIGER_DOMAIN.normalize(pts)
        hist, _, _ = np.histogram2d(unit[:, 0], unit[:, 1], bins=32, range=[[0, 1], [0, 1]])
        top_share = np.sort(hist.ravel())[::-1][:10].sum() / hist.sum()
        assert top_share > 0.25  # the densest 1% of cells hold over a quarter of the mass
        assert (hist == 0).mean() > 0.08  # and a sizeable fraction of cells are empty

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RoadNetworkConfig(city_fraction=0.5, corridor_fraction=0.5, background_fraction=0.5)
        with pytest.raises(ValueError):
            RoadNetworkConfig(n_cities=0)

    def test_rejects_non_2d_domain(self):
        with pytest.raises(ValueError):
            road_intersections(n=10, domain=Domain.unit(3))

"""End-to-end and statistical integration tests.

These exercise the whole pipeline the way a user of the library would —
dataset → private release → query answering — and check the statistical and
privacy-accounting properties the paper promises:

* private answers are unbiased and concentrate around the truth;
* the two optimisations (geometric budget, OLS) reduce measured error;
* every released structure's privacy spend matches the declared budget;
* the kd-true / kd-pure ordering of Figure 5 holds (count noise is cheap,
  median noise is what hurts);
* the released tree is usable after stripping all private fields.
"""

from __future__ import annotations

import numpy as np
import pytest

import oracle
from repro.core import (
    build_private_hilbert_rtree,
    build_private_kdtree,
    build_private_quadtree,
)
from repro.data import road_intersections
from repro.experiments.common import evaluate_tree
from repro.geometry import TIGER_DOMAIN
from repro.queries import QueryShape, generate_workload, median_relative_error


@pytest.fixture(scope="module")
def points():
    return road_intersections(n=25_000, rng=np.random.default_rng(71))


@pytest.fixture(scope="module")
def workload(points):
    return generate_workload(points, TIGER_DOMAIN, QueryShape((8.0, 8.0)), n_queries=25, rng=72)


class TestAccuracyEndToEnd:
    def test_quad_opt_answers_large_queries_well(self, points, workload):
        psd = build_private_quadtree(points, TIGER_DOMAIN, height=7, epsilon=1.0,
                                     variant="quad-opt", rng=1)
        estimates = workload.evaluate(psd.range_query)
        err = median_relative_error(estimates, workload.true_answers)
        assert err < 0.10  # single-digit percent error, as in the paper

    def test_optimisations_reduce_error(self, points, workload):
        baseline = build_private_quadtree(points, TIGER_DOMAIN, height=7, epsilon=0.2,
                                          variant="quad-baseline", rng=2)
        optimised = build_private_quadtree(points, TIGER_DOMAIN, height=7, epsilon=0.2,
                                           variant="quad-opt", rng=2)
        err_base = median_relative_error(workload.evaluate(baseline.range_query), workload.true_answers)
        err_opt = median_relative_error(workload.evaluate(optimised.range_query), workload.true_answers)
        assert err_opt < err_base

    def test_kd_true_beats_kd_standard(self, points, workload):
        """Figure 5's message: count noise is cheap, median noise is what hurts."""
        true_medians = build_private_kdtree(points, TIGER_DOMAIN, height=5, epsilon=0.3,
                                            variant="kd-true", prune_threshold=32, rng=3)
        private_medians = build_private_kdtree(points, TIGER_DOMAIN, height=5, epsilon=0.3,
                                               variant="kd-noisymean", prune_threshold=32, rng=3)
        err_true = median_relative_error(workload.evaluate(true_medians.range_query), workload.true_answers)
        err_noisymean = median_relative_error(workload.evaluate(private_medians.range_query),
                                              workload.true_answers)
        assert err_true < err_noisymean

    def test_all_major_structures_answer_sanely(self, points, workload):
        builders = {
            "quad": lambda: build_private_quadtree(points, TIGER_DOMAIN, 6, 1.0, rng=4),
            "kd-hybrid": lambda: build_private_kdtree(points, TIGER_DOMAIN, 5, 1.0,
                                                      variant="kd-hybrid", prune_threshold=32, rng=5),
            "kd-cell": lambda: build_private_kdtree(points, TIGER_DOMAIN, 5, 1.0,
                                                    variant="kd-cell", rng=6),
            "hilbert": lambda: build_private_hilbert_rtree(points, TIGER_DOMAIN, 10, 1.0,
                                                           order=12, rng=7),
        }
        for name, build in builders.items():
            tree = build()
            errors = evaluate_tree(tree.range_query, {"(8, 8)": workload})
            assert errors["(8, 8)"] < 0.5, name

    def test_unbiasedness_of_private_answer(self, points):
        query = TIGER_DOMAIN.query_rect((-120.0, 47.0), (6.0, 6.0))
        truth = query.count_points(points, closed_hi=True)
        answers = []
        for seed in range(40):
            psd = build_private_quadtree(points, TIGER_DOMAIN, height=5, epsilon=0.5,
                                         variant="quad-geo", rng=seed)
            answers.append(psd.range_query(query))
        assert np.mean(answers) == pytest.approx(truth, rel=0.05)

    def test_more_budget_means_less_error(self, points, workload):
        errs = {}
        for eps in (0.05, 1.0):
            psd = build_private_quadtree(points, TIGER_DOMAIN, height=6, epsilon=eps,
                                         variant="quad-opt", rng=11)
            errs[eps] = median_relative_error(workload.evaluate(psd.range_query), workload.true_answers)
        assert errs[1.0] < errs[0.05]


class TestPrivacyAccountingEndToEnd:
    @pytest.mark.parametrize("builder, kwargs", [
        ("quad", {"variant": "quad-opt"}),
        ("kd", {"variant": "kd-standard", "prune_threshold": 32}),
        ("kd", {"variant": "kd-hybrid"}),
        ("kd", {"variant": "kd-cell"}),
        ("kd", {"variant": "kd-noisymean"}),
    ])
    def test_declared_budget_is_spent_exactly(self, points, builder, kwargs):
        epsilon = 0.7
        if builder == "quad":
            psd = build_private_quadtree(points, TIGER_DOMAIN, 5, epsilon, rng=12, **kwargs)
        else:
            psd = build_private_kdtree(points, TIGER_DOMAIN, 4, epsilon, rng=13, **kwargs)
        assert psd.accountant.path_epsilon == pytest.approx(epsilon)
        psd.accountant.assert_within_budget()

    def test_released_tree_usable_after_stripping_private_fields(self, points, workload):
        psd = build_private_quadtree(points, TIGER_DOMAIN, height=6, epsilon=1.0, rng=14)
        before = workload.evaluate(psd.range_query)
        psd.strip_private_fields()
        after = workload.evaluate(psd.range_query)
        assert np.allclose(before, after)

    def test_structure_of_data_dependent_tree_is_noisy(self, points):
        """Two kd-standard builds with different seeds produce different split values."""
        a = build_private_kdtree(points, TIGER_DOMAIN, 3, 0.5, variant="kd-standard", rng=15)
        b = build_private_kdtree(points, TIGER_DOMAIN, 3, 0.5, variant="kd-standard", rng=16)
        rects_a = sorted((n.rect.lo, n.rect.hi) for n in oracle.leaves(a))
        rects_b = sorted((n.rect.lo, n.rect.hi) for n in oracle.leaves(b))
        assert rects_a != rects_b

"""Smoke/integration tests for the figure-reproduction experiment runners.

These run every experiment at a tiny scale and check structure and basic
sanity of the output rows; the full-scale runs (and the shape assertions
against the paper) live in ``benchmarks/``.
"""

from __future__ import annotations

import numpy as np
import pytest

import oracle
from repro.experiments import (
    ExperimentScale,
    evaluate_tree,
    format_table,
    make_dataset,
    make_workloads,
    run_budget_split_ablation,
    run_fig2,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7a,
    run_fig7b,
    run_geometric_ratio_ablation,
    run_switch_level_ablation,
)
from repro.experiments.fig4 import PAPER_MEDIAN_METHODS
from repro.queries import KD_QUERY_SHAPES

SCALE = ExperimentScale.smoke()


@pytest.fixture(scope="module")
def tiny_points():
    return make_dataset(SCALE, rng=0)


class TestCommonInfrastructure:
    def test_scales(self):
        assert ExperimentScale.paper().n_points == 1_630_000
        assert SCALE.n_points < 10_000

    def test_make_workloads_and_evaluate(self, tiny_points):
        workloads = make_workloads(tiny_points, KD_QUERY_SHAPES, SCALE, rng=1)
        assert set(workloads) == {s.label for s in KD_QUERY_SHAPES}
        errors = evaluate_tree(lambda q: 0.0, workloads)
        assert all(err == pytest.approx(1.0) for err in errors.values())

    def test_format_table(self):
        rows = [{"a": 1, "b": 0.5}, {"a": 2, "b": None}]
        table = format_table(rows, ["a", "b"], title="T")
        assert "T" in table and "0.5000" in table and "-" in table


class TestFigureRunners:
    def test_fig2_rows(self):
        rows = run_fig2(heights=(5, 6, 7))
        assert [r["height"] for r in rows] == [5, 6, 7]
        assert all(r["err_uniform"] > r["err_geometric"] for r in rows)

    def test_fig3_rows(self, tiny_points):
        rows = run_fig3(scale=SCALE, epsilons=(0.5,), points=tiny_points, rng=2)
        variants = {r["variant"] for r in rows}
        assert variants == {"quad-baseline", "quad-geo", "quad-post", "quad-opt"}
        assert all(np.isfinite(r["median_rel_error_pct"]) for r in rows)

    def test_fig4_rows(self):
        rows = run_fig4(n_points=2**12, depth=4, methods=("em", "noisymean"), rng=3)
        assert {r["method"] for r in rows} == {"em", "noisymean"}
        assert {r["depth"] for r in rows} == {0, 1, 2, 3}
        root_rows = [r for r in rows if r["depth"] == 0]
        assert all(r["nodes"] == 1 for r in root_rows)
        assert all(0 <= r["rank_error_pct"] <= 100 for r in rows if np.isfinite(r["rank_error_pct"]))

    def test_fig4_rows_equal_per_node_reference(self):
        """A depth's one batch call per method (cell: one per n_cells group of a
        level-wide BFS draw) equals one scalar median per node in BFS order."""
        kwargs = dict(n_points=2**10, depth=5, epsilon_per_level=0.5,
                      methods=PAPER_MEDIAN_METHODS, rng=11)
        rows, reference = run_fig4(**kwargs), oracle.fig4_rows(**kwargs)
        assert [(r["method"], r["depth"], r["nodes"]) for r in rows] == \
            [(r["method"], r["depth"], r["nodes"]) for r in reference]
        assert np.array_equal([r["rank_error_pct"] for r in rows],
                              [r["rank_error_pct"] for r in reference], equal_nan=True)
        assert all(r["nodes"] > 1 for r in rows if r["method"] == "cell" and r["depth"] > 0)

    def test_fig5_rows(self, tiny_points):
        rows = run_fig5(scale=SCALE, epsilons=(1.0,), variants=("kd-pure", "kd-hybrid"),
                        points=tiny_points, rng=4)
        assert {r["variant"] for r in rows} == {"kd-pure", "kd-hybrid"}
        assert len(rows) == 2 * len(KD_QUERY_SHAPES)

    def test_fig6_rows(self, tiny_points):
        rows = run_fig6(scale=SCALE, heights=(3, 4), methods=("quad-opt", "kd-hybrid"),
                        points=tiny_points, rng=5)
        assert {r["height"] for r in rows} == {3, 4}
        assert {r["method"] for r in rows} == {"quad-opt", "kd-hybrid"}

    def test_fig6_unknown_method(self, tiny_points):
        with pytest.raises(KeyError):
            run_fig6(scale=SCALE, heights=(3,), methods=("voronoi",), points=tiny_points)

    def test_fig7a_rows(self, tiny_points):
        rows = run_fig7a(scale=SCALE, points=tiny_points, methods=("quadtree", "kd-hybrid"), rng=6)
        assert all(r["build_time_sec"] > 0 for r in rows)

    def test_fig7b_rows(self):
        rows = run_fig7b(n_per_party=1_500, epsilons=(0.1, 0.5), height=4, rng=7)
        methods = {r["method"] for r in rows}
        assert methods == {"quad-baseline", "kd-noisymean", "kd-standard"}
        # RR = 1 - candidates/total can dip (slightly) below zero at tiny
        # budgets: dummy padding to noisy leaf counts may cost more SMC work
        # than brute force, which is exactly the failure mode of [12] the
        # paper discusses.  Only the upper bound is structural.
        assert all(r["reduction_ratio"] <= 1.0 for r in rows)
        assert all(r["reduction_ratio"] > 0.5 for r in rows if r["epsilon"] >= 0.5)
        assert all(0.0 <= r["pairs_completeness"] <= 1.0 for r in rows)


class TestAblations:
    def test_budget_split(self, tiny_points):
        rows = run_budget_split_ablation(scale=SCALE, count_fractions=(0.5, 0.9),
                                         points=tiny_points, rng=8)
        assert {r["count_fraction"] for r in rows} == {0.5, 0.9}

    def test_switch_level(self, tiny_points):
        rows = run_switch_level_ablation(scale=SCALE, switch_levels=(0, 2), points=tiny_points, rng=9)
        assert {r["switch_level"] for r in rows} == {0, 2}

    def test_geometric_ratio(self):
        rows = run_geometric_ratio_ablation(heights=(6,))
        assert rows[0]["best_ratio"] == pytest.approx(2 ** (1 / 3), abs=0.12)

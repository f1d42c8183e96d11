"""The paper's two headline optimisations, demonstrated in isolation.

Section 4 (geometric budgets) and Section 5 (OLS post-processing) are the
technical core of the paper.  This example makes both effects visible on a
small, fully-inspectable tree:

* it prints the per-level Laplace parameters of the uniform and geometric
  allocations and the worst-case variance bound of each (Figure 2's curves);
* it builds the four quadtree variants of Figure 3 on the same data and the
  same workload and prints their measured errors;
* it verifies, on the released tree, the two defining properties of the OLS
  estimator — consistency (parents equal the sum of their children) and
  variance reduction relative to the raw noisy counts.

Run with::

    python examples/budget_and_postprocessing.py
"""

from __future__ import annotations

import numpy as np

from repro import TIGER_DOMAIN, build_private_quadtree, road_intersections
from repro.analysis import geometric_budget_error, uniform_budget_error
from repro.core import check_consistency, geometric_level_epsilons, uniform_level_epsilons
from repro.experiments.common import evaluate_tree, format_table
from repro.queries import PAPER_QUERY_SHAPES, generate_workload

EPSILON = 0.1
HEIGHT = 8
N_POINTS = 80_000


def main() -> None:
    rng = np.random.default_rng(5)

    # --- Budget allocations and their analytic bounds -----------------------
    print(f"Per-level count budgets for epsilon={EPSILON}, height={HEIGHT} (leaf -> root):")
    print("  uniform  :", [round(e, 4) for e in uniform_level_epsilons(HEIGHT, EPSILON)])
    print("  geometric:", [round(e, 4) for e in geometric_level_epsilons(HEIGHT, EPSILON)])
    print("\nWorst-case Err(Q) bound (Section 4.2):")
    for h in (6, 8, 10):
        print(f"  h={h}: uniform={uniform_budget_error(h, EPSILON):.3e}  "
              f"geometric={geometric_budget_error(h, EPSILON):.3e}  "
              f"ratio={uniform_budget_error(h, EPSILON) / geometric_budget_error(h, EPSILON):.1f}x")

    # --- Measured effect on the four Figure-3 variants ----------------------
    points = road_intersections(n=N_POINTS, rng=rng)
    workloads = {
        shape.label: generate_workload(points, TIGER_DOMAIN, shape, n_queries=50, rng=rng)
        for shape in PAPER_QUERY_SHAPES
    }
    rows = []
    trees = {}
    for variant in ("quad-baseline", "quad-geo", "quad-post", "quad-opt"):
        psd = build_private_quadtree(points, TIGER_DOMAIN, HEIGHT, EPSILON, variant=variant, rng=rng)
        trees[variant] = psd
        errors = evaluate_tree(psd.range_query, workloads)
        row = {"variant": variant}
        row.update({label: 100.0 * err for label, err in errors.items()})
        rows.append(row)
    columns = ["variant"] + [shape.label for shape in PAPER_QUERY_SHAPES]
    print("\n" + format_table(rows, columns,
                              title=f"Median relative error (%) at epsilon={EPSILON} (Figure 3 shape)"))

    # --- Properties of the OLS estimator ------------------------------------
    opt = trees["quad-opt"]
    print(f"\nOLS consistency violation on quad-opt: {check_consistency(opt):.2e} "
          "(parents equal the sum of their children)")
    baseline = trees["quad-baseline"]
    raw_rmse = _root_rmse(baseline)
    post_rmse = _root_rmse(opt)
    print(f"root-count error: raw noisy = {raw_rmse:.1f}, after geometric+OLS = {post_rmse:.1f}")


def _root_rmse(psd) -> float:
    """Absolute error of the released root count against the true total."""
    tree = psd.flat_tree  # node 0 of the BFS arrays is the root
    return abs(float(tree.released_counts()[0]) - int(tree.true_count[0]))


if __name__ == "__main__":
    main()

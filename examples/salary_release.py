"""Releasing a one-dimensional numeric attribute (salaries) privately.

The paper stresses that "any data set where attributes are ordered and have
moderate to high cardinality (e.g., numerical attributes such as salary) can
be considered spatial data".  This example builds a private decomposition of a
*one-dimensional* salary dataset and uses it to answer interval queries
("how many employees earn between 60k and 80k?") and to extract an
approximate histogram and median — the bread-and-butter of private data
publishing over numeric microdata.

It also compares the hierarchical release against the flat-grid strawman from
the paper's introduction (noisy counts over a fine grid) to show why the
hierarchy + post-processing matters for large ranges.

Run with::

    python examples/salary_release.py
"""

from __future__ import annotations

import numpy as np

from repro.core import build_psd
from repro.core.hilbert_rtree import BinaryMedianSplit
from repro.geometry import Domain, Rect
from repro.index import UniformGrid
from repro.privacy import exponential_mechanism_median_batch

SALARY_LO, SALARY_HI = 0.0, 500_000.0
EPSILON = 0.5
N_EMPLOYEES = 200_000


def make_salaries(rng: np.random.Generator) -> np.ndarray:
    """A right-skewed salary distribution (log-normal body plus a thin tail)."""
    body = rng.lognormal(mean=11.0, sigma=0.45, size=int(N_EMPLOYEES * 0.97))
    tail = rng.uniform(200_000, SALARY_HI, size=N_EMPLOYEES - body.size)
    salaries = np.clip(np.concatenate([body, tail]), SALARY_LO, SALARY_HI)
    return salaries.reshape(-1, 1)


def main() -> None:
    rng = np.random.default_rng(23)
    salaries = make_salaries(rng)
    domain = Domain.from_bounds((SALARY_LO,), (SALARY_HI,), name="salaries")

    # A private binary decomposition of the salary axis: data-dependent splits
    # via the exponential mechanism, geometric count budget, OLS post-processing.
    psd = build_psd(
        salaries,
        domain,
        height=10,
        split_rule=BinaryMedianSplit(median_method="em"),
        epsilon=EPSILON,
        count_budget="geometric",
        rng=rng,
        name="salary-tree",
        postprocess=True,
    )
    print(f"released {psd.name}: {psd.node_count():,} nodes, "
          f"path epsilon {psd.accountant.path_epsilon:.3f} <= {EPSILON}")

    # Interval (range-count) queries.
    print("\nInterval queries:")
    for lo, hi in [(60_000, 80_000), (0, 50_000), (100_000, 500_000)]:
        query = Rect((float(lo),), (float(hi),))
        truth = query.count_points(salaries, closed_hi=True)
        estimate = psd.range_query(query)
        print(f"  salaries in [{lo:>7,}, {hi:>7,}): true={truth:8.0f}  private={estimate:10.1f}")

    # An approximate decile histogram from the released leaf counts.
    print("\nApproximate decile histogram (from released leaves):")
    edges = np.linspace(SALARY_LO, SALARY_HI, 11)
    for lo, hi in zip(edges[:-1], edges[1:]):
        estimate = psd.range_query(Rect((float(lo),), (float(hi),)))
        bar = "#" * max(0, int(estimate / N_EMPLOYEES * 200))
        print(f"  [{lo:>9,.0f}, {hi:>9,.0f}): {max(estimate, 0.0):9.0f} {bar}")

    # A separately-budgeted private median via the exponential mechanism: its
    # batch form over one segment holding every (sorted) salary.
    median_eps = 0.05
    sorted_salaries = np.sort(salaries.ravel())
    private_median = exponential_mechanism_median_batch(
        sorted_salaries, [0, sorted_salaries.size], median_eps, SALARY_LO, SALARY_HI, rng=rng
    )[0]
    print(f"\ntrue median salary:    {np.median(salaries):>10,.0f}")
    print(f"private median (eps={median_eps}): {private_median:>10,.0f}")

    # The flat-grid strawman: same budget, 1024 cells, no hierarchy.
    grid = UniformGrid(domain=domain, shape=(1024,)).fit(salaries)
    noisy_grid = grid.noisy_counts(EPSILON, rng=rng)
    wide = Rect((100_000.0,), (500_000.0,))
    print("\nWide-range query [100k, 500k):")
    print(f"  true              : {wide.count_points(salaries, closed_hi=True):10.0f}")
    print(f"  hierarchical PSD  : {psd.range_query(wide):10.1f}")
    print(f"  flat noisy grid   : {noisy_grid.range_count(wide):10.1f}")
    print("(the flat grid sums hundreds of noisy cells, so its error on wide ranges")
    print(" is much larger — the motivation for hierarchical decompositions)")


if __name__ == "__main__":
    main()

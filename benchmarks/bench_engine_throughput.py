"""Query-serving throughput: compiled flat engine vs. the test oracle's recursive walk,
and the closed form vs. the frontier walk on a complete quadtree.

Not a paper figure — this benchmark tracks the ROADMAP's serving goal.  For
each of the three PSD families (quadtree, kd-tree, Hilbert R-tree) it builds
one released tree, generates a 1 000-query workload, and measures queries/sec
through (a) the recursive pointer walk kept as the test oracle
(``tests/oracle``, over a pointer view materialised before the clock starts)
and (b) the vectorised batch evaluator of :mod:`repro.engine` over the
compiled structure-of-arrays form.  Answer parity is asserted on every query, so the
speedup is never bought with a semantics drift.

The grid rows compare the two evaluators ``batch_query`` chooses between on
the complete quad-opt engine: the closed form of :mod:`repro.engine.grid`
against the level-synchronous frontier walk, at 64 and 4,096 queries.
Parity (identical ``n(Q)``, estimates and ``Err(Q)`` within
``1e-9 * max(|frontier|, 1)``) is asserted before either is timed; the
index is derived before the clock starts and reported as ``index_sec``.
The 4,096-query row must be at least 20x faster in a full run and not
slower under ``--smoke``.

Runnable two ways:

* ``pytest benchmarks/bench_engine_throughput.py`` — the usual benchmark row
  plus a table under ``benchmarks/results/``;
* ``python benchmarks/bench_engine_throughput.py --output BENCH_engine.json``
  — standalone, writing the series as JSON so the repo can track a
  throughput trajectory across PRs (``--smoke``: small inputs, for CI).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from hostmeta import write_bench_json
from repro.core import build_private_hilbert_rtree, build_private_kdtree, build_private_quadtree
from repro.data import road_intersections
from repro.engine import batch_query, batch_range_query, compile_psd
from repro.engine.batch import _evaluate_frontier, queries_to_arrays
from repro.engine.grid import grid_index
from repro.geometry import Domain, TIGER_DOMAIN
from repro.queries import random_query_rects

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import oracle  # noqa: E402  (the recursive reference lives with the tests)

ENGINE_VARIANTS = ("quad-opt", "kd-hybrid", "hilbert-r")

COLUMNS = [
    "variant",
    "n_nodes",
    "n_queries",
    "recursive_qps",
    "flat_qps",
    "speedup",
    "compile_sec",
    "max_abs_diff",
]

GRID_COLUMNS = [
    "n_nodes",
    "n_queries",
    "frontier_us_per_query",
    "grid_us_per_query",
    "speedup",
    "index_sec",
    "max_estimate_error",
    "max_variance_error",
]

#: Batch sizes of the grid rows: one small request and one bulk batch.
GRID_BATCHES = (64, 4_096)

#: Relative tolerance of the closed form against the frontier (of max(|frontier|, 1)).
GRID_RTOL = 1e-9

#: The 4,096-query row's speedup floor: full runs, then ``--smoke``.
GRID_FLOOR, GRID_SMOKE_FLOOR = 20.0, 1.0


def run_engine_throughput(
    points: Optional[np.ndarray] = None,
    domain: Domain = TIGER_DOMAIN,
    n_points: int = 60_000,
    n_queries: int = 1_000,
    epsilon: float = 0.5,
    quad_height: int = 7,
    kd_height: int = 5,
    rng=0,
) -> List[Dict[str, object]]:
    """One row per tree family: recursive vs flat queries/sec on one workload."""
    gen = np.random.default_rng(rng)
    if points is None:
        points = road_intersections(n=n_points, rng=gen)
    queries = random_query_rects(domain, n_queries, rng=gen)

    released = {
        "quad-opt": build_private_quadtree(points, domain, quad_height, epsilon,
                                           variant="quad-opt", rng=gen),
        "kd-hybrid": build_private_kdtree(points, domain, kd_height, epsilon,
                                          variant="kd-hybrid", rng=gen),
        "hilbert-r": build_private_hilbert_rtree(points, domain, 2 * kd_height, epsilon, rng=gen),
    }

    rows: List[Dict[str, object]] = []
    for variant, tree in released.items():
        if variant == "hilbert-r":
            view, walk = oracle.hilbert_view(tree), oracle.hilbert_range_query
        else:
            view, walk = oracle.pointer_view(tree), oracle.range_query
        start = time.perf_counter()
        recursive_answers = np.array([walk(view, q) for q in queries])
        recursive_sec = time.perf_counter() - start

        start = time.perf_counter()
        engine = compile_psd(tree)
        compile_sec = time.perf_counter() - start

        start = time.perf_counter()
        flat_answers = batch_range_query(engine, queries)
        flat_sec = time.perf_counter() - start

        max_abs_diff = float(np.max(np.abs(flat_answers - recursive_answers)))
        rows.append({
            "variant": variant,
            "n_nodes": tree.node_count(),
            "n_queries": len(queries),
            "recursive_qps": round(len(queries) / recursive_sec, 1),
            "flat_qps": round(len(queries) / flat_sec, 1),
            "speedup": round(recursive_sec / flat_sec, 1),
            "compile_sec": round(compile_sec, 4),
            "max_abs_diff": max_abs_diff,
        })
    return rows


def _best_seconds(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_grid_vs_frontier(
    points: Optional[np.ndarray] = None,
    domain: Domain = TIGER_DOMAIN,
    n_points: int = 60_000,
    epsilon: float = 0.5,
    quad_height: int = 7,
    batches=GRID_BATCHES,
    repeats: int = 3,
    rng=0,
) -> List[Dict[str, object]]:
    """One row per batch size: closed form vs frontier on a complete quad-opt engine."""
    gen = np.random.default_rng(rng)
    if points is None:
        points = road_intersections(n=n_points, rng=gen)
    engine = compile_psd(build_private_quadtree(points, domain, quad_height, epsilon,
                                                variant="quad-opt", rng=gen))
    start = time.perf_counter()
    if grid_index(engine) is None:
        raise AssertionError("a complete quad-opt engine must take the closed form")
    index_sec = time.perf_counter() - start

    rows: List[Dict[str, object]] = []
    for n_queries in batches:
        qlo, qhi = queries_to_arrays(random_query_rects(domain, n_queries, rng=gen), engine.dims)
        rects = np.hstack([qlo, qhi])
        grid = batch_query(engine, rects)
        frontier = _evaluate_frontier(engine, qlo, qhi, True)
        if not np.array_equal(grid.nodes_touched, frontier.nodes_touched):
            raise AssertionError(f"{n_queries} queries: n(Q) differs from the frontier")
        errors = [float(np.max(np.abs(have - want) / np.maximum(np.abs(want), 1.0)))
                  for have, want in ((grid.estimates, frontier.estimates),
                                     (grid.variances, frontier.variances))]
        if max(errors) > GRID_RTOL:
            raise AssertionError(f"{n_queries} queries: closed form off by {max(errors):.3g}")

        frontier_sec = _best_seconds(lambda: _evaluate_frontier(engine, qlo, qhi, True), repeats)
        grid_sec = _best_seconds(lambda: batch_query(engine, rects), repeats)
        rows.append({
            "n_nodes": engine.n_nodes,
            "n_queries": n_queries,
            "frontier_us_per_query": round(1e6 * frontier_sec / n_queries, 2),
            "grid_us_per_query": round(1e6 * grid_sec / n_queries, 2),
            "speedup": round(frontier_sec / grid_sec, 1),
            "index_sec": round(index_sec, 4),
            "max_estimate_error": errors[0],
            "max_variance_error": errors[1],
        })
    return rows


def _grid_failures(rows: List[Dict[str, object]], smoke: bool) -> List[str]:
    floor = GRID_SMOKE_FLOOR if smoke else GRID_FLOOR
    return [f"closed form at {row['n_queries']} queries: {row['speedup']}x, below the {floor}x floor"
            for row in rows if row["n_queries"] == max(GRID_BATCHES) and row["speedup"] < floor]


def test_engine_throughput(benchmark, capsys, scale, bench_points, bench_domain):
    from conftest import report

    rows = benchmark.pedantic(
        run_engine_throughput,
        kwargs={"points": bench_points, "domain": bench_domain, "n_queries": 1_000, "rng": 11},
        rounds=1,
        iterations=1,
    )
    report(
        "engine_throughput",
        "Flat engine vs the oracle's recursive walk — queries/sec (1k-query batch)",
        rows,
        COLUMNS,
        capsys,
    )
    assert {r["variant"] for r in rows} == set(ENGINE_VARIANTS)
    for row in rows:
        # Answers must agree to float-summation noise; the paper's counts are
        # O(n_points), so 1e-6 absolute is far below one noisy point.
        assert row["max_abs_diff"] < 1e-6, row
        # The ISSUE's acceptance bar: >= 5x batch throughput at 1k queries.
        assert row["speedup"] >= 5.0, row


def test_grid_vs_frontier(capsys, bench_points, bench_domain):
    from conftest import report

    rows = run_grid_vs_frontier(points=bench_points, domain=bench_domain, rng=11)
    report("engine_grid_vs_frontier",
           "Closed form vs frontier walk on a complete quad-opt engine (us/query)",
           rows, GRID_COLUMNS, capsys)
    assert not _grid_failures(rows, smoke=True), rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-points", type=int, default=None,
                        help="points per release (default 60,000; 8,000 with --smoke)")
    parser.add_argument("--n-queries", type=int, default=None,
                        help="queries of the variant rows (default 1,000; 200 with --smoke)")
    parser.add_argument("--epsilon", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs; fail on a parity break or a slower closed form")
    parser.add_argument("--output", default=None, help="write the series as JSON here")
    args = parser.parse_args(argv)
    n_points = args.n_points or (8_000 if args.smoke else 60_000)
    n_queries = args.n_queries or (200 if args.smoke else 1_000)

    rows = run_engine_throughput(
        n_points=n_points, n_queries=n_queries, epsilon=args.epsilon, rng=args.seed
    )
    for row in rows:
        print(json.dumps(row))
    grid_rows = run_grid_vs_frontier(n_points=n_points, epsilon=args.epsilon, rng=args.seed)
    for row in grid_rows:
        print(json.dumps(row))
    failures = _grid_failures(grid_rows, args.smoke)
    failures += [f"{row['variant']}: flat answers off by {row['max_abs_diff']}"
                 for row in rows if row["max_abs_diff"] >= 1e-6]
    if args.output:
        write_bench_json(args.output, {
            "benchmark": "engine_throughput",
            "n_points": n_points,
            "n_queries": n_queries,
            "epsilon": args.epsilon,
            "seed": args.seed,
            "smoke": args.smoke,
            "rows": rows,
            "grid_rows": grid_rows,
        })
        print(f"written {args.output}")
    for message in failures:
        print(f"FAIL: {message}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

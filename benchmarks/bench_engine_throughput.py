"""Query-serving throughput: compiled flat engine vs. the test oracle's recursive walk.

Not a paper figure — this benchmark tracks the ROADMAP's serving goal.  For
each of the three PSD families (quadtree, kd-tree, Hilbert R-tree) it builds
one released tree, generates a 1 000-query workload, and measures queries/sec
through (a) the recursive pointer walk kept as the test oracle
(``tests/oracle``, over a pointer view materialised before the clock starts)
and (b) the vectorised batch evaluator of :mod:`repro.engine` over the
compiled structure-of-arrays form.  Answer parity is asserted on every query, so the
speedup is never bought with a semantics drift.

Runnable two ways:

* ``pytest benchmarks/bench_engine_throughput.py`` — the usual benchmark row
  plus a table under ``benchmarks/results/``;
* ``python benchmarks/bench_engine_throughput.py --output BENCH_engine.json``
  — standalone, writing the series as JSON so the repo can track a
  throughput trajectory across PRs.
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
from repro.engine import batch_range_query, compile_hilbert_rtree, compile_psd
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
        if variant == "hilbert-r":
            engine = compile_hilbert_rtree(tree)
        else:
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-points", type=int, default=60_000)
    parser.add_argument("--n-queries", type=int, default=1_000)
    parser.add_argument("--epsilon", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--output", default=None, help="write the series as JSON here")
    args = parser.parse_args(argv)

    rows = run_engine_throughput(
        n_points=args.n_points, n_queries=args.n_queries, epsilon=args.epsilon, rng=args.seed
    )
    for row in rows:
        print(json.dumps(row))
    if args.output:
        write_bench_json(args.output, {
            "benchmark": "engine_throughput",
            "n_points": args.n_points,
            "n_queries": args.n_queries,
            "epsilon": args.epsilon,
            "seed": args.seed,
            "rows": rows,
        })
        print(f"written {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

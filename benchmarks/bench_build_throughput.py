"""Build+postprocess throughput: flat-native pipeline vs the test oracle's pointer builder.

Not a paper figure — this benchmark tracks the ROADMAP's "fast as the
hardware allows" goal for the *release* half of the system (the paper's
Fig 7a measures build time; :mod:`bench_engine_throughput` already tracks the
query half).  For each configuration it runs the **identical** recipe —
structure growth, per-level private medians, per-level Laplace noise, OLS
post-processing — through two builders:

* pointer — the per-node reference kept as the test oracle
  (``tests/oracle``, :func:`oracle.build_psd`): recursive splitting over
  ``PSDNode`` objects, scalar median calls, per-rect grid medians and noise
  draws, the three recursive OLS traversals;
* flat    — the production pipeline of :func:`repro.core.builder.build_psd`:
  level-vectorized construction straight into BFS structure-of-arrays form,
  one ragged-batch private-median call per level and stage (kd-cell: each
  level's medians per axis read off a one-axis prefix table of the noisy grid,
  O(G) per node), one batched noise vector per level, OLS as three vectorized
  per-level sweeps.

Both builders consume the same seeded RNG in the same order, so the outputs
are bit-for-bit identical; the benchmark *asserts* that parity (released
counts, post-processed counts, node geometry exactly; ``n(Q)`` exactly and
``Err(Q)`` / estimates to float-summation tolerance through the compiled
engine) before reporting any speedup.

The ``--median-output`` axis sweeps the data-dependent build path —
``--median-method`` (EM/SS/cell/NM) over the kd-hybrid tree, the ``kd-pure``
exact-median baseline, and the Hilbert R-tree including its planar engine
compile — and writes the series to ``BENCH_median.json``.

Runnable three ways:

* ``pytest benchmarks/bench_build_throughput.py`` — benchmark row plus a
  table under ``benchmarks/results/``;
* ``python benchmarks/bench_build_throughput.py --output BENCH_build.json
  --median-output BENCH_median.json`` — standalone, writing the series as
  JSON so the repo tracks a build throughput trajectory across PRs;
* ``python benchmarks/bench_build_throughput.py --smoke`` — a fast parity +
  regression gate for CI: small inputs (including a median-method subset and
  a Hilbert compile check), exits non-zero if parity breaks, if the flat
  pipeline stops being faster than the reference, or if a kd-hybrid flat
  build comes out slower than its pointer build.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from hostmeta import write_bench_json
from repro.core import build_private_kdtree, build_private_quadtree
from repro.core.hilbert_rtree import build_private_hilbert_rtree
from repro.data import road_intersections
from repro.engine import batch_query, compile_psd
from repro.geometry import Domain, TIGER_DOMAIN
from repro.queries import random_query_rects

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import oracle  # noqa: E402  (the pointer reference lives with the tests)

#: (variant, n_points, height) per benchmark row; the 100k/8 quadtree is the
#: acceptance configuration tracked across PRs.  Heights for ``hilbert-r``
#: are binary levels (2 per fanout-4 level).
FULL_CONFIGS: Tuple[Tuple[str, int, int], ...] = (
    ("quad-opt", 20_000, 6),
    ("quad-opt", 100_000, 8),
    ("kd-hybrid", 50_000, 6),
    ("kd-pure", 50_000, 6),
    ("kd-cell", 50_000, 6),
    ("hilbert-r", 60_000, 10),
)

SMOKE_CONFIGS: Tuple[Tuple[str, int, int], ...] = (
    ("quad-opt", 5_000, 5),
    ("kd-hybrid", 2_000, 3),
    ("kd-pure", 2_000, 3),
    ("kd-cell", 2_000, 3),
    ("hilbert-r", 2_000, 6),
)

#: The private-median methods the --median-method axis sweeps (Figure 4's
#: EM / SS / cell / NM labels).
MEDIAN_SWEEP_METHODS: Tuple[str, ...] = ("em", "ss", "cell", "noisymean")

COLUMNS = [
    "variant",
    "n_points",
    "height",
    "n_nodes",
    "pointer_sec",
    "flat_sec",
    "speedup",
    "exact_parity",
    "max_nq_diff",
    "max_err_rel_diff",
]

MEDIAN_COLUMNS = [
    "variant",
    "median_method",
    "n_points",
    "height",
    "pointer_sec",
    "flat_sec",
    "speedup",
    "compile_pointer_sec",
    "compile_flat_sec",
    "compile_speedup",
    "exact_parity",
]


def _build(variant: str, points: np.ndarray, domain: Domain, height: int,
           epsilon: float, seed: int, side: str, median_method: Optional[str] = None):
    """Build with the production pipeline (``side="flat"``) or the oracle's
    pointer builder (``side="pointer"``)."""
    if side == "pointer":
        quadtree, kdtree, hilbert = (oracle.build_private_quadtree, oracle.build_private_kdtree,
                                     oracle.build_private_hilbert_rtree)
    else:
        quadtree, kdtree, hilbert = (build_private_quadtree, build_private_kdtree,
                                     build_private_hilbert_rtree)
    if variant.startswith("quad"):
        return quadtree(points, domain, height, epsilon, variant=variant, rng=seed)
    if variant == "hilbert-r":
        return hilbert(points, domain, height, epsilon, median_method=median_method or "em",
                       rng=seed)
    return kdtree(points, domain, height, epsilon, variant=variant,
                  median_method=median_method, rng=seed)


def _arrays_equal(a, b, names) -> bool:
    return all(np.array_equal(getattr(a, name), getattr(b, name)) for name in names)


PARITY_ARRAYS = ("lo", "hi", "level", "released", "has_count",
                 "child_start", "child_end", "count_epsilons")


def _check_parity(pointer_psd, flat_psd, domain: Domain, n_queries: int, seed: int) -> Dict[str, object]:
    """Assert the two builders released the same tree; return the evidence.

    Geometry and counts are compared **bitwise** through the compiled array
    form; per-query ``n(Q)`` must match exactly against the oracle's
    recursive walk, while estimates and ``Err(Q)`` are allowed the engine's
    usual float-summation tolerance.
    """
    a = oracle.compile_psd(pointer_psd)
    b = compile_psd(flat_psd)
    exact = _arrays_equal(a, b, PARITY_ARRAYS)
    queries = random_query_rects(domain, n_queries, rng=seed)
    result = batch_query(b, queries)
    max_nq_diff = 0
    max_err_rel = 0.0
    for i, query in enumerate(queries):
        nq_ref = oracle.nodes_touched(pointer_psd, query)
        err_ref = oracle.query_variance(pointer_psd, query)
        max_nq_diff = max(max_nq_diff, abs(int(result.nodes_touched[i]) - nq_ref))
        denom = max(abs(err_ref), 1e-12)
        max_err_rel = max(max_err_rel, abs(float(result.variances[i]) - err_ref) / denom)
    return {"exact_parity": bool(exact), "max_nq_diff": int(max_nq_diff),
            "max_err_rel_diff": float(max_err_rel)}


def _check_hilbert_parity(pointer_tree, flat_tree, domain: Domain, n_queries: int,
                          seed: int) -> Dict[str, object]:
    """Bitwise parity of a Hilbert R-tree across builders, index and planar views.

    The 1-D index intervals must match bitwise; the planar bounding-box
    engines (oracle pointer walk vs flat vectorized compile) must match
    bitwise too; planar query estimates are compared against the oracle's
    recursive walk within the engine's float-summation tolerance.
    """
    _, index_tree = oracle.flatten_tree(pointer_tree)
    exact = (np.array_equal(index_tree.lo, flat_tree.flat_tree.lo)
             and np.array_equal(index_tree.hi, flat_tree.flat_tree.hi))
    planar_a = oracle.compile_psd(pointer_tree)
    planar_b = compile_psd(flat_tree)
    exact = exact and _arrays_equal(planar_a, planar_b, PARITY_ARRAYS + ("area",))
    queries = random_query_rects(domain, n_queries, rng=seed)
    result = batch_query(planar_b, queries)
    max_err_rel = 0.0
    for i, query in enumerate(queries):
        ref = oracle.hilbert_range_query(pointer_tree, query)
        denom = max(abs(ref), 1e-9)
        max_err_rel = max(max_err_rel, abs(float(result.estimates[i]) - ref) / denom)
    return {"exact_parity": bool(exact), "max_nq_diff": 0,
            "max_err_rel_diff": float(max_err_rel)}


def run_build_throughput(
    configs: Tuple[Tuple[str, int, int], ...] = FULL_CONFIGS,
    domain: Domain = TIGER_DOMAIN,
    epsilon: float = 0.5,
    n_parity_queries: int = 50,
    rng: int = 11,
    repeats: int = 1,
) -> List[Dict[str, object]]:
    """One row per configuration: pointer vs flat build+postprocess wall time.

    ``repeats`` > 1 takes the best of that many timed runs per builder —
    millisecond-scale smoke builds need it to ride out scheduler noise.
    """
    rows: List[Dict[str, object]] = []
    for variant, n_points, height in configs:
        points = road_intersections(n=n_points, rng=np.random.default_rng(rng))

        pointer_sec = flat_sec = float("inf")
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            pointer_psd = _build(variant, points, domain, height, epsilon, rng, "pointer")
            pointer_sec = min(pointer_sec, time.perf_counter() - start)

            start = time.perf_counter()
            flat_psd = _build(variant, points, domain, height, epsilon, rng, "flat")
            flat_sec = min(flat_sec, time.perf_counter() - start)

        if variant == "hilbert-r":
            parity = _check_hilbert_parity(pointer_psd, flat_psd, domain,
                                           n_parity_queries, rng + 1)
        else:
            parity = _check_parity(pointer_psd, flat_psd, domain, n_parity_queries, rng + 1)
        n_nodes = flat_psd.node_count()
        rows.append({
            "variant": variant,
            "n_points": n_points,
            "height": height,
            "n_nodes": n_nodes,
            "pointer_sec": round(pointer_sec, 4),
            "flat_sec": round(flat_sec, 4),
            "speedup": round(pointer_sec / flat_sec, 1),
            **parity,
        })
    return rows


def run_median_bench(
    methods: Tuple[str, ...] = MEDIAN_SWEEP_METHODS,
    domain: Domain = TIGER_DOMAIN,
    epsilon: float = 0.5,
    n_points: int = 20_000,
    height: int = 8,
    hilbert_n: int = 60_000,
    hilbert_height: int = 10,
    rng: int = 11,
    repeats: int = 2,
    n_parity_queries: int = 25,
) -> List[Dict[str, object]]:
    """The data-dependent build path: kd-hybrid x median method, kd-pure and
    hilbert-r (including the planar engine compile), pointer vs flat.

    Every row asserts bitwise oracle parity before reporting a speedup; the
    hilbert-r row additionally times the planar engine compile on both sides
    — the flat path snapshots node bboxes from arrays, the oracle walks
    ``PSDNode`` objects, which is the compile hot spot this series tracks.
    """
    configs = [("kd-hybrid", method, n_points, height) for method in methods]
    configs.append(("kd-pure", None, n_points, height))
    configs.append(("hilbert-r", "em", hilbert_n, hilbert_height))

    rows: List[Dict[str, object]] = []
    for variant, method, n, h in configs:
        points = road_intersections(n=n, rng=np.random.default_rng(rng))
        pointer_sec = flat_sec = float("inf")
        compile_pointer = compile_flat = None
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            pointer_psd = _build(variant, points, domain, h, epsilon, rng, "pointer", method)
            pointer_sec = min(pointer_sec, time.perf_counter() - start)

            start = time.perf_counter()
            flat_psd = _build(variant, points, domain, h, epsilon, rng, "flat", method)
            flat_sec = min(flat_sec, time.perf_counter() - start)

            if variant == "hilbert-r":
                start = time.perf_counter()
                oracle.compile_psd(pointer_psd)
                elapsed = time.perf_counter() - start
                compile_pointer = elapsed if compile_pointer is None else min(compile_pointer, elapsed)
                start = time.perf_counter()
                compile_psd(flat_psd)
                elapsed = time.perf_counter() - start
                compile_flat = elapsed if compile_flat is None else min(compile_flat, elapsed)

        if variant == "hilbert-r":
            parity = _check_hilbert_parity(pointer_psd, flat_psd, domain,
                                           n_parity_queries, rng + 1)
        else:
            parity = _check_parity(pointer_psd, flat_psd, domain, n_parity_queries, rng + 1)
        rows.append({
            "variant": variant,
            "median_method": method or "true",
            "n_points": n,
            "height": h,
            "pointer_sec": round(pointer_sec, 4),
            "flat_sec": round(flat_sec, 4),
            "speedup": round(pointer_sec / flat_sec, 1),
            "compile_pointer_sec": None if compile_pointer is None else round(compile_pointer, 4),
            "compile_flat_sec": None if compile_flat is None else round(compile_flat, 4),
            "compile_speedup": (None if compile_pointer is None
                                else round(compile_pointer / compile_flat, 1)),
            "exact_parity": bool(parity["exact_parity"]),
        })
    return rows


def _speedup_floor(variant: str, smoke: bool) -> float:
    """The regression gate per variant.

    Quadtree builds are fully level-vectorized, so even tiny smoke inputs must
    beat the pointer reference comfortably (~20x measured; the 1.5x floor
    leaves an order of magnitude of headroom for noisy shared CI runners,
    best-of-N timing absorbs the rest).  Since the batched private medians
    landed, the kd variants are level-vectorized end to end as well — the
    smoke gate requires the flat build to at least *match* the pointer build
    (the regression the gate exists to catch), and the full run enforces a
    real multiple.  The Hilbert R-tree's full-run floor is lower: its binary
    pointer splits are 1-D masks with little per-node Python to eliminate, so
    the honest full-scale gap is smaller.
    """
    if variant.startswith("quad"):
        return 1.5 if smoke else 5.0
    if variant == "hilbert-r":
        return 1.0 if smoke else 2.5
    return 1.0 if smoke else 3.0


#: Full-run acceptance gates for the median series: the kd-hybrid EM build
#: must beat the pointer reference >= 10x, and the flat planar compile must be
#: >= 10x faster than the 0.172 s recorded for it in BENCH_engine.json (PR 1).
KD_HYBRID_EM_SPEEDUP_FLOOR = 10.0
HILBERT_COMPILE_BASELINE_SEC = 0.172


def _median_failures(median_rows: List[Dict[str, object]], smoke: bool) -> List[str]:
    failures = []
    for row in median_rows:
        tag = f"{row['variant']}[{row['median_method']}] n={row['n_points']}"
        if not row["exact_parity"]:
            failures.append(f"{tag}: flat build diverged from the oracle")
        if row["variant"] == "kd-hybrid":
            # ss is dominated by the smooth-sensitivity scan itself (identical
            # work in both builders), so it only has to not regress.
            if smoke or row["median_method"] == "ss":
                floor = 1.0
            elif row["median_method"] == "em":
                floor = KD_HYBRID_EM_SPEEDUP_FLOOR
            else:
                floor = 3.0
            if row["speedup"] < floor:
                failures.append(f"{tag}: build speedup {row['speedup']}x below the {floor}x floor")
        if row["compile_speedup"] is not None:
            if row["compile_speedup"] < 1.0:
                failures.append(f"{tag}: planar compile regression ({row['compile_speedup']}x)")
            if not smoke and row["compile_flat_sec"] > HILBERT_COMPILE_BASELINE_SEC / 10.0:
                failures.append(
                    f"{tag}: flat planar compile {row['compile_flat_sec']}s not 10x faster "
                    f"than the {HILBERT_COMPILE_BASELINE_SEC}s PR 1 baseline")
    return failures


def test_build_throughput(benchmark, capsys):
    from conftest import report

    rows = benchmark.pedantic(
        run_build_throughput,
        kwargs={"configs": SMOKE_CONFIGS, "rng": 11, "repeats": 5},
        rounds=1,
        iterations=1,
    )
    report(
        "build_throughput",
        "Flat-native build pipeline vs pointer reference — build+postprocess seconds",
        rows,
        COLUMNS,
        capsys,
    )
    for row in rows:
        assert row["exact_parity"], row
        assert row["max_nq_diff"] == 0, row
        assert row["max_err_rel_diff"] < 1e-9, row
        assert row["speedup"] >= _speedup_floor(row["variant"], smoke=True), row


def test_median_throughput(capsys):
    from conftest import report

    rows = run_median_bench(methods=("em", "noisymean"), n_points=1_500, height=3,
                            hilbert_n=1_500, hilbert_height=6, rng=11, repeats=3)
    report(
        "median_throughput",
        "Level-batched private medians vs per-node reference — build seconds",
        rows,
        MEDIAN_COLUMNS,
        capsys,
    )
    failures = _median_failures(rows, smoke=True)
    assert not failures, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epsilon", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs; fail fast on parity breaks or regressions")
    parser.add_argument("--output", default=None, help="write the build series as JSON here")
    parser.add_argument("--median-method", nargs="+", default=list(MEDIAN_SWEEP_METHODS),
                        choices=sorted(MEDIAN_SWEEP_METHODS),
                        help="median methods swept by the kd-hybrid rows of the median series")
    parser.add_argument("--median-output", default=None,
                        help="run the private-median sweep and write it as JSON here")
    args = parser.parse_args(argv)

    configs = SMOKE_CONFIGS if args.smoke else FULL_CONFIGS
    rows = run_build_throughput(configs=configs, epsilon=args.epsilon, rng=args.seed,
                                repeats=5 if args.smoke else 1)
    for row in rows:
        print(json.dumps(row))

    failures: List[str] = []
    for row in rows:
        if not row["exact_parity"]:
            failures.append(f"{row['variant']} n={row['n_points']}: released arrays diverged")
        if row["max_nq_diff"] != 0:
            failures.append(f"{row['variant']} n={row['n_points']}: n(Q) mismatch")
        if row["max_err_rel_diff"] >= 1e-9:
            failures.append(f"{row['variant']} n={row['n_points']}: Err(Q) drifted")
        floor = _speedup_floor(row["variant"], args.smoke)
        if row["speedup"] < floor:
            failures.append(f"{row['variant']} n={row['n_points']}: speedup "
                            f"{row['speedup']}x below the {floor}x floor")

    median_rows: List[Dict[str, object]] = []
    if args.median_output or args.smoke:
        if args.smoke:
            median_rows = run_median_bench(methods=("em", "noisymean"), n_points=1_500,
                                           height=3, hilbert_n=1_500, hilbert_height=6,
                                           epsilon=args.epsilon, rng=args.seed, repeats=3)
        else:
            median_rows = run_median_bench(methods=tuple(args.median_method),
                                           epsilon=args.epsilon, rng=args.seed)
        for row in median_rows:
            print(json.dumps(row))
        failures.extend(_median_failures(median_rows, args.smoke))

    if failures:
        for message in failures:
            print(f"FAIL: {message}", file=sys.stderr)
        return 1

    if args.output:
        write_bench_json(args.output, {
            "benchmark": "build_throughput",
            "epsilon": args.epsilon,
            "seed": args.seed,
            "rows": rows,
        })
        print(f"written {args.output}")
    if args.median_output and median_rows:
        write_bench_json(args.median_output, {
            "benchmark": "median_throughput",
            "epsilon": args.epsilon,
            "seed": args.seed,
            "baseline": {
                "kd_hybrid_pr2_speedup": 4.6,
                "hilbert_compile_pr1_sec": HILBERT_COMPILE_BASELINE_SEC,
            },
            "rows": median_rows,
        })
        print(f"written {args.median_output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

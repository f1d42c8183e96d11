"""Zero-copy engine store: cold-attach latency, RSS, qps and float32 error.

Not a paper figure — this benchmark gates the FLATPSD2 storage layer
(:mod:`repro.engine.io`) against the ROADMAP's "attach in milliseconds,
serve trees that don't fit in RAM" target, on a synthetic complete quadtree
with >= 10^6 nodes:

* **cold start** — a fresh subprocess attaches the FLATPSD2 file (header
  parse + mmap), reporting attach latency and resident-set size, and answers
  a query batch.  Its answers must be **bitwise equal** (as float hex, with
  identical ``n(Q)``) to ``batch_query`` on the in-memory engine in this
  process — the file and the process boundary must change nothing.  Full
  runs gate the attach at <= 25 ms for >= 10^6 nodes.
* **warm qps** — steady-state batch throughput over the in-memory (heap)
  vs mmap-attached (page cache) arrays; after first touch both read from
  RAM, so this checks that mapped storage costs nothing at query time.
* **float32 precision** — per benchmarked epsilon, the reduced-precision
  store's added error on every query is measured against the float64 path
  and gated **below the per-leaf Laplace standard deviation**
  ``sqrt(2)/eps_leaf``: storage rounding must stay beneath the noise the
  release already carries.  ``n(Q)`` must be identical (geometry stays
  float64, so the decomposition cannot move).

Runnable three ways:

* ``pytest benchmarks/bench_memmap.py`` — benchmark row plus a results table;
* ``python benchmarks/bench_memmap.py --output BENCH_memmap.json`` — the
  full gated run (height-10 tree, 1,398,101 nodes);
* ``python benchmarks/bench_memmap.py --smoke`` — CI: a small tree, parity
  and noise-floor asserts, no latency ceiling (shared CI boxes can't promise
  one).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Sequence

import numpy as np

from hostmeta import host_metadata, write_bench_json
from repro.engine import batch_query, engine_with_precision, save_engine
from repro.engine.flat import FlatPSD, _freeze, level_variances
from repro.geometry import Domain
from repro.privacy.mechanisms import laplace_variance
from repro.queries import random_query_rects

#: Epsilons the float32 noise-floor contract is checked at.
PRECISION_EPSILONS = (0.1, 0.5, 1.0)

#: Full-mode ceiling on the cold attach of a >= 10^6-node FLATPSD2 file.
ATTACH_CEILING_SEC = 0.025


# ----------------------------------------------------------------------
# Synthetic complete quadtree, built directly in BFS array form
# ----------------------------------------------------------------------
def make_complete_quadtree(
    height: int, epsilon: float, n_population: int = 1_000_000, seed: int = 0
) -> FlatPSD:
    """A complete quadtree engine over the unit square, arrays built per level.

    Node counts are the Laplace-noised expected counts of a uniform
    population (``n_population * area + Lap(1/eps_level)``) under a uniform
    per-level budget split — the same released shape a real build produces,
    at a scale (``(4^(height+1) - 1) / 3`` nodes) where building from points
    would dominate the benchmark.  Children of the k-th node of a level are
    BFS-contiguous at offset ``4k`` of the next level, laid out in z-order.
    """
    rng = np.random.default_rng(seed)
    eps_level = epsilon / (height + 1)
    counts_per_depth = [4**d for d in range(height + 1)]
    offsets = np.concatenate([[0], np.cumsum(counts_per_depth)])
    n = int(offsets[-1])

    lo = np.empty((n, 2), dtype=np.float64)
    hi = np.empty((n, 2), dtype=np.float64)
    level = np.empty(n, dtype=np.int32)
    child_start = np.empty(n, dtype=np.int64)
    child_end = np.empty(n, dtype=np.int64)

    xs = np.zeros(1, dtype=np.int64)
    ys = np.zeros(1, dtype=np.int64)
    for depth in range(height + 1):
        sl = slice(int(offsets[depth]), int(offsets[depth + 1]))
        cells = 1 << depth
        lo[sl, 0] = xs / cells
        lo[sl, 1] = ys / cells
        hi[sl, 0] = (xs + 1) / cells
        hi[sl, 1] = (ys + 1) / cells
        level[sl] = height - depth
        k = np.arange(int(offsets[depth + 1]) - int(offsets[depth]), dtype=np.int64)
        if depth < height:
            child_start[sl] = offsets[depth + 1] + 4 * k
            child_end[sl] = offsets[depth + 1] + 4 * k + 4
            xs = 2 * np.repeat(xs, 4) + np.tile([0, 1, 0, 1], len(k))
            ys = 2 * np.repeat(ys, 4) + np.tile([0, 0, 1, 1], len(k))
        else:
            child_start[sl] = n
            child_end[sl] = n

    area = np.prod(hi - lo, axis=1)
    released = n_population * area + rng.laplace(scale=1.0 / eps_level, size=n)
    eps = np.full(height + 1, eps_level, dtype=np.float64)
    return FlatPSD(
        lo=_freeze(lo),
        hi=_freeze(hi),
        level=_freeze(level),
        released=_freeze(released),
        has_count=_freeze(np.ones(n, dtype=bool)),
        is_leaf=_freeze(child_end == child_start),
        child_start=_freeze(child_start),
        child_end=_freeze(child_end),
        area=_freeze(area),
        count_epsilons=_freeze(eps),
        level_variance=_freeze(level_variances(eps)),
        height=height,
        fanout=4,
        release={"ols": False, "metadata": {
            "split_rule": "quad", "count_budget": "uniform", "epsilon": epsilon,
            "epsilon_count": epsilon, "epsilon_median": 0.0, "structure_epsilon": 0.0}},
        name=f"synthetic-quad-h{height}",
        domain_lo=_freeze(np.zeros(2)),
        domain_hi=_freeze(np.ones(2)),
        domain_name="unit",
    )


def make_queries(n_queries: int, seed: int = 7) -> np.ndarray:
    """``(Q, 4)`` rows of unit-square query rects (lo1, lo2, hi1, hi2)."""
    rects = random_query_rects(Domain.unit(2), n_queries,
                               rng=np.random.default_rng(seed))
    return np.array([list(r.lo) + list(r.hi) for r in rects], dtype=np.float64)


# ----------------------------------------------------------------------
# Cold start: a fresh subprocess attaches the file
# ----------------------------------------------------------------------
#: Child program: attach the engine cold, report latency + RSS + exact answers.
#: Answers travel as float hex so bitwise comparison survives JSON.
_CHILD = """
import json, sys, time
import numpy as np
from repro.engine import batch_query, load_engine

def rss_kb():
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    return -1

engine_path, queries_path = sys.argv[1], sys.argv[2]
rows = np.load(queries_path)
t0 = time.perf_counter()
engine = load_engine(engine_path)
load_sec = time.perf_counter() - t0
rss_after_load = rss_kb()
t0 = time.perf_counter()
result = batch_query(engine, rows)
first_batch_sec = time.perf_counter() - t0
print(json.dumps({
    "load_sec": load_sec,
    "first_batch_sec": first_batch_sec,
    "rss_kb_after_load": rss_after_load,
    "rss_kb_after_query": rss_kb(),
    "mapped_bytes": engine.mapped_nbytes(),
    "estimates_hex": [float(v).hex() for v in result.estimates],
    "nodes_touched": [int(v) for v in result.nodes_touched],
}))
"""


def _run_cold(engine_path: Path, queries_path: Path) -> Dict[str, object]:
    src_root = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_root) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(engine_path), str(queries_path)],
        capture_output=True, text=True, env=env, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cold-start child failed: {proc.stderr}")
    return json.loads(proc.stdout)


def run_benchmark(
    height: int,
    n_queries: int,
    qps_repetitions: int,
    workdir: str,
    epsilons: Sequence[float] = PRECISION_EPSILONS,
    seed: int = 0,
) -> Dict[str, object]:
    engine = make_complete_quadtree(height, epsilon=0.5, seed=seed)
    rows = make_queries(n_queries, seed=seed + 7)
    work = Path(workdir)
    mmap_path = work / "engine.psdm"
    queries_path = work / "queries.npy"
    np.save(queries_path, rows)

    t0 = time.perf_counter()
    save_engine(engine, mmap_path)
    save_sec = time.perf_counter() - t0

    # --- cold start: a fresh process attaches the file ----------------
    child = _run_cold(mmap_path, queries_path)
    expected = batch_query(engine, rows)
    bitwise = (
        child["estimates_hex"] == [float(v).hex() for v in expected.estimates]
        and child["nodes_touched"] == [int(v) for v in expected.nodes_touched]
    )
    assert bitwise, "answers from the attached file diverge bitwise from the in-memory engine"
    cold = {
        "load_sec": round(child["load_sec"], 6),
        "first_batch_sec": round(child["first_batch_sec"], 6),
        "rss_kb_after_load": child["rss_kb_after_load"],
        "rss_kb_after_query": child["rss_kb_after_query"],
        "mapped_bytes": child["mapped_bytes"],
    }

    # --- warm qps: heap arrays vs mapped arrays -----------------------
    from repro.engine import load_engine

    qps = {}
    for mode, warm in (("heap", engine), ("mmap", load_engine(mmap_path))):
        batch_query(warm, rows)  # page in / warm up
        t0 = time.perf_counter()
        for _ in range(qps_repetitions):
            batch_query(warm, rows)
        elapsed = time.perf_counter() - t0
        qps[mode] = round(n_queries * qps_repetitions / elapsed, 1)

    # --- float32 precision vs the Laplace noise floor -----------------
    precision = []
    for epsilon in epsilons:
        eng64 = make_complete_quadtree(height, epsilon=epsilon, seed=seed)
        eng32 = engine_with_precision(eng64, "float32")
        r64 = batch_query(eng64, rows)
        r32 = batch_query(eng32, rows)
        assert np.array_equal(r64.nodes_touched, r32.nodes_touched), (
            "float32 storage changed the query decomposition"
        )
        added = np.abs(r32.estimates - r64.estimates)
        rel = added / np.maximum(np.abs(r64.estimates), 1.0)
        eps_leaf = epsilon / (height + 1)
        leaf_sd = float(np.sqrt(laplace_variance(eps_leaf)))
        precision.append({
            "epsilon": epsilon,
            "leaf_epsilon": round(eps_leaf, 6),
            "leaf_laplace_sd": round(leaf_sd, 4),
            "max_abs_added_error": float(np.max(added)),
            "max_rel_added_error": float(np.max(rel)),
            "below_noise_floor": bool(np.max(added) < leaf_sd),
            "n_q_identical": True,
        })

    return {
        "height": height,
        "n_nodes": engine.n_nodes,
        "n_queries": n_queries,
        "file_bytes": mmap_path.stat().st_size,
        "save_sec": round(save_sec, 4),
        "cold_start": {**cold, "bitwise_identical": bitwise},
        "warm_qps": qps,
        "precision": precision,
    }


# ----------------------------------------------------------------------
def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI gate: small tree, parity + noise-floor asserts, "
                             "no attach-latency ceiling")
    parser.add_argument("--height", type=int, default=None,
                        help="tree height (default: 10 full = 1,398,101 nodes; "
                             "6 smoke)")
    parser.add_argument("--queries", type=int, default=None,
                        help="query batch size (default: 256 full, 64 smoke)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default=None,
                        help="write the result as JSON (e.g. BENCH_memmap.json)")
    args = parser.parse_args(argv)

    height = args.height if args.height is not None else (6 if args.smoke else 10)
    n_queries = args.queries if args.queries is not None else (64 if args.smoke else 256)
    qps_repetitions = 2 if args.smoke else 5

    with tempfile.TemporaryDirectory(prefix="bench_memmap_") as workdir:
        result = run_benchmark(height=height, n_queries=n_queries,
                               qps_repetitions=qps_repetitions,
                               workdir=workdir, seed=args.seed)
    result["mode"] = "smoke" if args.smoke else "full"
    result["host"] = host_metadata()

    # The attach ceiling applies only to the full-size run; the noise-floor
    # and bitwise contracts are asserted in run_benchmark in every mode.
    attach_sec = result["cold_start"]["load_sec"]
    gate_active = not args.smoke
    result["cold_start"]["gated"] = gate_active
    result["cold_start"]["attach_ceiling_sec"] = ATTACH_CEILING_SEC
    if not gate_active:
        result["cold_start"]["gate_skipped_reason"] = (
            "smoke mode has no attach-latency ceiling")

    print(json.dumps(result, indent=2))
    if args.output:
        write_bench_json(args.output, result)

    failures = []
    if gate_active and attach_sec > ATTACH_CEILING_SEC:
        failures.append(f"cold attach {attach_sec * 1e3:.2f} ms above the "
                        f"{ATTACH_CEILING_SEC * 1e3:.0f} ms ceiling")
    if gate_active and result["n_nodes"] < 10**6:
        failures.append(f"{result['n_nodes']} nodes < 10^6 (gate needs a full-size tree)")
    for row in result["precision"]:
        if not row["below_noise_floor"]:
            failures.append(
                f"float32 added error {row['max_abs_added_error']} exceeds the "
                f"leaf Laplace sd {row['leaf_laplace_sd']} at eps={row['epsilon']}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"OK: bitwise parity across processes; cold attach {attach_sec * 1e3:.2f} ms "
          f"({'gated' if gate_active else 'recorded'}); float32 error below "
          f"the noise floor at eps {tuple(r['epsilon'] for r in result['precision'])}")
    return 0


# ----------------------------------------------------------------------
# pytest-benchmark entry point
# ----------------------------------------------------------------------
def test_memmap_store(benchmark, capsys):
    from conftest import report

    with tempfile.TemporaryDirectory(prefix="bench_memmap_") as workdir:
        result = benchmark.pedantic(
            lambda: run_benchmark(height=7, n_queries=64, qps_repetitions=2,
                                  workdir=workdir, epsilons=(0.5,)),
            rounds=1,
        )
    row = {
        "n_nodes": result["n_nodes"],
        "attach_sec": result["cold_start"]["load_sec"],
        "first_batch_sec": result["cold_start"]["first_batch_sec"],
        "bitwise": result["cold_start"]["bitwise_identical"],
        "f32_max_abs_err": round(result["precision"][0]["max_abs_added_error"], 8),
        "leaf_sd": result["precision"][0]["leaf_laplace_sd"],
    }
    report("bench_memmap", "Zero-copy engine store: cold attach of a FLATPSD2 file",
           [row],
           ["n_nodes", "attach_sec", "first_batch_sec",
            "bitwise", "f32_max_abs_err", "leaf_sd"],
           capsys)
    assert result["cold_start"]["bitwise_identical"]
    assert all(r["below_noise_floor"] for r in result["precision"])


if __name__ == "__main__":
    sys.exit(main())

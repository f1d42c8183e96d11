"""Serving latency under concurrent load, with and without injected faults.

Tracks the ROADMAP's PSD-as-a-service goal: the asyncio HTTP front-end
(:mod:`repro.serve`) must hold its tail latency while the deterministic
fault harness crashes pool workers and poisons tasks underneath it.  The
benchmark stands up a real in-process HTTP server (ephemeral port), drives
it with concurrent ``http.client`` threads, and reports p50/p99/qps for two
scenarios:

* **healthy** — no faults; the baseline tail;
* **faulted** — ``kill-worker`` and ``oom-worker`` schedules firing every
  N-th request; the supervised pool rebuilds and replays underneath the
  same client load.

The engine is a pruned quad-opt tree, answered by the frontier walk, so
every request larger than a chunk crosses the pool.

Three invariants are asserted before anything is timed or written:

* every response in both scenarios is an HTTP status, never a hang or a
  connection reset — and with admission sized for the client count, every
  one is a 200 (worker crashes cost latency, not errors);
* answers through HTTP equal :func:`repro.engine.batch.batch_query` on the
  same rows (float-for-float through the JSON round-trip);
* the budget ledger's durable spend equals ``requests x charge`` exactly.

Runnable three ways:

* ``pytest benchmarks/bench_serving_latency.py`` — one benchmark row via
  the shared ``conftest.report`` table;
* ``python benchmarks/bench_serving_latency.py --output BENCH_serving.json``
  — standalone, full load, host-stamped JSON;
* ``python benchmarks/bench_serving_latency.py --smoke`` — the CI gate:
  small load, same invariants, no latency floor.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from hostmeta import host_metadata, write_bench_json
from repro.core.quadtree import build_private_quadtree
from repro.data import road_intersections
from repro.engine.batch import batch_query, queries_to_arrays
from repro.geometry import TIGER_DOMAIN
from repro.queries.workload import PAPER_QUERY_SHAPES, generate_workload
from repro.serve import (
    BudgetLedger,
    EngineSupervisor,
    QueryService,
    ServiceThread,
    parse_faults,
)

#: ε charged per query — tiny, so the cap never interferes with load.
CHARGE_EPSILON = 1e-9
#: Pruning threshold of the served quadtree.  A pruned tree is answered by the
#: frontier walk, whose batches fan across the pool, so worker faults land on
#: the request path; a complete quadtree is answered in the server by its
#: closed form and would never reach a worker.
PRUNE_THRESHOLD = 32.0


def make_engine(n_points: int, height: int, seed: int = 0):
    gen = np.random.default_rng(seed)
    points = road_intersections(n=n_points, rng=gen)
    psd = build_private_quadtree(points, TIGER_DOMAIN, height=height,
                                 epsilon=0.5, variant="quad-opt",
                                 prune_threshold=PRUNE_THRESHOLD, rng=gen)
    return points, psd.compile()


def make_batches(points, n_requests: int, batch: int, seed: int) -> List[List[List[float]]]:
    """One deterministic query batch per request, drawn from the fig3 workload."""
    workload = generate_workload(points, TIGER_DOMAIN, PAPER_QUERY_SHAPES[1],
                                 n_queries=max(batch * 4, 64),
                                 rng=np.random.default_rng(seed))
    qlo, qhi = queries_to_arrays(workload.queries, TIGER_DOMAIN.dims)
    rows = np.hstack([qlo, qhi])
    batches = []
    for i in range(n_requests):
        start = (i * batch) % max(1, len(rows) - batch)
        batches.append([[float(v) for v in row] for row in rows[start : start + batch]])
    return batches


def _post_query(port: int, body: Dict[str, object], timeout: float = 120.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("POST", "/query", body=json.dumps(body).encode())
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def run_scenario(
    engine,
    batches: Sequence[List[List[float]]],
    n_clients: int,
    workers: int,
    chunk_queries: int,
    faults: Optional[str],
    label: str,
) -> Dict[str, object]:
    """Serve every batch through HTTP under ``n_clients`` concurrent threads."""
    tmp = tempfile.mkdtemp(prefix="bench_serving_")
    supervisor = EngineSupervisor(engine, workers=workers, chunk_queries=chunk_queries)
    ledger = BudgetLedger(os.path.join(tmp, "wal.jsonl"), default_cap=1e9)
    service = QueryService(supervisor, ledger, charge_epsilon=CHARGE_EPSILON,
                           max_inflight=max(64, 4 * n_clients),
                           request_timeout=300.0,
                           faults=parse_faults(faults))
    latencies: List[float] = []
    statuses: Dict[int, int] = {}
    lock = threading.Lock()
    queue = list(enumerate(batches))
    queue.reverse()  # pop() serves them in order

    try:
        with ServiceThread(service) as thread:
            port = thread.address[1]
            # Parity spot check before the clock starts.
            status, body = _post_query(port, {"analyst": "parity",
                                              "queries": batches[0]})
            assert status == 200, (status, body)
            expected = batch_query(engine, np.asarray(batches[0], dtype=np.float64))
            assert body["estimates"] == [float(v) for v in expected.estimates], \
                "HTTP answers diverge from batch_query"

            def client() -> None:
                while True:
                    with lock:
                        if not queue:
                            return
                        _, rows = queue.pop()
                    start = time.perf_counter()
                    status, _ = _post_query(port, {"analyst": "load",
                                                   "queries": rows})
                    elapsed = time.perf_counter() - start
                    with lock:
                        latencies.append(elapsed)
                        statuses[status] = statuses.get(status, 0) + 1

            threads = [threading.Thread(target=client) for _ in range(n_clients)]
            wall = time.perf_counter()
            for worker in threads:
                worker.start()
            for worker in threads:
                worker.join()
            wall = time.perf_counter() - wall
            fault_stats = dict(service.faults.stats())
            server_stats = supervisor.stats()["server"]
    finally:
        supervisor.close()
        ledger.close()

    non_http = len(batches) - sum(statuses.values())
    if non_http:
        raise AssertionError(f"{label}: {non_http} requests got no HTTP response")
    bad = {code: n for code, n in statuses.items() if code not in (200, 429, 503)}
    if bad:
        raise AssertionError(f"{label}: unexpected statuses {bad}")
    if statuses.get(200, 0) != len(batches):
        raise AssertionError(f"{label}: non-200 under sized admission: {statuses}")
    expected_spend = statuses[200] * CHARGE_EPSILON * len(batches[0])
    spend = BudgetLedger(os.path.join(tmp, "wal.jsonl"), default_cap=1e9).spend("load")
    if abs(spend - expected_spend) > 1e-6 * expected_spend:
        raise AssertionError(f"{label}: ledger spend {spend} != {expected_spend}")

    ordered = np.sort(np.asarray(latencies))
    return {
        "label": label,
        "faults": faults or "none",
        "requests": len(batches),
        "clients": n_clients,
        "statuses": {str(code): n for code, n in sorted(statuses.items())},
        "p50_ms": round(float(np.percentile(ordered, 50)) * 1e3, 3),
        "p99_ms": round(float(np.percentile(ordered, 99)) * 1e3, 3),
        "max_ms": round(float(ordered[-1]) * 1e3, 3),
        "qps": round(len(batches) / wall, 1) if wall > 0 else float("inf"),
        "pool_rebuilds": server_stats["pool_rebuilds"],
        "inproc_fallbacks": server_stats["inproc_fallbacks"],
        "faults_fired": fault_stats,
        "ledger_spend_exact": True,
    }


def run_benchmark(n_points: int, height: int, n_requests: int, batch: int,
                  n_clients: int, workers: int, chunk_queries: int,
                  fault_spec: str, seed: int = 0) -> Dict[str, object]:
    points, engine = make_engine(n_points, height, seed)
    batches = make_batches(points, n_requests, batch, seed)
    healthy = run_scenario(engine, batches, n_clients, workers, chunk_queries,
                           faults=None, label="healthy")
    faulted = run_scenario(engine, batches, n_clients, workers, chunk_queries,
                           faults=fault_spec, label="faulted")
    slowdown = (faulted["p99_ms"] / healthy["p99_ms"]
                if healthy["p99_ms"] > 0 else float("inf"))
    return {
        "n_points": n_points,
        "height": height,
        "prune_threshold": PRUNE_THRESHOLD,
        "requests": n_requests,
        "batch_queries": batch,
        "clients": n_clients,
        "workers": workers,
        "chunk_queries": chunk_queries,
        "fault_spec": fault_spec,
        "healthy": healthy,
        "faulted": faulted,
        "p99_fault_slowdown": round(slowdown, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--smoke", action="store_true",
                        help="CI gate: small load, same invariants, no latency floor")
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--batch", type=int, default=None,
                        help="queries per request body")
    parser.add_argument("--clients", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default=None,
                        help="write the result as JSON (e.g. BENCH_serving.json)")
    args = parser.parse_args(argv)

    if args.smoke:
        defaults = dict(n_points=4_000, height=5, requests=60, batch=32,
                        clients=4, chunk_queries=16, fault_spec="kill-worker:20,oom-worker:25")
    else:
        defaults = dict(n_points=40_000, height=7, requests=400, batch=64,
                        clients=8, chunk_queries=32, fault_spec="kill-worker:50,oom-worker:70")
    cores = os.cpu_count() or 1
    workers = args.workers if args.workers is not None else min(4, max(2, cores))

    result = run_benchmark(
        n_points=defaults["n_points"], height=defaults["height"],
        n_requests=args.requests or defaults["requests"],
        batch=args.batch or defaults["batch"],
        n_clients=args.clients or defaults["clients"],
        workers=workers, chunk_queries=defaults["chunk_queries"],
        fault_spec=defaults["fault_spec"], seed=args.seed)
    result["mode"] = "smoke" if args.smoke else "full"
    result["host"] = host_metadata()

    print(json.dumps(result, indent=2))
    if args.output:
        write_bench_json(args.output, result)

    rebuilds = result["faulted"]["pool_rebuilds"] + result["faulted"]["inproc_fallbacks"]
    if result["faulted"]["faults_fired"].get("kill-worker", 0) > 0 and rebuilds == 0:
        print("FAIL: kill-worker faults fired but no rebuild/fallback was observed",
              file=sys.stderr)
        return 1
    print(f"OK: {result['requests']} requests x{result['clients']} clients all 200 "
          f"in both scenarios; healthy p99 {result['healthy']['p99_ms']}ms, "
          f"faulted p99 {result['faulted']['p99_ms']}ms "
          f"({result['p99_fault_slowdown']}x) with "
          f"{result['faulted']['pool_rebuilds']} pool rebuilds")
    return 0


# ----------------------------------------------------------------------
# pytest-benchmark entry point
# ----------------------------------------------------------------------
def test_serving_latency(benchmark, capsys):
    from conftest import report

    result = benchmark.pedantic(
        lambda: run_benchmark(n_points=4_000, height=5, n_requests=40, batch=16,
                              n_clients=3, workers=2, chunk_queries=8,
                              fault_spec="kill-worker:15"),
        rounds=1,
    )
    rows = [
        {"scenario": section["label"], "p50_ms": section["p50_ms"],
         "p99_ms": section["p99_ms"], "qps": section["qps"],
         "rebuilds": section["pool_rebuilds"],
         "fallbacks": section["inproc_fallbacks"]}
        for section in (result["healthy"], result["faulted"])
    ]
    report("bench_serving", "HTTP serving latency, healthy vs faulted",
           rows, ["scenario", "p50_ms", "p99_ms", "qps", "rebuilds", "fallbacks"],
           capsys)
    assert result["healthy"]["ledger_spend_exact"]
    assert result["faulted"]["ledger_spend_exact"]


if __name__ == "__main__":
    sys.exit(main())

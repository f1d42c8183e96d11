"""Publish → compile → serve: the life-cycle of a PSD as a query service.

A private spatial decomposition is built *once* by the data owner and then
queried *many* times by consumers.  This example walks the full serving
pipeline the :mod:`repro.engine` subsystem enables:

1. **publish** — build a private quadtree over location data and write the
   released JSON (only noisy/post-processed information leaves the owner);
2. **compile** — load the release as a consumer would and compile it into the
   flat structure-of-arrays engine, persisted as a FLATPSD2 file so query
   servers can boot straight into serving form;
3. **serve** — answer a 2 000-query workload two ways and time them, one
   engine call per query and the vectorised batch engine, then replay a
   skewed (hot-spot) traffic pattern through the same batch engine: a
   repeated rect is recomputed, bitwise equal, since an answer is
   post-processing of the released counts;
4. **zero-copy serving** — attach the FLATPSD2 file with ``np.memmap``
   (its answers are bitwise identical to the compiled engine's); then
   publish a *pruned* release of the same points, which the frontier walk
   answers (a complete quadtree is answered in the caller by its closed
   form and needs no pool), fan a batch of it across a two-worker
   :class:`~repro.parallel.ShardedQueryServer` whose workers re-map its
   file, and report mapped-bytes / RSS from the observability registry;
5. **fault-tolerant serving** — front the mapped pruned engine with the
   :mod:`repro.serve` HTTP service: a budget-capped analyst is refused with
   429 once its ε is spent, a deterministic kill-worker schedule crashes
   pool workers under live traffic, and the engine is hot-swapped to a
   float32 memory-map mid-stream — zero requests dropped, and reopening the
   write-ahead ledger replays the spend bit-for-bit.

Run with::

    python examples/serve_flat_engine.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from repro import TIGER_DOMAIN, build_private_quadtree, road_intersections
from repro.core import load_psd, save_psd
from repro.engine import batch_range_query, load_engine, save_engine
from repro.obs import enable_metrics, gauge_set, metrics_payload
from repro.queries import random_query_rects


def _rss_kb() -> int:
    """This process's resident set, in KiB (Linux; -1 elsewhere)."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return -1


def main() -> None:
    rng = np.random.default_rng(3)
    workdir = Path(tempfile.mkdtemp(prefix="psd-serve-"))

    # --- 1. publish --------------------------------------------------------
    points = road_intersections(n=80_000, rng=rng)
    psd = build_private_quadtree(points, TIGER_DOMAIN, height=7, epsilon=0.5,
                                 variant="quad-opt", rng=rng)
    psd.strip_private_fields()
    release_path = workdir / "release.json"
    save_psd(psd, str(release_path))
    print(f"published {psd.name}: {psd.node_count():,} nodes -> {release_path}")

    # --- 2. compile (consumer side: only the release is available) --------
    consumer_psd = load_psd(str(release_path))
    start = time.perf_counter()
    engine = consumer_psd.compile()
    compile_sec = time.perf_counter() - start
    engine_path = workdir / "engine.psdm"
    save_engine(engine, engine_path)
    print(f"compiled in {compile_sec * 1e3:.1f} ms, "
          f"{engine.nbytes() / 1024:.0f} KiB of arrays -> {engine_path}")

    # --- 3. serve ----------------------------------------------------------
    queries = random_query_rects(TIGER_DOMAIN, 2_000, rng=rng, min_frac=0.02, max_frac=0.22)

    start = time.perf_counter()
    reference = np.array([consumer_psd.range_query(q) for q in queries])
    single_sec = time.perf_counter() - start

    start = time.perf_counter()
    batch = batch_range_query(engine, queries)
    batch_sec = time.perf_counter() - start
    assert np.allclose(batch, reference)

    # Skewed traffic: 90% of requests replay 5% of distinct queries.  No
    # cache: every repeat is answered afresh, to the same bits.
    n_hot = max(1, len(queries) // 20)
    picks = [int(rng.integers(n_hot)) if rng.random() < 0.9
             else int(rng.integers(len(queries))) for _ in range(10_000)]
    start = time.perf_counter()
    replayed = batch_range_query(engine, [queries[i] for i in picks])
    skewed_sec = time.perf_counter() - start
    assert np.array_equal(replayed, batch[picks])

    print(f"\nserving {len(queries):,} distinct queries:")
    print(f"  one per call   : {len(queries) / single_sec:10,.0f} q/s")
    print(f"  flat batch     : {len(queries) / batch_sec:10,.0f} q/s "
          f"({single_sec / batch_sec:.1f}x)")
    print(f"\nskewed traffic, {len(picks):,} requests ({len(set(picks)):,} distinct), "
          f"recomputed:")
    print(f"  flat batch     : {len(picks) / skewed_sec:10,.0f} q/s, "
          f"repeats bitwise equal to their first answer")

    # --- 4. zero-copy serving: attach the FLATPSD2 file -------------------
    from repro.parallel import ShardedQueryServer

    registry = enable_metrics()  # the loader records engine.bytes_mapped
    start = time.perf_counter()
    mapped = load_engine(engine_path)
    attach_sec = time.perf_counter() - start

    sample = queries[:200]
    assert np.array_equal(batch_range_query(engine, sample),
                          batch_range_query(mapped, sample)), "parity broken"

    # The pool pays for the frontier walk only: serve a pruned release of
    # the same points, whose batches fan out in chunks.
    pruned = build_private_quadtree(points, TIGER_DOMAIN, height=7, epsilon=0.5,
                                    variant="quad-opt", prune_threshold=32, rng=rng).compile()
    pruned_path = workdir / "engine_pruned.psdm"
    save_engine(pruned, pruned_path)
    pruned_mapped = load_engine(pruned_path)
    with ShardedQueryServer(pruned_mapped, workers=2, chunk_queries=64) as sharded:
        fanned = sharded.batch_range_query(queries)
        serve_stats = sharded.stats()
    assert np.array_equal(fanned, batch_range_query(pruned, queries))
    assert serve_stats["sharded_batches"] == 1, serve_stats

    gauge_set("example.rss_kb", _rss_kb())
    gauges = {g["name"]: g["value"] for g in metrics_payload(registry)["gauges"]}
    print(f"\nzero-copy serving (FLATPSD2, {engine_path.name}):")
    print(f"  mmap attach    : {attach_sec * 1e3:8.2f} ms "
          f"(answers bitwise equal to the compiled engine)")
    print(f"  sharded serve  : {serve_stats['workers']} workers re-map the pruned engine "
          f"({pruned.n_nodes:,} nodes) in {serve_stats['chunks']} chunks — "
          f"{serve_stats['engine_mapped_bytes']:,} engine bytes mapped")
    print(f"  obs registry   : engine.bytes_mapped={gauges.get('engine.bytes_mapped', 0):,.0f}, "
          f"example.rss_kb={gauges.get('example.rss_kb', -1):,.0f}")

    # --- 5. fault-tolerant serving: budget, faults, and a live hot swap ----
    import http.client
    import json
    import threading

    from repro.serve import BudgetLedger, EngineSupervisor, QueryService, ServiceThread, parse_faults

    float32_path = workdir / "engine_pruned_f32.psdm"
    save_engine(pruned, float32_path, precision="float32")

    def post(port: int, path: str, body: dict):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            conn.request("POST", path, body=json.dumps(body).encode())
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def get_json(port: int, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    # Batches bigger than one chunk, so every request fans across the pool
    # (a batch that fits one chunk is served in-process and would never
    # notice a dead worker).
    rows = [[float(v) for v in list(q.lo) + list(q.hi)] for q in queries[:16]]
    ledger_path = workdir / "budget.jsonl"
    supervisor = EngineSupervisor(pruned_mapped, workers=2, chunk_queries=4)
    ledger = BudgetLedger(str(ledger_path), default_cap=0.5)
    # Every 5th admitted request deterministically crashes a pool worker:
    # the supervised pool rebuilds and replays, the caller only sees latency.
    service = QueryService(supervisor, ledger, faults=parse_faults("kill-worker:5"))

    hammer_stop = threading.Event()
    hammer: dict = {"statuses": [], "generations": set()}

    def hammer_loop(port: int) -> None:
        # A well-behaved reader: tiny ε per request, never near the cap.
        while not hammer_stop.is_set():
            status, body = post(port, "/query",
                                {"analyst": "reader", "queries": rows, "epsilon": 1e-6})
            hammer["statuses"].append(status)
            if status == 200:
                hammer["generations"].add(body["generation"])

    try:
        with ServiceThread(service) as thread:
            port = thread.address[1]
            reader = threading.Thread(target=hammer_loop, args=(port,))
            reader.start()

            # A greedy analyst burns through its ε cap and is refused: 429,
            # charge-before-answer, nothing released past the budget.
            refusal = None
            for _ in range(4):
                status, body = post(port, "/query",
                                    {"analyst": "greedy", "queries": rows, "epsilon": 0.2})
                if status == 429:
                    refusal = body
                    break
            assert refusal is not None, "budget cap was never enforced"

            # Wait until a kill drill has fired *and* the reader's traffic has
            # forced the pool to rebuild (the rebuild is lazy: it happens when
            # the next batch hits the broken pool).  Snapshot /stats before
            # the swap — the post-swap generation starts with fresh counters.
            deadline = time.monotonic() + 30.0
            while True:
                stats = get_json(port, "/stats")
                server = stats["supervisor"]["server"]
                if (stats["faults"].get("kill-worker", 0) >= 1
                        and server["pool_rebuilds"] + server["inproc_fallbacks"] >= 1):
                    break
                assert time.monotonic() < deadline, "kill-worker drill never forced a rebuild"
                time.sleep(0.05)

            # Hot swap to the float32 memory-map while the reader hammers on:
            # in-flight queries drain on generation 1, new ones pin generation 2.
            status, swap = post(port, "/admin/swap", {"path": str(float32_path)})
            assert status == 200, swap
            deadline = time.monotonic() + 30.0
            while swap["generation"] not in hammer["generations"]:
                assert time.monotonic() < deadline, "no request landed on the new generation"
                time.sleep(0.05)
            hammer_stop.set()
            reader.join()
    finally:
        hammer_stop.set()
        supervisor.close()
        greedy_hex = ledger.spend_hex("greedy")
        ledger.close()

    replayed = BudgetLedger(str(ledger_path), default_cap=0.5)
    assert replayed.spend_hex("greedy") == greedy_hex, "WAL replay drifted"
    replayed.close()

    dropped = [code for code in hammer["statuses"] if code != 200]
    assert not dropped, f"dropped {len(dropped)} requests during faults/swap"
    print(f"\nfault-tolerant serving ({len(hammer['statuses'])} reader requests, "
          f"cap {ledger.default_cap} eps):")
    print(f"  budget refusal : 'greedy' got 429 after spending "
          f"{0.5 - refusal['remaining']:.1f} eps ({refusal['remaining']:.1f} left of 0.5)")
    print(f"  fault drills   : {stats['faults']} fired -> "
          f"{stats['supervisor']['server']['pool_rebuilds']} pool rebuilds, zero dropped requests")
    print(f"  hot swap       : generation {swap['generation']} serves {float32_path.name} "
          f"(float32); reader saw generations {sorted(hammer['generations'])}")
    print(f"  WAL replay     : reopened ledger reproduces 'greedy' spend bitwise ({greedy_hex})")


if __name__ == "__main__":
    main()

"""The repo benchmark: seeded workloads through the program's public entry points.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-bulk --seed 1 --seconds 30 --trace 0

Workloads (``perfbench/README.md`` says why each exists; ``BENCHMARK.json``
lists ``serve-bulk`` and ``sweep-kd``, ``serve-point`` is run by hand):

* ``serve-bulk`` and ``serve-point`` publish a quad-opt FLATPSD2 engine, start
  ``repro serve --workers 2`` on it, then drive it from this process: an open
  loop of Poisson arrivals at a fixed offered rate, then a saturation phase of
  two closed-loop connections over a fixed request list;
* ``sweep-kd`` runs the Figure-5 kd-tree grid through ``run_sweep`` with
  ``workers=2`` and a checkpoint journal, in its own process.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the workload
untraced, then again with spans on, and prints every per-layer metric plus the
span coverage and the traced-minus-untraced difference of each end-to-end
metric.  Every run checks the program's outputs; the last stdout line is the
JSON result, and a failed check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"

#: Every pool runs exactly this many workers, whatever the host's core count.
WORKERS = 2
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Share of ``--seconds`` given to the open loop; the saturation list fills the rest.
OPEN_SHARE = 0.7
#: Seed of the arrival schedule and request sizes, the same for every ``--seed``.
#: Over a few dozen bulk requests, schedules drawn per seed move the open-loop
#: median by ~10% and the tail by 15-25% between seeds (pure queueing, before
#: any host noise); one shared schedule leaves that spread to the system.
#: ``--seed`` still picks the points, the rects, the release noise and so the
#: work each request does.
SCHEDULE_SEED = 20120401
ANALYSTS = 4
BUDGET_CAP = "1e12"  # high enough that no request is refused
PUBLISH_EPSILON = 0.5
#: Tolerance of served estimates and variances against batch_query: relative,
#: and absolute for values below 1 in magnitude.
CHECK_RTOL = 1e-9


@dataclass(frozen=True)
class ServeWorkload:
    points: int
    height: int
    chunk: int
    rows: Tuple[int, int]
    #: Open-loop offered load in queries/s, fixed at a little under half of the
    #: parent's throughput_qps.
    offered_qps: float
    #: The parent's throughput_qps; sizes the saturation request list.
    saturation_qps: float
    #: Rows of each warm-up request, sent one at a time during set-up.  Bulk
    #: warm-ups exceed the chunk, so the first starts the pool; until ~6,000
    #: queries have run, bulk latencies read up to twice their settled value.
    warmup_rows: Tuple[int, ...]
    #: Responses re-evaluated in-process by batch_query in the correctness check.
    check_requests: int


SERVE = {
    "serve-point": ServeWorkload(points=200_000, height=8, chunk=1024, rows=(1, 4),
                                 offered_qps=335.0, saturation_qps=740.0,
                                 warmup_rows=(1, 2, 3, 4), check_requests=64),
    "serve-bulk": ServeWorkload(points=1_000_000, height=10, chunk=256, rows=(256, 1024),
                                offered_qps=1000.0, saturation_qps=2300.0,
                                warmup_rows=(512,) * 12, check_requests=3),
}
SWEEP_POINTS = 60_000
SWEEP_REPETITIONS = 1
KD_VARIANTS = ("kd-pure", "kd-true", "kd-standard", "kd-hybrid", "kd-cell", "kd-noisymean")

E2E = [
    ("setup_s", "s"), ("latency_p50_ms", "ms"), ("throughput_qps", "queries/s"),
    ("sweep_s", "s"), ("success_share", "ratio"), ("peak_rss_mb", "MiB"),
]

PER_LAYER = [
    ("loadgen.lateness_p50_ms", "ms"), ("loadgen.lateness_max_ms", "ms"),
    ("loadgen.requests", "count"), ("loadgen.queries", "count"),
    ("serve.http.self_ms_p50", "ms"), ("serve.http.requests", "count"),
    ("serve.http.status.200", "count"), ("serve.http.status.429", "count"),
    ("serve.http.status.503", "count"), ("serve.http.status.other", "count"),
    ("serve.http.transport_errors", "count"), ("serve.http.request_bytes", "bytes"),
    ("serve.http.response_bytes", "bytes"), ("serve.http.connections_per_request", "ratio"),
    ("serve.ledger.charges", "count"), ("serve.ledger.charge_ms_p50", "ms"),
    ("serve.ledger.busy_s", "s"), ("serve.ledger.wal_bytes", "bytes"),
    ("serve.ledger.answered_per_charge", "queries"),
    ("serve.supervisor.evaluate_ms_p50", "ms"), ("serve.supervisor.busy_s", "s"),
    ("serve.supervisor.lock_wait_ms_p50", "ms"),
    ("parallel.serve.batch_ms_p50", "ms"), ("parallel.serve.sharded_batches", "count"),
    ("parallel.serve.chunks", "count"), ("parallel.serve.pool_rebuilds", "count"),
    ("parallel.serve.inproc_fallbacks", "count"), ("parallel.serve.pool_start_s", "s"),
    ("engine.batch.us_per_query", "us"), ("engine.batch.nodes_touched_mean", "nodes"),
    ("core.build_s", "s"), ("engine.compile_s", "s"), ("engine.store.save_s", "s"),
    ("engine.store.file_bytes", "bytes"), ("engine.store.attach_s", "s"),
    ("serve.start_s", "s"), ("queries.workload_s", "s"),
    *[(f"sweep.build_s.{v}", "s") for v in KD_VARIANTS],
    *[(f"sweep.evaluate_s.{v}", "s") for v in KD_VARIANTS],
    ("parallel.sweep.cases", "count"), ("parallel.sweep.releases", "count"),
    ("parallel.sweep.critical_path_s", "s"), ("parallel.sweep.worker_busy_share", "ratio"),
    ("parallel.checkpoint.records", "count"), ("parallel.checkpoint.record_ms_p50", "ms"),
    ("parallel.checkpoint.bytes", "bytes"), ("parallel.checkpoint.replay_s", "s"),
    ("rss_mb.server", "MiB"), ("rss_mb.pool_worker_max", "MiB"), ("rss_mb.sweep", "MiB"),
    ("latency.tail_ms", "ms"), ("latency.tail_percentile", "pct"), ("latency.samples", "count"),
    ("trace.coverage", "ratio"),
    *[(f"trace.overhead.{name}", unit) for name, unit in E2E],
]


@dataclass
class Result:
    e2e: Dict[str, float]
    layers: Dict[str, float]
    attempted: int
    failed: int
    errors: List[str]
    notes: List[str]


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class RssPoller:
    """Peak resident memory of a process tree, from ``/proc`` every 100 ms.

    ``VmHWM`` is each process's own high-water mark; the tree's peak is the
    largest sum over processes alive at one poll.
    """

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.peak_total = self.peak_root = self.peak_child = 0.0
        self.most_children = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    @staticmethod
    def _children(pid: int) -> List[int]:
        out: List[int] = []
        try:
            for tid in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{tid}/children") as handle:
                    out.extend(int(c) for c in handle.read().split())
        except OSError:
            pass
        return out

    @staticmethod
    def _hwm_mib(pid: int) -> float:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0

    def sample(self) -> None:
        root = self._hwm_mib(self.pid)
        pending, children = self._children(self.pid), []
        while pending:
            pid = pending.pop()
            children.append(self._hwm_mib(pid))
            pending.extend(self._children(pid))
        self.peak_root = max(self.peak_root, root)
        self.peak_child = max([self.peak_child, *children])
        self.most_children = max(self.most_children, len(children))
        self.peak_total = max(self.peak_total, root + sum(children))

    def _loop(self) -> None:
        while not self._stop.wait(0.1):
            self.sample()

    def stop(self) -> None:
        self.sample()
        self._stop.set()
        self._thread.join()

    def note(self) -> str:
        return (f"peak RSS {self.peak_total:.1f} MiB: parent {self.peak_root:.1f}, largest child "
                f"{self.peak_child:.1f}, at most {self.most_children} children at once")


def stop_process(proc: subprocess.Popen, timeout: float = 30.0) -> None:
    """SIGTERM, wait, then SIGKILL the whole session (pool workers included)."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def publish(points_path: Path, cfg: ServeWorkload, seed: int, out: Path) -> Dict[str, float]:
    done = subprocess.run(
        [sys.executable, str(HERE / "publish.py"), str(points_path), str(cfg.height),
         str(PUBLISH_EPSILON), str(seed), str(out)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"publish failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class Server:
    """``repro serve`` in its own session; ready once its banner names the port."""

    def __init__(self, engine: Path, wal: Path, cfg: ServeWorkload, spans: Optional[Path],
                 log: Path, procs: List[subprocess.Popen]) -> None:
        argv = ["serve", str(engine), "--ledger", str(wal), "--workers", str(WORKERS),
                "--chunk-queries", str(cfg.chunk), "--budget-cap", BUDGET_CAP]
        if spans is None:
            cmd = [sys.executable, "-m", "repro.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"), str(spans), *argv]
        t0 = time.monotonic()
        with open(log, "wb") as err:
            self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                                         stderr=err, start_new_session=True)
        procs.append(self.proc)
        ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
        banner = self.proc.stdout.readline().decode() if ready else ""
        match = re.search(r"http://([0-9.]+):(\d+)", banner)
        if match is None:
            stop_process(self.proc)
            raise RuntimeError(f"server did not come up:\n{log.read_text()[-2000:]}")
        self.address = (match.group(1), int(match.group(2)))
        self.start_s = time.monotonic() - t0

    def stop(self) -> None:
        stop_process(self.proc)


# ----------------------------------------------------------------------
# Serve workloads
# ----------------------------------------------------------------------
def run_serve(name: str, seed: int, seconds: float, traced: bool, work: Path,
              procs: List[subprocess.Popen]) -> Result:
    import numpy as np

    import loadgen
    import stats
    from repro.data import road_intersections

    cfg = SERVE[name]
    mean_rows = (cfg.rows[0] + cfg.rows[1]) / 2.0
    # Inputs first, before any clock: points, sizes, schedule, rects, request bytes.
    points_path = work / "points.npy"
    np.save(points_path, road_intersections(n=cfg.points, rng=np.random.default_rng([seed, 10])))
    rng = np.random.default_rng([SCHEDULE_SEED, cfg.points])
    n_open = max(1, round(cfg.offered_qps / mean_rows * OPEN_SHARE * seconds))
    n_sat = max(1, round(cfg.saturation_qps / mean_rows * (1 - OPEN_SHARE) * seconds))
    sizes = np.concatenate([np.asarray(cfg.warmup_rows * SETUPS, dtype=np.int64),
                            loadgen.stratified_sizes(rng, n_open, *cfg.rows),
                            loadgen.stratified_sizes(rng, n_sat, *cfg.rows)])
    offsets = loadgen.poisson_offsets(rng, n_open, cfg.offered_qps / mean_rows)
    rects = loadgen.random_rects(np.random.default_rng([seed, 12]), int(sizes.sum()))
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    rows = [rects[bounds[i]:bounds[i + 1]] for i in range(len(sizes))]
    analysts = [f"analyst-{i % ANALYSTS}" for i in range(len(sizes))]
    requests = [loadgen.encode_query(analysts[i], rows[i]) for i in range(len(sizes))]
    n_warm = len(cfg.warmup_rows)
    open_ids = range(n_warm * SETUPS, n_warm * SETUPS + n_open)
    sat_ids = range(open_ids.stop, open_ids.stop + n_sat)

    # Set-up, several times: publish, start the server until ready, warm up.
    setup_s, publishes, starts, server = [], [], [], None
    warm_outcomes: List[Tuple[int, bytes]] = []
    for k in range(SETUPS):
        if server is not None:
            server.stop()
            for stale in (work / f"engine-{k - 1}.psdm", work / f"wal-{k - 1}.jsonl"):
                stale.unlink()
        t0 = time.monotonic()
        publishes.append(publish(points_path, cfg, seed, work / f"engine-{k}.psdm"))
        server = Server(work / f"engine-{k}.psdm", work / f"wal-{k}.jsonl", cfg,
                        work / f"server-spans-{k}.jsonl" if traced else None,
                        work / f"server-{k}.log", procs)
        warm_outcomes = []
        for i in range(k * n_warm, (k + 1) * n_warm):
            client = loadgen.HttpClient(server.address)
            try:
                status, body = client.exchange(requests[i])
            finally:
                client.close()
            if status != 200:
                raise RuntimeError(f"warm-up request answered {status}: {body[:200]!r}")
            warm_outcomes.append((i, body))
        setup_s.append(time.monotonic() - t0)
        starts.append(server.start_s)

    clients: List[loadgen.HttpClient] = []

    def new_sender():
        client = loadgen.HttpClient(server.address)
        clients.append(client)
        return client.exchange

    poller = RssPoller(server.proc.pid)
    try:
        open_out = loadgen.open_loop(new_sender, [requests[i] for i in open_ids],
                                     [int(sizes[i]) for i in open_ids],
                                     [float(x) for x in offsets], senders=2)
        planned = n_sat * mean_rows / cfg.saturation_qps
        sat_out, sat_t0, sat_t1 = loadgen.closed_loop(
            new_sender, [requests[i] for i in sat_ids], [int(sizes[i]) for i in sat_ids],
            connections=2, deadline=time.monotonic() + 4 * planned + 10)
        server_stats = loadgen.get_json(server.address, "/stats")
    finally:
        poller.stop()
        for client in clients:
            client.close()
        server.stop()

    measured = [(i, o) for i, o in zip(open_ids, open_out)]
    measured += [(i, o) for i, o in zip(sat_ids, sat_out) if o is not None]
    outcomes = [o for _, o in measured]
    errors: List[str] = []

    # Correctness 1: every answer has one estimate per row; ids are unique.
    answers: Dict[int, dict] = {}
    for i, o in measured:
        if o.ok:
            answers[i] = json.loads(o.body)
    for i, body in warm_outcomes:
        answers[i] = json.loads(body)
    for i, answer in answers.items():
        if len(answer["estimates"]) != sizes[i] or answer["analyst"] != analysts[i]:
            errors.append(f"request {i}: answer does not match its {sizes[i]} rows")
            break
    request_id = {i: int(a["request"]) for i, a in answers.items()}
    if len(set(request_id.values())) != len(request_id):
        errors.append("the server returned a request id twice")

    # Correctness 2: a seeded sample of answers against batch_query in-process.
    from repro.engine.batch import batch_query
    from repro.engine.io import load_engine

    engine = load_engine(work / f"engine-{SETUPS - 1}.psdm")
    ok_ids = sorted(i for i, o in measured if o.ok)
    sample = np.random.default_rng([seed, 13]).choice(
        ok_ids, size=min(cfg.check_requests, len(ok_ids)), replace=False)
    eval_s, eval_queries, touched = 0.0, 0, []
    for i in sorted(int(x) for x in sample):
        t0 = time.monotonic()
        expected = batch_query(engine, rows[i], chunk_queries=cfg.chunk)
        eval_s += time.monotonic() - t0
        eval_queries += len(rows[i])
        touched.extend(expected.nodes_touched.tolist())
        got = answers[i]
        if not np.array_equal(np.asarray(got["nodes_touched"]), expected.nodes_touched):
            errors.append(f"request {i}: nodes_touched differs from batch_query")
        for field, want in (("estimates", expected.estimates), ("variances", expected.variances)):
            have = np.asarray(got[field], dtype=np.float64)
            if not np.all(np.abs(have - want) <= CHECK_RTOL * np.maximum(np.abs(want), 1.0)):
                errors.append(f"request {i}: {field} differ from batch_query beyond 1e-9")
    del engine

    # Correctness 3: the WAL replays to exactly the charges the 200s imply.
    from repro.serve.ledger import BudgetLedger

    wal = work / f"wal-{SETUPS - 1}.jsonl"
    final_ids = [i for i, _ in warm_outcomes] + ok_ids
    implied = {(request_id[i], analysts[i], float(answers[i]["epsilon_charged"]).hex())
               for i in final_ids}
    with open(wal, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    journaled = {(r["request"], r["analyst"], r["epsilon_hex"]) for r in records
                 if r["kind"] == "charge"}
    n_failed = sum(1 for o in outcomes if not o.ok)
    if not implied <= journaled or len(journaled) - len(implied) > n_failed:
        errors.append(f"WAL charges ({len(journaled)}) do not match the {len(implied)} answers")
    with BudgetLedger(wal, default_cap=float(BUDGET_CAP)) as ledger:
        accounts = ledger.accounts()
    for analyst in sorted(set(analysts)):
        charged = [float(answers[i]["epsilon_charged"]) for i in final_ids if analysts[i] == analyst]
        account = accounts.get(analyst, {"charges": 0, "spent": 0.0})
        spent, want = float(account["spent"]), math.fsum(charged)
        if n_failed == 0 and (account["charges"] != len(charged)
                              or abs(spent - want) > CHECK_RTOL * want):
            errors.append(f"WAL replay for {analyst}: {account['charges']} charges spending "
                          f"{spent!r}, answers imply {len(charged)} spending {want!r}")

    # End-to-end metrics.  A failure ranks above every latency; reported, it
    # reads as the client timeout so the result stays finite.
    latencies = stats.due_latencies(open_out)
    tail, tail_pct, tail_n = stats.tail_percentile(latencies)
    tail = min(tail, loadgen.CLIENT_TIMEOUT)
    sat_ok = [o for o in sat_out if o is not None and o.ok]
    sat_wall = sat_t1 - sat_t0
    e2e = {
        "setup_s": stats.median(setup_s),
        "latency_p50_ms": 1000 * min(stats.median(latencies), loadgen.CLIENT_TIMEOUT),
        "throughput_qps": sum(o.queries for o in sat_ok) / sat_wall,
        "sweep_s": sat_wall,
        "success_share": 1.0 - stats.failed_share(outcomes),
        "peak_rss_mb": poller.peak_total,
    }
    notes = [f"latency tail {1000 * tail:.1f} ms: p{tail_pct:.2f} of {tail_n} open-loop requests",
             f"failed_share {stats.failed_share(outcomes):.6f} "
             f"({n_failed} of {len(outcomes)} requests)",
             f"offered {cfg.offered_qps:g} queries/s open loop ({n_open} requests), "
             f"then {n_sat} requests over 2 closed-loop connections",
             f"checked {len(sample)} answers against batch_query and "
             f"{len(journaled)} WAL charges", poller.note()]

    layers: Dict[str, float] = {}
    if traced:
        request_bytes = stats.median(len(requests[i]) for i, _ in measured)
        layers = serve_layers(cfg, measured, open_out, request_id, server_stats, publishes, starts,
                              poller, work, wal, eval_s, eval_queries, touched, clients,
                              request_bytes)
    layers.update({"latency.tail_ms": 1000 * tail, "latency.tail_percentile": tail_pct,
                   "latency.samples": tail_n})
    return Result(e2e, layers, len(outcomes), n_failed, errors, notes)


def serve_layers(cfg, measured, open_out, request_id, server_stats, publishes, starts, poller,
                 work, wal, eval_s, eval_queries, touched, clients,
                 request_bytes) -> Dict[str, float]:
    import stats
    from spans import load_spans

    med = stats.median
    per_server = [load_spans([work / f"server-spans-{k}.jsonl"]) for k in range(SETUPS)]
    attach = [s.duration for spans in per_server for s in spans
              if s.name == "engine.store.attach"]
    # Each set-up's first warm-up batch starts the pool and its second reuses it.
    pool_start = []
    if min(cfg.warmup_rows) > cfg.chunk:
        for spans in per_server:
            warm = {s.key: s.duration for s in spans if s.name == "parallel.serve.batch_query"}
            pool_start.append(warm["1"] - warm["2"])
    spans = per_server[-1]
    by_name: Dict[str, Dict[str, stats.Span]] = {}
    for span in spans:
        if span.key is not None:
            by_name.setdefault(span.name, {})[span.key] = span
    charge = by_name.get("serve.ledger.charge", {})
    evaluate = by_name.get("serve.supervisor.evaluate", {})
    batches = [s for s in spans if s.name == "parallel.serve.batch_query"]
    kids = stats.children_of(batches)

    roots, tree, self_ms, charges, evals, lock_ms = [], [], [], [], [], []
    answered = 0
    for i, o in measured:
        key = str(request_id[i]) if i in request_id else None
        if key not in charge or key not in evaluate:
            continue
        root = stats.Span(f"req:{key}", "serve.http.request", o.start, o.end)
        c, e = charge[key], evaluate[key]
        roots.append(root)
        tree += [stats.Span(c.span_id, c.name, c.start, c.end, root.span_id, key),
                 stats.Span(e.span_id, e.name, e.start, e.end, root.span_id, key)]
        self_ms.append(1000 * (root.duration - c.duration - e.duration))
        charges.append(c)
        evals.append(e)
        lock_ms.append(1000 * stats.self_time(e, kids.get(e.span_id, [])))
        answered += o.queries
    measured_keys = {s.key for s in charges}
    measured_batches = [b for b in batches if b.key in measured_keys]
    served = server_stats["supervisor"]["server"]
    outcomes = [o for _, o in measured]
    statuses = [o.status for o in outcomes]
    open_late = [1000 * (o.start - o.due) for o in open_out]
    return {
        "loadgen.lateness_p50_ms": med(open_late),
        "loadgen.lateness_max_ms": max(open_late),
        "loadgen.requests": len(outcomes),
        "loadgen.queries": sum(o.queries for o in outcomes),
        "serve.http.self_ms_p50": med(self_ms),
        "serve.http.requests": server_stats["service"]["requests"],
        "serve.http.status.200": statuses.count(200),
        "serve.http.status.429": statuses.count(429),
        "serve.http.status.503": statuses.count(503),
        "serve.http.status.other": sum(1 for s in statuses if s not in (None, 200, 429, 503)),
        "serve.http.transport_errors": statuses.count(None),
        "serve.http.request_bytes": request_bytes,
        "serve.http.response_bytes": med(len(o.body) for o in outcomes),
        "serve.http.connections_per_request":
            sum(c.connections for c in clients) / max(1, len(outcomes)),
        "serve.ledger.charges": len(charges),
        "serve.ledger.charge_ms_p50": 1000 * med(c.duration for c in charges),
        "serve.ledger.busy_s": sum(c.duration for c in charges),
        "serve.ledger.wal_bytes": wal.stat().st_size,
        "serve.ledger.answered_per_charge": answered / max(1, len(charges)),
        "serve.supervisor.evaluate_ms_p50": 1000 * med(e.duration for e in evals),
        "serve.supervisor.busy_s": sum(e.duration for e in evals),
        "serve.supervisor.lock_wait_ms_p50": med(lock_ms),
        "parallel.serve.batch_ms_p50": 1000 * med(b.duration for b in measured_batches),
        "parallel.serve.sharded_batches": served["sharded_batches"],
        "parallel.serve.chunks": served["chunks"],
        "parallel.serve.pool_rebuilds": served["pool_rebuilds"],
        "parallel.serve.inproc_fallbacks": served["inproc_fallbacks"],
        "parallel.serve.pool_start_s": med(pool_start),
        "engine.batch.us_per_query": 1e6 * eval_s / max(1, eval_queries),
        "engine.batch.nodes_touched_mean": sum(touched) / max(1, len(touched)),
        "core.build_s": med(p["build_s"] for p in publishes),
        "engine.compile_s": med(p["compile_s"] for p in publishes),
        "engine.store.save_s": med(p["save_s"] for p in publishes),
        "engine.store.file_bytes": publishes[-1]["file_bytes"],
        "engine.store.attach_s": med(attach),
        "serve.start_s": med(starts),
        "rss_mb.server": poller.peak_root,
        "rss_mb.pool_worker_max": poller.peak_child,
        "trace.coverage": stats.coverage(roots, tree),
    }


# ----------------------------------------------------------------------
# Sweep workload
# ----------------------------------------------------------------------
def run_sweep_kd(seed: int, seconds: float, traced: bool, work: Path,
                 procs: List[subprocess.Popen]) -> Result:
    import numpy as np

    import stats
    from repro.data import road_intersections

    points_path = work / "points.npy"
    np.save(points_path, road_intersections(n=SWEEP_POINTS, rng=np.random.default_rng([seed, 10])))
    out = work / "sweep.json"
    cmd = [sys.executable, str(HERE / "sweep_kd.py"), str(points_path), str(seed),
           str(seconds), str(SWEEP_REPETITIONS), str(work), "1" if traced else "0", str(out)]
    with open(work / "sweep.log", "wb") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=err, stderr=err,
                                start_new_session=True)
    procs.append(proc)
    poller = RssPoller(proc.pid)
    try:
        proc.wait(timeout=seconds + 120)
    except subprocess.TimeoutExpired:
        raise RuntimeError("the sweep process overran its time")
    finally:
        poller.stop()
        stop_process(proc)
    if proc.returncode != 0 or not out.exists():
        raise RuntimeError(f"sweep process failed:\n{(work / 'sweep.log').read_text()[-3000:]}")
    res = json.loads(out.read_text())
    walls = [s["wall_s"] for s in res["sweeps"]]
    if not walls:
        raise RuntimeError(f"no sweep finished: {res['errors']}")
    tail, tail_pct, tail_n = stats.tail_percentile(walls)
    sweep_s = stats.median(walls)
    e2e = {
        "setup_s": stats.median(res["setup_s"]),
        "latency_p50_ms": 1000 * sweep_s,
        "throughput_qps": res["releases"] * res["queries_per_release"] / sweep_s,
        "sweep_s": sweep_s,
        "success_share": 1.0 - res["failed"] / max(1, res["attempted"]),
        "peak_rss_mb": poller.peak_total,
    }
    notes = [f"{len(walls)} sweeps of {res['cases']} cases ({res['releases']} releases), "
             f"rows digest {res['digest']}",
             f"latency tail {1000 * tail:.1f} ms: p{tail_pct:.2f} of {tail_n} sweeps",
             f"failed_share {res['failed'] / max(1, res['attempted']):.6f} "
             f"({res['failed']} of {res['attempted']} cases)",
             f"resumed the finished checkpoint in {res['replay_s']:.4f} s with no rebuild",
             poller.note()]
    layers: Dict[str, float] = {}
    if traced:
        layers = sweep_layers(res, work, poller)
    layers.update({"latency.tail_ms": 1000 * tail, "latency.tail_percentile": tail_pct,
                   "latency.samples": tail_n})
    return Result(e2e, layers, res["attempted"], res["failed"], res["errors"], notes)


def sweep_layers(res, work: Path, poller: RssPoller) -> Dict[str, float]:
    import stats
    from spans import load_spans

    med = stats.median
    spans = load_spans(sorted((work / "spans").glob("*.jsonl")))
    roots = [s for s in spans if s.name == "sweep.run"]
    builds = {(s.parent, s.key): s for s in spans if s.name == "sweep.build"}
    records = {(s.parent, s.key): s for s in spans if s.name == "parallel.checkpoint.record"}
    build_s: Dict[str, List[float]] = {}
    eval_s: Dict[str, List[float]] = {}
    tree, critical, busy = [], [], []
    for root in roots:
        paths, work_s = [], 0.0
        for label in res["labels"]:
            b, r = builds.get((root.span_id, label)), records.get((root.span_id, label))
            if b is None or r is None:
                continue
            # Scoring runs in the worker between the build's end and the
            # moment the parent journals the case's rows.
            scoring = stats.Span(f"{b.span_id}.eval", "sweep.evaluate", b.end, r.start,
                                 root.span_id, label)
            tree += [b, scoring, r]
            build_s.setdefault(label, []).append(b.duration)
            eval_s.setdefault(label, []).append(scoring.duration)
            paths.append(r.end - b.start)
            work_s += b.duration + scoring.duration
        critical.append(max(paths, default=0.0))
        busy.append(work_s / (2 * root.duration))
    layers = {f"sweep.build_s.{v}": med(build_s.get(v, [])) for v in KD_VARIANTS}
    layers.update({f"sweep.evaluate_s.{v}": med(eval_s.get(v, [])) for v in KD_VARIANTS})
    record_spans = list(records.values())
    layers.update({
        "queries.workload_s": med(res["workload_s"]),
        "parallel.sweep.cases": res["cases"],
        "parallel.sweep.releases": res["releases"],
        "parallel.sweep.critical_path_s": med(critical),
        "parallel.sweep.worker_busy_share": med(busy),
        "parallel.checkpoint.records": len(record_spans) / max(1, len(roots)),
        "parallel.checkpoint.record_ms_p50": 1000 * med(s.duration for s in record_spans),
        "parallel.checkpoint.bytes": med(s["journal_bytes"] for s in res["sweeps"]),
        "parallel.checkpoint.replay_s": res["replay_s"],
        "rss_mb.sweep": poller.peak_root,
        "rss_mb.pool_worker_max": poller.peak_child,
        "trace.coverage": stats.coverage(roots, tree),
    })
    return layers


# ----------------------------------------------------------------------
def run_once(workload: str, seed: int, seconds: float, traced: bool) -> Result:
    work = WORK / f"{workload}-{os.getpid()}-{'traced' if traced else 'plain'}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    procs: List[subprocess.Popen] = []  # every process started, stopped whatever happens
    try:
        if workload == "sweep-kd":
            return run_sweep_kd(seed, seconds, traced, work, procs)
        return run_serve(workload, seed, seconds, traced, work, procs)
    finally:
        for proc in procs:
            stop_process(proc)
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*SERVE, "sweep-kd"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    base = run_once(args.workload, args.seed, args.seconds, traced=False)
    runs = [base]
    if args.trace:
        runs.append(run_once(args.workload, args.seed, args.seconds, traced=True))
    final = runs[-1]
    errors = [e for r in runs for e in r.errors]

    units = dict(E2E + PER_LAYER)
    if args.trace:
        values = {name: final.layers.get(name, 0.0) for name, _ in PER_LAYER}
        for name, _ in E2E:
            values[f"trace.overhead.{name}"] = final.e2e[name] - base.e2e[name]
        names = [name for name, _ in PER_LAYER]
    else:
        values = dict(base.e2e)
        names = [name for name, _ in E2E]

    from repro.obs.hostmeta import write_bench_json

    # The commit stamp asks git; a checkout that is not a repository must not
    # send it searching the directories above.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    OUT.mkdir(exist_ok=True)
    report = write_bench_json(
        str(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "workers": WORKERS, "nproc": len(os.sched_getaffinity(0)),
         "end_to_end": base.e2e, "traced_end_to_end": final.e2e if args.trace else None,
         "per_layer": final.layers if args.trace else None,
         "notes": [f"{tag}: {n}" for tag, r in zip(("untraced", "traced"), runs)
                   for n in r.notes],
         "errors": errors},
        repo_root=str(ROOT))
    print(f"workload {args.workload} seed {args.seed}: {args.seconds:g} s measured, "
          f"workers={WORKERS}, nproc={report['nproc']}, host {json.dumps(report['host'])}")
    for name in names:
        print(f"  {name:<40} {values[name]:>16.6g} {units[name]}")
    for note in report["notes"]:
        print(f"  note: {note}")
    for error in errors:
        print(f"  CHECK FAILED: {error}")
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests for the fault-tolerant HTTP serving layer (:mod:`repro.serve`).

Every failure mode in the service's failure matrix is exercised against a
live in-process server: budget exhaustion (429), load shedding (503 +
``Retry-After``), request timeout (503, budget wasted but never over-spent),
WAL write failure (503, fail closed), worker crashes (200 — latency, not
errors) and zero-downtime engine hot swap (zero dropped in-flight queries).
All faults are scheduled deterministically on the request counter; no test
depends on a random draw.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.core.quadtree import build_private_quadtree
from repro.data import road_intersections
from repro.engine import batch_query, load_engine, save_engine
from repro.geometry import TIGER_DOMAIN
from repro.serve import (
    EngineSupervisor,
    BudgetLedger,
    FaultSpec,
    QueryService,
    ServiceThread,
    parse_fault,
    parse_faults,
)

ROWS = [
    [-123.0, 46.0, -121.0, 48.0],
    [-124.0, 45.0, -110.0, 49.0],
    [-120.0, 33.0, -104.0, 44.0],
    [-118.5, 35.0, -112.25, 41.5],
]


@pytest.fixture(scope="module")
def engine():
    points = road_intersections(n=2_000, rng=0)
    psd = build_private_quadtree(points, TIGER_DOMAIN, height=4, epsilon=0.5,
                                 rng=np.random.default_rng(7))
    return psd.compile()


def _request(port: int, method: str, path: str, body: Optional[dict] = None,
             timeout: float = 60.0) -> Tuple[int, dict, Dict[str, str]]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=payload)
        response = conn.getresponse()
        data = json.loads(response.read())
        return response.status, data, dict(response.getheaders())
    finally:
        conn.close()


def _service(engine, tmp_path, **kwargs) -> QueryService:
    supervisor = EngineSupervisor(
        engine,
        workers=kwargs.pop("workers", 1),
        chunk_queries=kwargs.pop("chunk_queries", 1024),
        cache_size=kwargs.pop("cache_size", 0),
    )
    ledger = BudgetLedger(tmp_path / "wal.jsonl",
                          default_cap=kwargs.pop("default_cap", 100.0))
    return QueryService(supervisor, ledger, **kwargs)


def _shutdown(service: QueryService) -> None:
    service.supervisor.close()
    service.ledger.close()


# ----------------------------------------------------------------------
# Fault spec parsing
# ----------------------------------------------------------------------
def test_fault_spec_parsing() -> None:
    spec = parse_fault("kill-worker:7")
    assert spec == FaultSpec("kill-worker", 7)
    assert spec.fires_on(7) and spec.fires_on(14) and not spec.fires_on(8)
    slow = parse_fault("slow-chunk:3:0.25")
    assert slow.param == 0.25
    assert parse_fault("slow-chunk:3").param > 0  # default sleep applied
    assert parse_faults("kill-worker:2,oom-worker:5") == [
        FaultSpec("kill-worker", 2), FaultSpec("oom-worker", 5)]
    assert parse_faults(None) == []
    for bad in ("kill-worker", "unknown:3", "kill-worker:0", "kill-worker:x",
                "slow-chunk:2:z", "kill-worker:2:-1", "slow-case:2:inf", "slow-case:2:nan"):
        with pytest.raises(ValueError):
            parse_fault(bad)


# ----------------------------------------------------------------------
# The happy path: parity and budget accounting
# ----------------------------------------------------------------------
def test_query_parity_and_budget(engine, tmp_path) -> None:
    service = _service(engine, tmp_path, charge_epsilon=0.01)
    try:
        with ServiceThread(service) as thread:
            port = thread.address[1]
            status, body, _ = _request(port, "POST", "/query",
                                       {"analyst": "alice", "queries": ROWS})
            assert status == 200
            expected = batch_query(engine, np.asarray(ROWS, dtype=np.float64))
            assert body["estimates"] == [float(v) for v in expected.estimates]
            assert body["nodes_touched"] == [int(v) for v in expected.nodes_touched]
            assert body["epsilon_charged"] == pytest.approx(0.01 * len(ROWS))
            assert body["remaining"] == pytest.approx(100.0 - 0.04)
            assert body["generation"] == 1

            status, health, _ = _request(port, "GET", "/healthz")
            assert (status, health["status"]) == (200, "ok")
            status, accounts, _ = _request(port, "GET", "/accounts")
            assert accounts["accounts"]["alice"]["charges"] == 1
            status, stats, _ = _request(port, "GET", "/stats")
            assert stats["service"]["served"] == 1
            assert stats["ledger"]["seq"] == 1
    finally:
        _shutdown(service)


def test_budget_exhaustion_gets_429(engine, tmp_path) -> None:
    service = _service(engine, tmp_path, default_cap=0.1, charge_epsilon=0.03)
    try:
        with ServiceThread(service) as thread:
            port = thread.address[1]
            for _ in range(3):  # 3 x 0.03 fits under 0.1
                status, _, _ = _request(port, "POST", "/query",
                                        {"analyst": "alice", "queries": ROWS[:1]})
                assert status == 200
            status, body, _ = _request(port, "POST", "/query",
                                       {"analyst": "alice", "queries": ROWS[:1]})
            assert status == 429
            assert body["error"] == "budget_exhausted"
            assert body["remaining"] == pytest.approx(0.01)
            # The refusal is free: the durable seq still counts 3 charges.
            assert service.ledger.seq == 3
            # Another analyst still gets service.
            status, _, _ = _request(port, "POST", "/query",
                                    {"analyst": "bob", "queries": ROWS[:1]})
            assert status == 200
    finally:
        _shutdown(service)


# ----------------------------------------------------------------------
# Robust request lifecycle: shed, timeout, WAL failure, bad input
# ----------------------------------------------------------------------
def test_overload_sheds_with_retry_after(engine, tmp_path) -> None:
    service = _service(engine, tmp_path, max_inflight=1,
                       faults=parse_faults("slow-chunk:1:0.4"))
    results: List[Tuple[int, dict, Dict[str, str]]] = []
    try:
        with ServiceThread(service) as thread:
            port = thread.address[1]

            def client() -> None:
                results.append(_request(port, "POST", "/query",
                                        {"analyst": "alice", "queries": ROWS[:1]}))

            clients = [threading.Thread(target=client) for _ in range(4)]
            for worker in clients:
                worker.start()
                time.sleep(0.05)  # admit the first before the rest pile on
            for worker in clients:
                worker.join(timeout=60)
        statuses = sorted(status for status, _, _ in results)
        assert len(statuses) == 4
        assert statuses[0] == 200          # the admitted request completes
        assert 503 in statuses             # the pile-on is shed, not hung
        for status, body, headers in results:
            if status == 503:
                assert body["error"] == "overloaded"
                assert headers.get("Retry-After") == "1"
    finally:
        _shutdown(service)


def test_timeout_wastes_but_never_overspends(engine, tmp_path) -> None:
    service = _service(engine, tmp_path, request_timeout=0.15,
                       charge_epsilon=0.05,
                       faults=parse_faults("slow-chunk:2:1.5"))
    try:
        with ServiceThread(service) as thread:
            port = thread.address[1]
            status, _, _ = _request(port, "POST", "/query",
                                    {"analyst": "alice", "queries": ROWS[:1]})
            assert status == 200
            status, body, _ = _request(port, "POST", "/query",
                                       {"analyst": "alice", "queries": ROWS[:1]})
            assert status == 503
            assert body["error"] == "timeout"
        # Charge-before-answer: the timed-out request's epsilon is charged
        # (wasted) — the durable spend covers both requests, no more.
        assert service.ledger.spend("alice") == pytest.approx(0.1)
        assert service.ledger.seq == 2
    finally:
        _shutdown(service)


def test_wal_io_error_fails_closed_over_http(engine, tmp_path) -> None:
    service = _service(engine, tmp_path, charge_epsilon=0.05,
                       faults=parse_faults("wal-io-error:2"))
    try:
        with ServiceThread(service) as thread:
            port = thread.address[1]
            status, _, _ = _request(port, "POST", "/query",
                                    {"analyst": "alice", "queries": ROWS[:1]})
            assert status == 200
            status, body, _ = _request(port, "POST", "/query",
                                       {"analyst": "alice", "queries": ROWS[:1]})
            assert status == 503
            assert body["error"] == "ledger_unavailable"
            # Fail closed: the failed request spent nothing...
            assert service.ledger.spend("alice") == pytest.approx(0.05)
            # ...and the service recovers on the next request.
            status, _, _ = _request(port, "POST", "/query",
                                    {"analyst": "alice", "queries": ROWS[:1]})
            assert status == 200
            assert service.ledger.spend("alice") == pytest.approx(0.1)
    finally:
        _shutdown(service)


def test_malformed_requests_get_4xx_never_hang(engine, tmp_path) -> None:
    service = _service(engine, tmp_path)
    try:
        with ServiceThread(service) as thread:
            port = thread.address[1]
            cases = [
                ("POST", "/query", {"queries": ROWS}, 400),          # no analyst
                ("POST", "/query", {"analyst": "a"}, 400),           # no queries
                ("POST", "/query", {"analyst": "a", "queries": [[1.0, 2.0]]}, 400),
                ("POST", "/query", {"analyst": "a", "queries": ROWS,
                                    "epsilon": -1}, 400),
                ("POST", "/query", {"analyst": "a", "queries": ROWS,
                                    "epsilon": "lots"}, 400),
                ("POST", "/query", {"analyst": "a", "queries": ROWS,
                                    "epsilon": float("nan")}, 400),
                ("POST", "/query", {"analyst": "a", "queries": ROWS,
                                    "epsilon": float("inf")}, 400),
                ("GET", "/nowhere", None, 404),
                ("GET", "/query", None, 405),
            ]
            for method, path, body, expected in cases:
                status, payload, _ = _request(port, method, path, body)
                assert status == expected, (path, body, payload)
                assert "error" in payload
            # Raw garbage instead of JSON.
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            conn.request("POST", "/query", body=b"not json {")
            assert conn.getresponse().status == 400
            conn.close()
            # The service is unharmed.
            status, _, _ = _request(port, "POST", "/query",
                                    {"analyst": "a", "queries": ROWS[:1]})
            assert status == 200
    finally:
        _shutdown(service)


def test_invalid_rows_are_refused_before_the_charge(engine, tmp_path) -> None:
    service = _service(engine, tmp_path)
    try:
        with ServiceThread(service) as thread:
            port = thread.address[1]
            status, _, _ = _request(port, "POST", "/query",
                                    {"analyst": "a", "queries": ROWS[:1]})
            assert status == 200
            spent = service.ledger.spend_hex("a")
            for row in ([float("nan"), 46.0, -121.0, 48.0],
                        [-123.0, 46.0, float("inf"), 48.0],
                        [-121.0, 46.0, -123.0, 48.0]):  # lo > hi
                status, payload, _ = _request(port, "POST", "/query",
                                              {"analyst": "a", "queries": [row]})
                assert status == 400, (row, payload)
            assert service.ledger.spend_hex("a") == spent
            assert service.ledger.seq == 1
    finally:
        _shutdown(service)


# ----------------------------------------------------------------------
# Worker supervision under deterministic faults
# ----------------------------------------------------------------------
def test_worker_kill_fault_costs_latency_not_errors(engine, tmp_path) -> None:
    service = _service(engine, tmp_path, workers=2, chunk_queries=2,
                       faults=parse_faults("kill-worker:3"))
    try:
        with ServiceThread(service) as thread:
            port = thread.address[1]
            expected = batch_query(engine, np.asarray(ROWS, dtype=np.float64))
            for _ in range(7):  # faults fire on requests 3 and 6
                status, body, _ = _request(port, "POST", "/query",
                                           {"analyst": "alice", "queries": ROWS})
                assert status == 200
                assert body["estimates"] == [float(v) for v in expected.estimates]
            status, stats, _ = _request(port, "GET", "/stats")
            assert stats["faults"]["kill-worker"] == 2
            server = stats["supervisor"]["server"]
            assert server["pool_rebuilds"] + server["inproc_fallbacks"] >= 1
            assert stats["service"]["served"] == 7
            assert stats["service"]["errors"] == 0
    finally:
        _shutdown(service)


def test_coincident_kill_and_oom_faults_are_survived(engine, tmp_path) -> None:
    """Both fault kinds firing on the same request must still answer 200.

    Regression: the oom probe used to submit into the pool the kill-worker
    drill had just crashed, and the ``BrokenProcessPool`` escaped as a 500.
    """
    service = _service(engine, tmp_path, workers=2, chunk_queries=2,
                       faults=parse_faults("kill-worker:2,oom-worker:2"))
    try:
        with ServiceThread(service) as thread:
            port = thread.address[1]
            for _ in range(4):  # both faults fire together on requests 2 and 4
                status, body, _ = _request(port, "POST", "/query",
                                           {"analyst": "alice", "queries": ROWS})
                assert status == 200, body
            status, stats, _ = _request(port, "GET", "/stats")
            assert stats["faults"] == {"kill-worker": 2, "oom-worker": 2}
            assert stats["service"]["errors"] == 0
    finally:
        _shutdown(service)


def test_oom_worker_fault_is_survived(engine, tmp_path) -> None:
    service = _service(engine, tmp_path, workers=2, chunk_queries=2,
                       faults=parse_faults("oom-worker:2"))
    try:
        with ServiceThread(service) as thread:
            port = thread.address[1]
            for _ in range(4):
                status, _, _ = _request(port, "POST", "/query",
                                        {"analyst": "alice", "queries": ROWS})
                assert status == 200
            status, stats, _ = _request(port, "GET", "/stats")
            assert stats["faults"]["oom-worker"] == 2
            assert stats["service"]["errors"] == 0
    finally:
        _shutdown(service)


# ----------------------------------------------------------------------
# Zero-downtime hot swap
# ----------------------------------------------------------------------
def test_hot_swap_drops_no_inflight_queries(engine, tmp_path) -> None:
    """Swap engines under a continuous client load; every request answers 200.

    The swapped-in engine is the float32 mmap compilation of the same
    release, so post-swap answers may differ in low-order bits — what must
    not change is the status: no 5xx, no connection error, no hang, and the
    generation visibly advances.
    """
    swapped = tmp_path / "engine32.psdm"
    save_engine(engine, swapped, format="mmap", precision="float32")
    assert load_engine(swapped).storage_precision == "float32"

    service = _service(engine, tmp_path, charge_epsilon=1e-6)
    failures: List[Tuple[int, dict]] = []
    generations: List[int] = []
    stop = threading.Event()
    try:
        with ServiceThread(service) as thread:
            port = thread.address[1]

            def hammer() -> None:
                while not stop.is_set():
                    status, body, _ = _request(port, "POST", "/query",
                                               {"analyst": "alice", "queries": ROWS})
                    if status != 200:
                        failures.append((status, body))
                    else:
                        generations.append(body["generation"])

            clients = [threading.Thread(target=hammer) for _ in range(3)]
            for worker in clients:
                worker.start()
            time.sleep(0.3)
            status, body, _ = _request(port, "POST", "/admin/swap",
                                       {"path": str(swapped)})
            assert (status, body["generation"]) == (200, 2)
            time.sleep(0.3)
            stop.set()
            for worker in clients:
                worker.join(timeout=60)

        assert failures == []
        assert 1 in generations and 2 in generations  # traffic on both sides
        # The retired generation was drained and closed, not leaked.
        stats = service.supervisor.stats()
        assert stats["generation"] == 2
        assert stats["retired_draining"] == 0
    finally:
        _shutdown(service)


def test_swap_of_missing_engine_is_rejected_and_harmless(engine, tmp_path) -> None:
    service = _service(engine, tmp_path)
    try:
        with ServiceThread(service) as thread:
            port = thread.address[1]
            status, body, _ = _request(port, "POST", "/admin/swap",
                                       {"path": str(tmp_path / "missing.psdm")})
            assert status == 400
            status, _, _ = _request(port, "POST", "/query",
                                    {"analyst": "alice", "queries": ROWS[:1]})
            assert status == 200
            assert service.supervisor.generation == 1
    finally:
        _shutdown(service)


# ----------------------------------------------------------------------
# Supervisor internals: backoff schedule and cached serving
# ----------------------------------------------------------------------
def test_supervisor_backoff_is_bounded_exponential(engine, monkeypatch) -> None:
    import repro.parallel.pool as pool_mod

    sleeps: List[float] = []
    monkeypatch.setattr(pool_mod, "sleep", sleeps.append)
    supervisor = EngineSupervisor(engine, workers=1)
    try:
        for attempt in range(1, 8):
            supervisor._state.server._pool._backoff(attempt)
        assert sleeps == [0.05, 0.1, 0.2, 0.4, 0.8, 1.0, 1.0]  # doubles, then clamps
        assert supervisor.stats()["backoff_sleeps"] == 7
    finally:
        supervisor.close()


def test_supervisor_cached_serving_matches_direct(engine) -> None:
    rows = np.asarray(ROWS, dtype=np.float64)
    expected = batch_query(engine, rows)
    supervisor = EngineSupervisor(engine, workers=1, cache_size=64)
    try:
        first = supervisor.evaluate(rows)
        second = supervisor.evaluate(rows)  # served from the answer cache
        np.testing.assert_array_equal(first.estimates, expected.estimates)
        np.testing.assert_array_equal(second.estimates, expected.estimates)
        assert supervisor.stats()["cache"]["hits"] >= len(ROWS)
    finally:
        supervisor.close()

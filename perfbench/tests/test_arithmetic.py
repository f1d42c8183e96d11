"""The benchmark's own arithmetic, checked against hand-computed cases.

Run with ``python3 -m pytest perfbench/tests -q`` from the repo root.
"""

import json
import math
import socketserver
import threading
import time

import numpy as np
import pytest

import loadgen
import stats
from stats import Outcome, Span


# ----------------------------------------------------------------------
# Tail percentile
# ----------------------------------------------------------------------
def test_tail_leaves_exactly_ten_samples_beyond():
    samples = list(range(1, 101))  # 1..100
    value, pct, n = stats.tail_percentile(samples)
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(1 for s in samples if s > value) == 10


def test_tail_of_large_sample_is_a_high_percentile():
    rng = np.random.default_rng(0)
    samples = rng.random(2000).tolist()
    value, pct, n = stats.tail_percentile(samples)
    assert pct == pytest.approx(99.5)
    assert sum(1 for s in samples if s > value) == 10


def test_tail_of_small_sample_is_its_maximum():
    assert stats.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert stats.tail_percentile(list(range(10))) == (9, 100.0, 10)
    # Eleven samples: the smallest is the only value with ten above it.
    assert stats.tail_percentile(list(range(11))) == (0, pytest.approx(100 / 11), 11)


def test_tail_needs_a_sample():
    with pytest.raises(ValueError):
        stats.tail_percentile([])


# ----------------------------------------------------------------------
# Failures: in failed_share and above any latency limit
# ----------------------------------------------------------------------
def _outcomes(n_ok, n_failed):
    ok = [Outcome(due=0.0, start=0.0, end=0.001 * (i + 1), status=200, queries=1)
          for i in range(n_ok)]
    bad = [Outcome(due=0.0, start=0.0, end=0.0005, status=status, queries=1)
           for status in ([503, None] * n_failed)[:n_failed]]
    return ok + bad


def test_failures_count_in_failed_share():
    outcomes = _outcomes(90, 10)
    assert stats.failed_share(outcomes) == pytest.approx(0.1)
    assert stats.failed_share(_outcomes(5, 0)) == 0.0
    assert stats.failed_share([]) == 0.0


def test_failures_rank_above_every_latency():
    # A failure answered fast still ranks above the slowest success.
    latencies = stats.due_latencies(_outcomes(89, 11))
    assert latencies.count(math.inf) == 11
    value, _, _ = stats.tail_percentile(latencies)
    assert value == math.inf
    # Ten failures sit exactly beyond the tail: it is the slowest success.
    value, _, _ = stats.tail_percentile(stats.due_latencies(_outcomes(90, 10)))
    assert value == pytest.approx(0.090)
    # And the median moves up past failures too.
    assert stats.median(stats.due_latencies(_outcomes(2, 3))) == math.inf


# ----------------------------------------------------------------------
# Span self time and coverage
# ----------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_children():
    parent = Span("p", "parent", 0.0, 10.0)
    kids = [Span("a", "k", 1.0, 3.0, "p"), Span("b", "k", 2.0, 5.0, "p"),
            Span("c", "k", 8.0, 12.0, "p")]
    # Children cover [1, 5] and [8, 10] of the parent: 6 of its 10 seconds.
    assert stats.self_time(parent, kids) == pytest.approx(4.0)
    assert stats.self_time(parent, []) == pytest.approx(10.0)


def test_self_time_of_nested_and_disjoint_children():
    parent = Span("p", "parent", 0.0, 4.0)
    assert stats.self_time(parent, [Span("a", "k", 1.0, 2.0, "p"),
                                    Span("b", "k", 1.2, 1.8, "p")]) == pytest.approx(3.0)
    assert stats.self_time(parent, [Span("a", "k", 5.0, 6.0, "p")]) == pytest.approx(4.0)


def test_coverage_is_attributed_over_wall_time():
    roots = [Span("r1", "root", 0.0, 10.0), Span("r2", "root", 20.0, 30.0)]
    spans = [Span("a", "k", 0.0, 5.0, "r1"), Span("b", "k", 20.0, 30.0, "r2"),
             Span("c", "k", 2.0, 3.0, "a")]  # a grandchild adds nothing to r1
    assert stats.coverage(roots, spans) == pytest.approx(15.0 / 20.0)
    assert stats.coverage([], spans) == 0.0


# ----------------------------------------------------------------------
# Due-time latency against a stalling stub server
# ----------------------------------------------------------------------
class _StubServer(socketserver.ThreadingTCPServer):
    """Answers one request at a time; a body containing ``stall`` holds it 0.3 s."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _StubHandler)
        self.busy = threading.Lock()


class _StubHandler(socketserver.StreamRequestHandler):
    def handle(self):
        length = 0
        while True:
            line = self.rfile.readline()
            if line in (b"\r\n", b""):
                break
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":")[1])
        body = self.rfile.read(length)
        with self.server.busy:
            time.sleep(0.3 if b"stall" in body else 0.002)
        payload = json.dumps({"ok": True}).encode()
        self.wfile.write(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\nConnection: close\r\n\r\n"
                         % len(payload) + payload)


@pytest.fixture
def stub_server():
    server = _StubServer()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def test_later_requests_absorb_a_stall(stub_server):
    address = stub_server.server_address
    bodies = [b"stall" if i == 2 else b"fine" for i in range(12)]
    requests = [b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" % (len(b), b)
                for b in bodies]
    offsets = [0.02 * i for i in range(12)]  # one request every 20 ms
    clients = []

    def new_sender():
        clients.append(loadgen.HttpClient(address))
        return clients[-1].exchange

    outcomes = loadgen.open_loop(new_sender, requests, [1] * 12, offsets, senders=2)
    assert all(o.ok for o in outcomes)
    stall_end = outcomes[2].end
    latencies = stats.due_latencies(outcomes)
    # Every request due while the server stalled waited for the stall to end,
    # counted from when it was due, not from when it was finally sent.
    for i in range(3, 12):
        if outcomes[i].due < stall_end:
            assert outcomes[i].end >= stall_end
            assert latencies[i] >= stall_end - outcomes[i].due
    # Both senders were stuck, so the next due request went out late.
    assert outcomes[4].start - outcomes[4].due > 0.1
    assert latencies[4] > 0.1
    # The stall is in the median too: it is not only the tail that moves.
    assert stats.median(latencies) > 0.02
    assert sum(c.connections for c in clients) == 12  # the stub closes every connection


def test_connection_error_is_a_failure_not_an_exception():
    with socketserver.TCPServer(("127.0.0.1", 0), socketserver.BaseRequestHandler) as probe:
        address = probe.server_address  # closed on exit: nothing listens there
    outcomes = loadgen.open_loop(lambda: loadgen.HttpClient(address).exchange,
                                 [b"x"] * 3, [1, 1, 1], [0.0, 0.0, 0.0], senders=2)
    assert [o.status for o in outcomes] == [None, None, None]
    assert stats.failed_share(outcomes) == 1.0


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def test_inputs_repeat_per_seed_and_share_their_spread_across_seeds():
    a = loadgen.stratified_sizes(np.random.default_rng(1), 100, 256, 1024)
    b = loadgen.stratified_sizes(np.random.default_rng(2), 100, 256, 1024)
    assert sorted(a) == sorted(b) and list(a) != list(b)
    assert a.min() == 256 and 1024 - 769 / 100 <= a.max() <= 1024
    assert np.array_equal(a, loadgen.stratified_sizes(np.random.default_rng(1), 100, 256, 1024))
    points = loadgen.stratified_sizes(np.random.default_rng(3), 400, 1, 4)
    assert np.bincount(points).tolist() == [0, 100, 100, 100, 100]

    x = loadgen.poisson_offsets(np.random.default_rng(1), 1000, rate=50.0)
    y = loadgen.poisson_offsets(np.random.default_rng(2), 1000, rate=50.0)
    assert x[-1] == pytest.approx(y[-1])  # same total span for every seed
    assert np.mean(np.diff(x)) == pytest.approx(1 / 50.0, rel=0.02)
    assert np.all(np.diff(x) > 0)

    rects = loadgen.random_rects(np.random.default_rng(4), 5000)
    lo, hi = rects[:, :2], rects[:, 2:]
    assert np.all(hi > lo)
    assert np.all(lo >= loadgen.DOMAIN_LO)
    assert np.all(hi <= loadgen.DOMAIN_LO + loadgen.DOMAIN_WIDTHS)


def test_rows_digest_sees_every_bit():
    rows = [{"variant": "kd-cell", "epsilon": 0.5, "median_rel_error_pct": 1.25}]
    same = [{"median_rel_error_pct": 1.25, "epsilon": 0.5, "variant": "kd-cell"}]
    assert stats.rows_digest(rows) == stats.rows_digest(same)
    nudged = [dict(rows[0], median_rel_error_pct=np.nextafter(1.25, 2.0))]
    assert stats.rows_digest(rows) != stats.rows_digest(nudged)

"""Load generator for ``repro serve``: seeded inputs, open and closed loops.

Everything a run sends is made before any clock starts: query rects, row
counts per request, the Poisson arrival offsets and the encoded HTTP
requests.  The senders then only connect, write pre-built bytes and read
the answer.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from stats import Outcome

#: Seconds a request may take before it counts as failed (a timeout).
CLIENT_TIMEOUT = 30.0

#: The TIGER road domain every serve engine is built over: (lo, hi) per axis.
DOMAIN_LO = np.array([-124.82, 31.33])
DOMAIN_WIDTHS = np.array([21.82, 17.67])


def random_rects(rng: np.random.Generator, n: int,
                 min_frac: float = 0.01, max_frac: float = 0.3) -> np.ndarray:
    """``(n, 4)`` rows ``lo0, lo1, hi0, hi1``, placed like ``random_query_rects``.

    Uniform centres, per-axis extents between ``min_frac`` and ``max_frac``
    of the domain width, clipped to the domain; no true answers are needed.
    Clipping can only shrink a box, and a centre inside the domain keeps
    every clipped extent positive, so no redraw is needed.
    """
    centres = DOMAIN_LO + rng.random((n, 2)) * DOMAIN_WIDTHS
    extents = DOMAIN_WIDTHS * (min_frac + (max_frac - min_frac) * rng.random((n, 2)))
    lo = np.maximum(centres - extents / 2, DOMAIN_LO)
    hi = np.minimum(centres + extents / 2, DOMAIN_LO + DOMAIN_WIDTHS)
    return np.hstack([lo, hi])


def stratified_sizes(rng: np.random.Generator, n: int, lo: int, hi: int) -> np.ndarray:
    """``n`` request sizes spread evenly over the integers ``lo..hi``, in seeded order.

    Every seed sends the same multiset of sizes, so a run-to-run difference
    in latency comes from the system, not from drawing more large requests.
    """
    return rng.permutation(lo + (np.arange(n) * (hi - lo + 1)) // max(n, 1))


def poisson_offsets(rng: np.random.Generator, n: int, rate: float) -> np.ndarray:
    """Due times (seconds from the phase start) of ``n`` Poisson arrivals.

    The gaps are the exponential distribution's ``n`` evenly spaced
    quantiles in seeded order: each seed's gaps are exponential with mean
    ``1 / rate``, and every seed's schedule spans the same duration.
    """
    quantiles = (np.arange(n) + 0.5) / n
    gaps = -np.log1p(-quantiles) / rate
    return np.cumsum(rng.permutation(gaps))


def encode_query(analyst: str, rows: np.ndarray) -> bytes:
    """A complete ``POST /query`` HTTP/1.1 request for ``rows``.

    ``json`` writes floats with ``repr``, so the server parses exactly the
    float64 values the benchmark later evaluates in-process.  The request
    does not ask to close the connection: a server that keeps connections
    alive gets them reused, which ``HttpClient.connections`` counts.
    """
    body = json.dumps({"analyst": analyst, "queries": rows.tolist()}).encode()
    head = ("POST /query HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode("ascii")
    return head + body


class HttpClient:
    """One client connection at a time, reused while the server keeps it open."""

    def __init__(self, address: Tuple[str, int], timeout: float = CLIENT_TIMEOUT) -> None:
        self.address = address
        self.timeout = timeout
        self.connections = 0
        self._sock: Optional[socket.socket] = None
        self._buffer = b""

    def exchange(self, request: bytes) -> Tuple[int, bytes]:
        """Send one request; return ``(status, body)``."""
        if self._sock is None:
            self._sock = socket.create_connection(self.address, timeout=self.timeout)
            self._buffer = b""
            self.connections += 1
        try:
            self._sock.sendall(request)
            head = self._read_until(b"\r\n\r\n")
            lines = head.decode("latin-1").split("\r\n")
            status_line = lines[0].split()
            if len(status_line) < 2:
                raise ConnectionError("malformed HTTP response")
            headers = {}
            for line in lines[1:]:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
            body = self._read_exactly(int(headers.get("content-length", "0")))
        except BaseException:
            self.close()
            raise
        if headers.get("connection", "").lower() == "close" or status_line[0] == "HTTP/1.0":
            self.close()
        return int(status_line[1]), body

    def _fill(self) -> None:
        chunk = self._sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection mid-response")
        self._buffer += chunk

    def _read_until(self, marker: bytes) -> bytes:
        while marker not in self._buffer:
            self._fill()
        head, _, self._buffer = self._buffer.partition(marker)
        return head

    def _read_exactly(self, n: int) -> bytes:
        while len(self._buffer) < n:
            self._fill()
        body, self._buffer = self._buffer[:n], self._buffer[n:]
        return body

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None


def get_json(address: Tuple[str, int], path: str) -> dict:
    """``GET path`` on a fresh connection and decode the JSON body."""
    client = HttpClient(address)
    try:
        status, body = client.exchange(f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n".encode())
    finally:
        client.close()
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(body)


#: Makes one sender per thread: a callable taking request bytes, returning ``(status, body)``.
SenderFactory = Callable[[], Callable[[bytes], Tuple[int, bytes]]]


def _attempt(send, request: bytes) -> Tuple[Optional[int], bytes]:
    try:
        return send(request)
    except (OSError, ValueError) as exc:  # refused, reset, timed out or garbled: a failure
        return None, repr(exc).encode()


def open_loop(new_sender: SenderFactory, requests: Sequence[bytes], queries: Sequence[int],
              offsets: Sequence[float], senders: int = 2,
              clock: Callable[[], float] = time.monotonic,
              sleep: Callable[[float], None] = time.sleep) -> List[Outcome]:
    """Send request ``i`` at ``offsets[i]`` seconds after the start.

    Requests go out in due order from ``senders`` threads, each holding one
    connection at a time.  When every sender is busy, the next request waits
    and goes out late; its latency still counts from when it was due, so a
    stall is charged to every request it delays.
    """
    n = len(requests)
    outcomes: List[Optional[Outcome]] = [None] * n
    lock = threading.Lock()
    cursor = [0]
    t0 = clock() + 0.05

    def worker() -> None:
        send = new_sender()
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= n:
                return
            due = t0 + offsets[i]
            wait = due - clock()
            if wait > 0:
                sleep(wait)
            start = clock()
            status, body = _attempt(send, requests[i])
            outcomes[i] = Outcome(due, start, clock(), status, queries[i], body)

    _run_threads(worker, senders)
    return outcomes


def closed_loop(new_sender: SenderFactory, requests: Sequence[bytes], queries: Sequence[int],
                connections: int = 2, deadline: Optional[float] = None,
                clock: Callable[[], float] = time.monotonic
                ) -> Tuple[List[Optional[Outcome]], float, float]:
    """Send ``requests`` back to back over ``connections`` concurrent clients.

    Returns one outcome per request (``None`` for a request never sent) and
    the phase's start and end.
    A request is due when its client is free, so its latency is its service
    time.  No request starts after ``deadline`` (a ``clock`` value); that only
    bounds a run against a server far slower than the one it was sized for.
    """
    n = len(requests)
    outcomes: List[Optional[Outcome]] = [None] * n
    lock = threading.Lock()
    cursor = [0]
    t0 = clock()

    def worker() -> None:
        send = new_sender()
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= n or (deadline is not None and clock() > deadline):
                return
            start = clock()
            status, body = _attempt(send, requests[i])
            outcomes[i] = Outcome(start, start, clock(), status, queries[i], body)

    _run_threads(worker, connections)
    return outcomes, t0, max((o.end for o in outcomes if o is not None), default=t0)


def _run_threads(target: Callable[[], None], count: int) -> None:
    threads = [threading.Thread(target=target, daemon=True) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

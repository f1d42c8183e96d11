"""Asyncio HTTP front-end for the fault-tolerant PSD query service.

Stdlib only: :mod:`asyncio` plus a deliberately minimal HTTP/1.1 handler
(one request per connection, ``Connection: close``, JSON bodies).  The event
loop does admission control and bookkeeping; the blocking work — WAL charge,
engine evaluation, pool supervision — runs on executor threads so one slow
query never stalls the accept loop.

Endpoints
---------
``POST /query``
    ``{"analyst": str, "queries": [[lo..., hi...], ...], "epsilon"?: float}``
    → ``{"estimates": [...], "nodes_touched": [...], "remaining": ε, ...}``.
    ``epsilon`` is the *total* charge for the request (default:
    ``charge_epsilon × n_queries``).
``GET /healthz``     liveness + current engine generation.
``GET /stats``       service, supervisor, ledger and fault counters.
``GET /accounts``    per-analyst spend/cap/remaining (with hex spend).
``POST /admin/swap`` ``{"path": str}`` — zero-downtime engine hot swap; the
    file's checksums are verified first, as at startup (400 naming the array).
``POST /admin/kill-worker``  crash one pool worker (fault drill).

Failure matrix (every failure is an HTTP status, never a hang or a reset):

=====================  ====  =================================================
budget exhausted        429  refusal *before* anything is written or spent
queue full              503  shed at admission, ``Retry-After: 1``
request timeout         503  the charge may already be durable: budget is
                             *wasted*, never over-spent (charge-before-answer)
WAL write failure       503  fail closed — charge rolled back, nothing spent,
                             no answer released
worker crash            200  supervised pool rebuilds and replays; the caller
                             sees latency, not an error
malformed request       400  parse/validation errors, a body shorter than its
                             ``Content-Length``, or one over the size limit
                             (read off, bounded, before the close)
unknown path            404
handler bug             500  JSON error body; the connection still closes
                             cleanly
=====================  ====  =================================================
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import threading
import time
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..engine.batch import queries_to_arrays
from ..engine.io import load_engine
from ..obs import counter_add, gauge_max
from .faults import FaultInjector, FaultSpec
from .ledger import BudgetExceeded, BudgetLedger, _positive_finite
from .supervisor import EngineSupervisor

__all__ = ["QueryService", "ServiceThread", "DEFAULT_CHARGE_EPSILON"]

#: Per-query ε charged when a request names no explicit ``epsilon``.
DEFAULT_CHARGE_EPSILON = 0.01

#: Largest accepted request body; a query batch at this size is ~100k rows.
MAX_BODY_BYTES = 8 << 20

#: The Python types ``json.loads`` gives JSON numbers (``bool`` is not one).
_JSON_NUMBERS = {int, float}

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    429: "Too Many Requests", 500: "Internal Server Error", 503: "Service Unavailable",
}


class _HttpError(Exception):
    """Internal: carries a status + JSON body up to the response writer.

    ``unread`` is the length of a request body refused before it was read.
    """

    def __init__(self, status: int, body: Dict[str, object],
                 headers: Optional[Dict[str, str]] = None, unread: int = 0) -> None:
        self.status = status
        self.body = body
        self.headers = headers or {}
        self.unread = unread
        super().__init__(str(body))


class QueryService:
    """The serving front-end: supervisor + ledger + faults behind HTTP.

    Parameters
    ----------
    supervisor:
        The :class:`~repro.serve.supervisor.EngineSupervisor` to evaluate on.
    ledger:
        The :class:`~repro.serve.ledger.BudgetLedger` charged before every
        answer.  The service installs its WAL fault hook onto the ledger so
        ``wal-io-error`` schedules bite the right request.
    charge_epsilon:
        Per-query ε when the request body names no total ``epsilon``.
    max_inflight:
        Admission bound: requests beyond this many concurrently admitted
        queries are shed with 503 + ``Retry-After``.
    request_timeout:
        Seconds before an admitted query answers 503 (budget possibly
        wasted, never over-spent).
    faults:
        Deterministic :class:`~repro.serve.faults.FaultSpec` schedules keyed
        on the admitted-request counter.
    """

    def __init__(
        self,
        supervisor: EngineSupervisor,
        ledger: BudgetLedger,
        host: str = "127.0.0.1",
        port: int = 0,
        charge_epsilon: float = DEFAULT_CHARGE_EPSILON,
        max_inflight: int = 64,
        request_timeout: float = 30.0,
        faults: Optional[List[FaultSpec]] = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        self.supervisor = supervisor
        self.ledger = ledger
        self.host = host
        self.port = int(port)  # updated to the bound port after start()
        self.charge_epsilon = _positive_finite(charge_epsilon, "charge_epsilon")
        self.max_inflight = int(max_inflight)
        self.request_timeout = _positive_finite(request_timeout, "request_timeout")
        self.faults = FaultInjector(faults or [])
        # The WAL fault hook consults the deterministic schedule using the
        # request id stamped into each charge record.
        ledger.io_hook = self._wal_hook
        self._server: Optional[asyncio.AbstractServer] = None
        self._requests = 0   # admitted /query requests (the fault clock)
        self._inflight = 0
        self._counters: Dict[str, int] = {
            "requests": 0, "served": 0, "refused": 0, "shed": 0,
            "timeouts": 0, "wal_errors": 0, "bad_requests": 0, "errors": 0,
        }

    # ------------------------------------------------------------------
    def _wal_hook(self, record: Dict[str, object]) -> None:
        request = record.get("request")
        if isinstance(request, int) and self.faults.wal_error_scheduled(request):
            raise OSError(f"injected wal-io-error for request {request}")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        unread = 0
        try:
            status, body, headers = await self._dispatch(reader)
        except _HttpError as exc:
            status, body, headers, unread = exc.status, exc.body, exc.headers, exc.unread
        except Exception as exc:  # a handler bug must still answer cleanly
            self._counters["errors"] += 1
            counter_add("http.errors")
            status, body, headers = 500, {"error": "internal", "detail": str(exc)}, {}
        if status in (400, 404, 405):
            self._counters["bad_requests"] += 1
        try:
            payload = json.dumps(body).encode("utf-8")
            lines = [
                f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
                "Content-Type: application/json",
                f"Content-Length: {len(payload)}",
                "Connection: close",
            ]
            lines.extend(f"{name}: {value}" for name, value in headers.items())
            writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + payload)
            await writer.drain()
            if unread:
                # The client may still be sending the refused body, and a close
                # with bytes unread answers with a reset that can destroy the
                # response.  Half-close, then read the body off: at most what
                # it declared, twice the size limit, or the request timeout.
                writer.write_eof()
                await asyncio.wait_for(_discard(reader, min(unread, 2 * MAX_BODY_BYTES)),
                                       timeout=self.request_timeout)
        except (ConnectionError, BrokenPipeError, asyncio.TimeoutError):
            pass  # client went away mid-write, or never finished its body
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _dispatch(self, reader: asyncio.StreamReader) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise _HttpError(400, {"error": "empty request"})
        parts = request_line.split()
        if len(parts) < 2:
            raise _HttpError(400, {"error": "malformed request line"})
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            if ":" in line:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    try:
                        content_length = int(value.strip())
                    except ValueError:
                        raise _HttpError(400, {"error": "bad content-length"})
                    if content_length < 0:
                        raise _HttpError(400, {"error": "bad content-length"})
        if content_length > MAX_BODY_BYTES:
            raise _HttpError(400, {"error": "body too large"}, unread=content_length)
        try:
            raw = await reader.readexactly(content_length) if content_length else b""
        except asyncio.IncompleteReadError as exc:
            raise _HttpError(400, {"error": f"body ended after {len(exc.partial)} of "
                                            f"{content_length} Content-Length bytes"})
        body: Dict[str, object] = {}
        if raw:
            try:
                body = json.loads(raw.decode("utf-8"))
                if not isinstance(body, dict):
                    raise ValueError("body must be a JSON object")
            except ValueError as exc:
                raise _HttpError(400, {"error": f"bad json: {exc}"})
        counter_add("http.requests")

        if path == "/query" and method == "POST":
            return await self._handle_query(body)
        if path == "/healthz" and method == "GET":
            return 200, {"status": "ok", "generation": self.supervisor.generation}, {}
        if path == "/stats" and method == "GET":
            return 200, self._stats(), {}
        if path == "/accounts" and method == "GET":
            return 200, {"accounts": self.ledger.accounts(),
                         "default_cap": self.ledger.default_cap}, {}
        if path == "/admin/swap" and method == "POST":
            return await self._handle_swap(body)
        if path == "/admin/kill-worker" and method == "POST":
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self.supervisor.drill, "kill-worker")
            return 200, {"status": "worker killed"}, {}
        if path in ("/query", "/admin/swap", "/admin/kill-worker"):
            raise _HttpError(405, {"error": f"{path} requires POST"})
        raise _HttpError(404, {"error": f"no route for {path}"})

    # ------------------------------------------------------------------
    # /query
    # ------------------------------------------------------------------
    async def _handle_query(self, body: Dict[str, object]) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        self._counters["requests"] += 1
        if self._inflight >= self.max_inflight:
            # Shed *before* admitting: no fault clock tick, no charge.
            self._counters["shed"] += 1
            counter_add("http.shed")
            raise _HttpError(503, {"error": "overloaded",
                                   "inflight": self._inflight},
                             headers={"Retry-After": "1"})

        analyst = body.get("analyst")
        if not isinstance(analyst, str) or not analyst:
            raise _HttpError(400, {"error": "missing analyst"})
        rows = self._parse_queries(body)
        epsilon = body.get("epsilon", self.charge_epsilon * rows.shape[0])
        if type(epsilon) not in _JSON_NUMBERS:
            raise _HttpError(400, {"error": "epsilon must be a number"})
        try:
            epsilon = float(epsilon)
        except OverflowError:
            raise _HttpError(400, {"error": "epsilon must be a positive finite number"})
        if not math.isfinite(epsilon) or epsilon <= 0:
            raise _HttpError(400, {"error": "epsilon must be a positive finite number"})

        self._requests += 1
        request_id = self._requests
        due = self.faults.for_request(request_id)
        self._inflight += 1
        gauge_max("http.inflight", self._inflight)
        loop = asyncio.get_running_loop()
        try:
            work = loop.run_in_executor(
                None, self._query_work, analyst, rows, epsilon, request_id, due)
            result = await asyncio.wait_for(work, timeout=self.request_timeout)
        except asyncio.TimeoutError:
            # The executor thread keeps running; the charge it (probably)
            # already fsynced stands.  Wasted budget, never over-spent.
            self._counters["timeouts"] += 1
            counter_add("http.timeouts")
            raise _HttpError(503, {"error": "timeout",
                                   "timeout_seconds": self.request_timeout,
                                   "note": "budget may be charged; it is never over-spent"})
        except BudgetExceeded as exc:
            self._counters["refused"] += 1
            counter_add("http.refusals")
            raise _HttpError(429, {"error": "budget_exhausted", "analyst": exc.analyst,
                                   "requested": exc.requested, "remaining": exc.remaining})
        except OSError as exc:
            # WAL write failed: the charge rolled back, nothing was spent,
            # and no answer may be released (fail closed).
            self._counters["wal_errors"] += 1
            counter_add("http.wal_errors")
            raise _HttpError(503, {"error": "ledger_unavailable", "detail": str(exc)})
        finally:
            self._inflight -= 1
        self._counters["served"] += 1
        counter_add("http.served")
        return 200, result, {}

    def _parse_queries(self, body: Dict[str, object]) -> np.ndarray:
        queries = body.get("queries")
        if not isinstance(queries, list) or not queries:
            raise _HttpError(400, {"error": "queries must be a non-empty list"})
        # np.asarray would turn strings and booleans into numbers.  A row that
        # is no list fails here too: a number cannot be iterated, and a string
        # or an object yields strings.
        try:
            kinds = set(map(type, itertools.chain.from_iterable(queries)))
        except TypeError:
            kinds = {None}
        if not kinds <= _JSON_NUMBERS:
            raise _HttpError(400, {"error": "queries must be rows of JSON numbers"})
        try:
            rows = np.asarray(queries, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            raise _HttpError(400, {"error": "queries must be numeric rows"})
        dims = self.supervisor.engine.dims
        if rows.ndim != 2 or rows.shape[1] != 2 * dims:
            raise _HttpError(400, {"error": f"each query row must have {2 * dims} "
                                            f"values (lo..., hi...) for a {dims}-d engine"})
        try:
            queries_to_arrays(rows, dims)  # finite bounds with lo <= hi, before any charge
        except ValueError as exc:
            raise _HttpError(400, {"error": str(exc)})
        return rows

    def _query_work(self, analyst: str, rows: np.ndarray, epsilon: float,
                    request_id: int, due: List[FaultSpec]) -> Dict[str, object]:
        """The blocking core of one query request (runs on an executor thread).

        Order is the contract: injected faults first (they model a sick
        backend, not a sick request), then the durable charge, then the
        evaluation.  A crash after the charge wastes ε; reordering would risk
        answering without a durable charge, which is the one forbidden state.
        """
        for spec in due:
            if spec.kind in ("kill-worker", "oom-worker"):
                self.supervisor.drill(spec.kind)
        remaining = self.ledger.charge(analyst, epsilon, request_id=request_id)
        for spec in due:
            if spec.kind == "slow-chunk":
                time.sleep(spec.param)
        result = self.supervisor.evaluate(rows)
        return {
            "estimates": result.estimates.tolist(),
            "nodes_touched": result.nodes_touched.tolist(),
            "variances": result.variances.tolist(),
            "analyst": analyst,
            "epsilon_charged": epsilon,
            "remaining": remaining,
            "generation": self.supervisor.generation,
            "request": request_id,
        }

    # ------------------------------------------------------------------
    # /admin/swap
    # ------------------------------------------------------------------
    async def _handle_swap(self, body: Dict[str, object]) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        path = body.get("path")
        if not isinstance(path, str) or not path:
            raise _HttpError(400, {"error": "missing engine path"})
        loop = asyncio.get_running_loop()
        try:
            # Verified like `repro serve` at startup: a file failing its
            # checksums must never replace a healthy generation.
            engine = await loop.run_in_executor(None, partial(load_engine, path, verify=True))
        except FileNotFoundError:
            raise _HttpError(400, {"error": f"engine file not found: {path}"})
        except Exception as exc:
            raise _HttpError(400, {"error": f"engine load failed: {exc}"})
        generation = await loop.run_in_executor(None, self.supervisor.swap, engine)
        counter_add("http.swaps")
        return 200, {"status": "swapped", "generation": generation, "path": path}, {}

    # ------------------------------------------------------------------
    def _stats(self) -> Dict[str, object]:
        return {
            "service": dict(self._counters,
                            inflight=self._inflight,
                            max_inflight=self.max_inflight,
                            admitted=self._requests),
            "supervisor": self.supervisor.stats(),
            "ledger": {"seq": self.ledger.seq,
                       "replayed_records": self.ledger.replayed_records,
                       "analysts": len(self.ledger.accounts())},
            "faults": self.faults.stats(),
        }


async def _discard(reader: asyncio.StreamReader, n_bytes: int) -> None:
    """Read and drop up to ``n_bytes`` from ``reader``, stopping early at EOF."""
    while n_bytes > 0:
        chunk = await reader.read(min(n_bytes, 1 << 16))
        if not chunk:
            return
        n_bytes -= len(chunk)


class ServiceThread:
    """Run a :class:`QueryService` on a background event-loop thread.

    For tests, benchmarks and examples that need a live HTTP endpoint inside
    one process: ``start()`` blocks until the port is bound (``service.port``
    is then real, even for port 0), ``stop()`` tears the loop down cleanly.
    The supervisor and ledger stay owned by the caller.
    """

    def __init__(self, service: QueryService) -> None:
        self.service = service
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._error: Optional[BaseException] = None

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self.service.start()
        except BaseException as exc:
            self._error = exc
            self._started.set()
            raise
        self._started.set()
        try:
            await self._stop.wait()
        finally:
            await self.service.stop()

    def start(self) -> "ServiceThread":
        self._thread = threading.Thread(target=lambda: asyncio.run(self._main()),
                                        name="repro-serve", daemon=True)
        self._thread.start()
        self._started.wait(timeout=30.0)
        if self._error is not None:
            raise RuntimeError("service failed to start") from self._error
        if not self._started.is_set():
            raise RuntimeError("service did not bind within 30s")
        return self

    @property
    def address(self) -> Tuple[str, int]:
        return (self.service.host, self.service.port)

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30.0)
        self._thread = None

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

"""In-memory span recording for the traced runs, written out when a process ends.

The benchmark records spans only from its own files, around public calls
into the program: the traced server launcher wraps ``BudgetLedger.charge``,
``EngineSupervisor.evaluate`` and ``ShardedQueryServer.batch_query``; the
sweep process wraps the ``SweepCase.build`` callables it hands to
``run_sweep`` and ``SweepCheckpoint.record``.  Times come from
``time.monotonic`` (``CLOCK_MONOTONIC``), which every process on the host
shares, so spans from the client, the server and pool workers line up.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import List, Optional

from stats import Span


class SpanLog:
    """Spans of one process, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.spans: List[Span] = []

    def new_id(self) -> str:
        with self._lock:
            return f"{os.getpid()}.{next(self._ids)}"

    def add(self, name: str, start: float, end: float, parent: Optional[str] = None,
            key: Optional[str] = None, span_id: Optional[str] = None) -> str:
        span_id = span_id or self.new_id()
        with self._lock:
            self.spans.append(Span(span_id, name, start, end, parent, key))
        return span_id

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_json()) + "\n")


def load_spans(paths) -> List[Span]:
    spans: List[Span] = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            spans.extend(Span.from_json(json.loads(line)) for line in handle if line.strip())
    return spans


# ----------------------------------------------------------------------
# Sweep builds: spans recorded inside pool workers
# ----------------------------------------------------------------------
_WORKER_LOG: Optional[SpanLog] = None
_WORKER_PID: Optional[int] = None


def _worker_log(span_dir: str) -> SpanLog:
    """This process's log; the first use in a process arranges its dump at exit.

    Pool workers leave through ``multiprocessing``'s exit path, which runs
    ``util.Finalize`` callbacks but not ``atexit`` handlers.
    """
    global _WORKER_LOG, _WORKER_PID
    if _WORKER_PID != os.getpid():
        from multiprocessing import util

        _WORKER_LOG, _WORKER_PID = SpanLog(), os.getpid()
        path = os.path.join(span_dir, f"build-{os.getpid()}-{time.monotonic_ns()}.jsonl")
        util.Finalize(None, _WORKER_LOG.dump, args=(path,), exitpriority=10)
    return _WORKER_LOG


class TimedBuild:
    """A ``SweepCase.build`` callable that records one span per call.

    Picklable (module level), so ``run_sweep`` ships it to its workers like
    the build it wraps.
    """

    def __init__(self, inner, case: str, parent: str, span_dir: str) -> None:
        self.inner = inner
        self.case = case
        self.parent = parent
        self.span_dir = span_dir

    def __call__(self, gen):
        start = time.monotonic()
        try:
            return self.inner(gen)
        finally:
            _worker_log(self.span_dir).add("sweep.build", start, time.monotonic(),
                                           parent=self.parent, key=self.case)

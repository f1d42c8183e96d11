"""Run ``repro serve`` through ``repro.cli.main`` with benchmark-owned spans.

Usage: ``python3 perfbench/serve_traced.py SPANS_OUT serve ENGINE [serve options]``

Wraps the public calls ``BudgetLedger.charge``, ``EngineSupervisor.evaluate``,
``ShardedQueryServer.batch_query`` and the engine load of ``repro serve``,
keeps their spans in memory and writes them to ``SPANS_OUT`` when the server
stops.  A request's spans carry the request id the server returns in each
response: the charge receives it, and the evaluation that follows on the
same executor thread inherits it.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

from spans import SpanLog

LOG = SpanLog()
_local = threading.local()


def _timed(name, method, before=None):
    @functools.wraps(method)
    def wrapper(*args, **kwargs):
        span_id = LOG.new_id()
        key, parent = (before(span_id, *args, **kwargs) if before else (None, None))
        start = time.monotonic()
        try:
            return method(*args, **kwargs)
        finally:
            LOG.add(name, start, time.monotonic(), parent=parent, key=key, span_id=span_id)
    return wrapper


def _enter_charge(span_id, self, analyst, epsilon, request_id=None):
    _local.request = None if request_id is None else str(request_id)
    return _local.request, None


def _enter_evaluate(span_id, *args, **kwargs):
    _local.evaluate = span_id
    return getattr(_local, "request", None), None


def _enter_batch(span_id, *args, **kwargs):
    return getattr(_local, "request", None), getattr(_local, "evaluate", None)


def install() -> None:
    import repro.cli
    from repro.parallel.serve import ShardedQueryServer
    from repro.serve.ledger import BudgetLedger
    from repro.serve.supervisor import EngineSupervisor

    BudgetLedger.charge = _timed("serve.ledger.charge", BudgetLedger.charge, _enter_charge)
    EngineSupervisor.evaluate = _timed("serve.supervisor.evaluate", EngineSupervisor.evaluate,
                                       _enter_evaluate)
    ShardedQueryServer.batch_query = _timed("parallel.serve.batch_query",
                                            ShardedQueryServer.batch_query, _enter_batch)
    repro.cli.load_engine = _timed("engine.store.attach", repro.cli.load_engine)


def main(argv) -> int:
    spans_out, serve_argv = argv[0], argv[1:]
    install()
    import repro.cli

    try:
        return repro.cli.main(serve_argv)
    finally:
        LOG.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Observability: process-local metrics, span tracing, host metadata.

Off by default, zero RNG draws, bitwise-identical releases with or without
instrumentation — see :mod:`repro.obs.registry` and :mod:`repro.obs.trace`
for the contracts, and ``benchmarks/bench_obs_overhead.py`` for the ≤ 5%
overhead gate.

Snapshot/merge plumbing for the process pool lives in :func:`obs_snapshot`
and :func:`merge_obs_snapshot`: a worker drains its registry and tracer into
one picklable dict that rides back with each task result; the parent merges
every such dict into its own registry/tracer so a ``--workers N`` run reports
one unified view.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .hostmeta import host_metadata, write_bench_json
from .registry import (
    DEFAULT_TIME_BUCKETS,
    Histogram,
    MetricsRegistry,
    active_registry,
    counter_add,
    disable_metrics,
    enable_metrics,
    format_metrics,
    gauge_max,
    gauge_set,
    metrics_enabled,
    metrics_payload,
    observe,
)
from .trace import (
    Tracer,
    active_tracer,
    disable_tracing,
    enable_tracing,
    trace_span,
    tracing_enabled,
)

__all__ = [
    "DEFAULT_TIME_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "active_registry",
    "active_tracer",
    "counter_add",
    "disable_metrics",
    "disable_tracing",
    "enable_metrics",
    "enable_tracing",
    "format_metrics",
    "gauge_max",
    "gauge_set",
    "host_metadata",
    "merge_obs_snapshot",
    "metrics_enabled",
    "metrics_payload",
    "obs_snapshot",
    "observe",
    "trace_span",
    "tracing_enabled",
    "write_bench_json",
]


def obs_snapshot() -> Optional[Dict[str, Any]]:
    """Drain this process's registry and tracer into one picklable dict.

    Returns ``None`` when observability is off, so the common case adds
    nothing to task results.  Draining (rather than snapshotting) means a
    worker that serves several tasks reports each task's increments exactly
    once.
    """
    registry = active_registry()
    tracer = active_tracer()
    if registry is None and tracer is None:
        return None
    payload: Dict[str, Any] = {}
    if registry is not None:
        payload["metrics"] = registry.drain()
    if tracer is not None:
        payload["trace"] = tracer.drain_events()
    return payload


def merge_obs_snapshot(payload: Optional[Dict[str, Any]]) -> None:
    """Fold a worker's :func:`obs_snapshot` into this process's registry/tracer."""
    if not payload:
        return
    registry = active_registry()
    if registry is not None:
        registry.merge(payload.get("metrics"))
    tracer = active_tracer()
    if tracer is not None:
        tracer.absorb(payload.get("trace"))

"""Process-local metrics: counters, gauges and fixed-bucket histograms.

The registry is the numeric half of the observability layer (the other half,
span tracing, lives in :mod:`repro.obs.trace`).  Three instrument types with
hard merge semantics, chosen so that per-process registries can be combined
into one coherent view of a multi-process run:

* **counters** accumulate (``+=``) and merge by **sum** — events, bytes,
  queries, chunks.  Per-worker quantities carry a label (e.g.
  ``worker=<pid>``) so the merged registry still shows the per-worker split;
* **gauges** hold a point-in-time value and merge by **max** — suitable for
  peaks (frontier size, queue depth) and for idempotent readings that every
  process reports identically (privacy spend per level).  A quantity that
  should *add* across workers belongs in a counter, not a gauge;
* **histograms** count observations into fixed buckets (numpy ``int64``
  arrays) and merge by elementwise bucket sum.  Span durations land here via
  :func:`repro.obs.trace.trace_span`.

Every operation holds one internal lock, so a registry can be shared by the
serving threads of one process.  :meth:`MetricsRegistry.snapshot` returns a
plain picklable dict; :meth:`MetricsRegistry.merge` folds such a snapshot in.
The :meth:`MetricsRegistry.drain` variant snapshots **and resets**, which is
how pool workers report per-task increments without double counting.

Observability is **off by default**: the module-level helpers
(:func:`counter_add` and friends) are no-ops — a single global read plus a
``None`` check — until :func:`enable_metrics` installs an active registry.
Nothing in this module touches any random number generator, so enabling
metrics can never change released bits (the tests assert exactly that).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "DEFAULT_TIME_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "active_registry",
    "counter_add",
    "disable_metrics",
    "enable_metrics",
    "format_metrics",
    "gauge_max",
    "gauge_set",
    "metrics_enabled",
    "metrics_payload",
    "observe",
]

#: Labels in canonical form: a sorted tuple of (key, value) string pairs.
LabelKey = Tuple[Tuple[str, str], ...]
#: One metric series: its name plus its canonical labels.
MetricKey = Tuple[str, LabelKey]

#: Default histogram bucket upper bounds, sized for wall-clock seconds (an
#: implicit +inf bucket catches everything above the last edge).
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0,
)


def _key(name: str, labels: Mapping[str, object]) -> MetricKey:
    if not labels:
        return (name, ())
    return (name, tuple(sorted((str(k), str(v)) for k, v in labels.items())))


class Histogram:
    """Fixed-bucket observation counts plus sum / count / min / max.

    ``edges`` are the bucket upper bounds; bucket ``i`` counts observations
    ``<= edges[i]`` (and above ``edges[i - 1]``), with one extra overflow
    bucket beyond the last edge.  Counts live in one numpy ``int64`` array so
    a merge is a single vector add.
    """

    __slots__ = ("edges", "counts", "total", "count", "vmin", "vmax")

    def __init__(self, edges: Sequence[float] = DEFAULT_TIME_BUCKETS) -> None:
        self.edges = np.asarray(edges, dtype=np.float64)
        if self.edges.ndim != 1 or self.edges.size == 0:
            raise ValueError("histogram edges must be a non-empty 1-d sequence")
        if np.any(np.diff(self.edges) <= 0):
            raise ValueError("histogram edges must be strictly increasing")
        self.counts = np.zeros(self.edges.size + 1, dtype=np.int64)
        self.total = 0.0
        self.count = 0
        self.vmin: Optional[float] = None
        self.vmax: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[int(np.searchsorted(self.edges, value, side="left"))] += 1
        self.total += value
        self.count += 1
        self.vmin = value if self.vmin is None else min(self.vmin, value)
        self.vmax = value if self.vmax is None else max(self.vmax, value)

    # ------------------------------------------------------------------
    def state(self) -> Dict[str, object]:
        """A plain picklable dict (the snapshot form)."""
        return {
            "edges": tuple(float(e) for e in self.edges),
            "counts": tuple(int(c) for c in self.counts),
            "total": self.total,
            "count": self.count,
            "min": self.vmin,
            "max": self.vmax,
        }

    def merge_state(self, state: Mapping[str, object]) -> None:
        edges = np.asarray(state["edges"], dtype=np.float64)
        if edges.shape != self.edges.shape or not np.array_equal(edges, self.edges):
            raise ValueError("cannot merge histograms with different bucket edges")
        self.counts += np.asarray(state["counts"], dtype=np.int64)
        self.total += float(state["total"])
        self.count += int(state["count"])
        for incoming, pick in ((state["min"], min), (state["max"], max)):
            if incoming is None:
                continue
            attr = "vmin" if pick is min else "vmax"
            current = getattr(self, attr)
            setattr(self, attr, float(incoming) if current is None
                    else pick(current, float(incoming)))

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "Histogram":
        hist = cls(edges=state["edges"])
        hist.merge_state(state)
        return hist


class MetricsRegistry:
    """A lock-protected store of counters, gauges and histograms.

    All mutation goes through the instrument methods; reads return copies so
    callers can never observe (or corrupt) in-flight state.  Snapshots are
    plain dicts keyed by ``(name, ((label, value), ...))`` tuples — fully
    picklable, so a worker process can return its registry with a task result
    and the parent can :meth:`merge` it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[MetricKey, float] = {}
        self._gauges: Dict[MetricKey, float] = {}
        self._hists: Dict[MetricKey, Histogram] = {}

    # ------------------------------------------------------------------
    # Instruments
    # ------------------------------------------------------------------
    def counter_add(self, name: str, value: float = 1.0, **labels: object) -> None:
        """Add ``value`` to a counter (created at zero on first use)."""
        key = _key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + float(value)

    def gauge_set(self, name: str, value: float, **labels: object) -> None:
        """Set a gauge to ``value`` (last write wins within this process)."""
        with self._lock:
            self._gauges[_key(name, labels)] = float(value)

    def gauge_max(self, name: str, value: float, **labels: object) -> None:
        """Raise a gauge to ``value`` if it is the largest seen so far."""
        key = _key(name, labels)
        with self._lock:
            current = self._gauges.get(key)
            if current is None or value > current:
                self._gauges[key] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
        **labels: object,
    ) -> None:
        """Record one observation into a fixed-bucket histogram."""
        key = _key(name, labels)
        with self._lock:
            hist = self._hists.get(key)
            if hist is None:
                hist = Histogram(edges=buckets)
                self._hists[key] = hist
            hist.observe(value)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def counter_value(self, name: str, **labels: object) -> float:
        with self._lock:
            return self._counters.get(_key(name, labels), 0.0)

    def counter_total(self, name: str) -> float:
        """Sum of a counter across all of its label sets."""
        with self._lock:
            return sum(v for (n, _), v in self._counters.items() if n == name)

    def gauge_value(self, name: str, **labels: object) -> Optional[float]:
        with self._lock:
            return self._gauges.get(_key(name, labels))

    def histogram(self, name: str, **labels: object) -> Optional[Dict[str, object]]:
        with self._lock:
            hist = self._hists.get(_key(name, labels))
            return None if hist is None else hist.state()

    # ------------------------------------------------------------------
    # Snapshot / merge / drain
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[MetricKey, object]]:
        """A plain picklable copy of every series."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {k: h.state() for k, h in self._hists.items()},
            }

    def drain(self) -> Dict[str, Dict[MetricKey, object]]:
        """Snapshot **and reset** — the per-task reporting unit of pool workers.

        Each task's drain holds only that task's increments, so the parent can
        merge every drain without ever double counting a worker that served
        several tasks.
        """
        with self._lock:
            snap = {
                "counters": self._counters,
                "gauges": self._gauges,
                "histograms": {k: h.state() for k, h in self._hists.items()},
            }
            self._counters = {}
            self._gauges = {}
            self._hists = {}
            return snap

    def merge(self, snap: Optional[Mapping[str, Mapping]]) -> None:
        """Fold a snapshot in: counters sum, gauges max, histogram buckets sum."""
        if not snap:
            return
        with self._lock:
            for key, value in snap.get("counters", {}).items():
                self._counters[key] = self._counters.get(key, 0.0) + float(value)
            for key, value in snap.get("gauges", {}).items():
                current = self._gauges.get(key)
                if current is None or value > current:
                    self._gauges[key] = float(value)
            for key, state in snap.get("histograms", {}).items():
                hist = self._hists.get(key)
                if hist is None:
                    self._hists[key] = Histogram.from_state(state)
                else:
                    hist.merge_state(state)

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._hists.clear()


# ----------------------------------------------------------------------
# The module-level active registry (off by default)
# ----------------------------------------------------------------------
_ACTIVE: Optional[MetricsRegistry] = None


def enable_metrics(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Install (and return) the process's active registry.

    Until this is called every instrumentation helper is a no-op, which is the
    hard off-by-default contract: uninstrumented runs pay one global read per
    call site and nothing else.
    """
    global _ACTIVE
    _ACTIVE = registry if registry is not None else MetricsRegistry()
    return _ACTIVE


def disable_metrics() -> Optional[MetricsRegistry]:
    """Remove and return the active registry (helpers become no-ops again)."""
    global _ACTIVE
    registry, _ACTIVE = _ACTIVE, None
    return registry


def active_registry() -> Optional[MetricsRegistry]:
    return _ACTIVE


def metrics_enabled() -> bool:
    return _ACTIVE is not None


def counter_add(name: str, value: float = 1.0, **labels: object) -> None:
    registry = _ACTIVE
    if registry is not None:
        registry.counter_add(name, value, **labels)


def gauge_set(name: str, value: float, **labels: object) -> None:
    registry = _ACTIVE
    if registry is not None:
        registry.gauge_set(name, value, **labels)


def gauge_max(name: str, value: float, **labels: object) -> None:
    registry = _ACTIVE
    if registry is not None:
        registry.gauge_max(name, value, **labels)


def observe(name: str, value: float,
            buckets: Sequence[float] = DEFAULT_TIME_BUCKETS, **labels: object) -> None:
    registry = _ACTIVE
    if registry is not None:
        registry.observe(name, value, buckets=buckets, **labels)


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def _format_key(key: MetricKey) -> str:
    name, labels = key
    if not labels:
        return name
    return name + "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


def metrics_payload(registry: MetricsRegistry) -> Dict[str, List[Dict[str, object]]]:
    """The registry as a JSON-serialisable structure (stable sort by series)."""
    snap = registry.snapshot()
    payload: Dict[str, List[Dict[str, object]]] = {"counters": [], "gauges": [], "histograms": []}
    for key in sorted(snap["counters"]):
        payload["counters"].append(
            {"name": key[0], "labels": dict(key[1]), "value": snap["counters"][key]}
        )
    for key in sorted(snap["gauges"]):
        payload["gauges"].append(
            {"name": key[0], "labels": dict(key[1]), "value": snap["gauges"][key]}
        )
    for key in sorted(snap["histograms"]):
        state = snap["histograms"][key]
        payload["histograms"].append({"name": key[0], "labels": dict(key[1]), **state})
    return payload


def format_metrics(registry: MetricsRegistry, title: str = "metrics") -> str:
    """A fixed-width text summary (the ``--metrics`` CLI output)."""
    snap = registry.snapshot()
    lines: List[str] = [title]
    if snap["counters"]:
        lines.append("  counters:")
        for key in sorted(snap["counters"]):
            value = snap["counters"][key]
            rendered = f"{value:g}" if value != int(value) else f"{int(value)}"
            lines.append(f"    {_format_key(key):<56} {rendered}")
    if snap["gauges"]:
        lines.append("  gauges:")
        for key in sorted(snap["gauges"]):
            lines.append(f"    {_format_key(key):<56} {snap['gauges'][key]:g}")
    if snap["histograms"]:
        lines.append("  histograms:")
        for key in sorted(snap["histograms"]):
            state = snap["histograms"][key]
            count = state["count"]
            mean = state["total"] / count if count else 0.0
            lines.append(
                f"    {_format_key(key):<56} count={count} total={state['total']:.6g} "
                f"mean={mean:.6g} max={state['max'] if state['max'] is not None else '-'}"
            )
    if len(lines) == 1:
        lines.append("  (no metrics recorded)")
    return "\n".join(lines)

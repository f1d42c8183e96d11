"""The benchmark's own arithmetic: percentiles, span self time, coverage, digests.

Pure functions with no I/O, so ``perfbench/tests`` can check every number
the benchmark reports against hand-computed cases.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values: Iterable[float]) -> float:
    """The median, or 0.0 for an empty sample (a layer that did no work)."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail_percentile(samples: Sequence[float], beyond: int = TAIL_BEYOND) -> Tuple[float, float, int]:
    """The highest percentile that still has ``beyond`` samples above it.

    Returns ``(value, percentile, n)``.  With ``n`` samples sorted ascending,
    the value is the ``(n - beyond)``-th smallest, so exactly ``beyond``
    samples rank above it, and its percentile is ``100 * (n - beyond) / n``.
    A sample too small to leave ``beyond`` samples above any value reports
    its maximum at percentile 100.  Failed operations enter as ``inf``, so
    they rank above every finite latency.
    """
    if not samples:
        raise ValueError("tail_percentile needs at least one sample")
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 100.0, n
    rank = n - beyond
    return ordered[rank - 1], 100.0 * rank / n, n


def due_latencies(outcomes: Sequence["Outcome"]) -> List[float]:
    """Seconds from each request's due time to its answer; ``inf`` if it failed."""
    return [o.end - o.due if o.ok else math.inf for o in outcomes]


def failed_share(outcomes: Sequence["Outcome"]) -> float:
    """Failed requests over attempted ones (0.0 when nothing was attempted)."""
    if not outcomes:
        return 0.0
    return sum(1 for o in outcomes if not o.ok) / len(outcomes)


@dataclass
class Outcome:
    """One request as the load generator saw it (times from ``time.monotonic``)."""

    due: float
    start: float
    end: float
    status: Optional[int]
    queries: int
    body: bytes = b""

    @property
    def ok(self) -> bool:
        return self.status == 200


@dataclass
class Span:
    """One timed call: name, interval, parent span id and the request/case id."""

    span_id: str
    name: str
    start: float
    end: float
    parent: Optional[str] = None
    key: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> Dict[str, object]:
        return {"id": self.span_id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "key": self.key}

    @staticmethod
    def from_json(record: Dict[str, object]) -> "Span":
        return Span(str(record["id"]), str(record["name"]), float(record["start"]),
                    float(record["end"]), record.get("parent"), record.get("key"))


def covered_time(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``.

    Overlapping children (two workers building at once) count once.
    """
    clipped = sorted((max(lo, start), min(hi, end)) for lo, hi in intervals)
    total = 0.0
    run_lo = run_hi = None
    for lo, hi in clipped:
        if hi <= lo:
            continue
        if run_hi is None or lo > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = lo, hi
        else:
            run_hi = max(run_hi, hi)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def children_of(spans: Sequence[Span]) -> Dict[str, List[Span]]:
    """Parent span id -> its child spans."""
    out: Dict[str, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            out.setdefault(span.parent, []).append(span)
    return out


def self_time(span: Span, children: Sequence[Span]) -> float:
    """A span's duration minus the part of it its children cover."""
    return span.duration - covered_time(span.start, span.end,
                                        [(c.start, c.end) for c in children])


def coverage(roots: Sequence[Span], spans: Sequence[Span]) -> float:
    """Share of the roots' wall time that their child spans attribute to a layer."""
    kids = children_of(spans)
    wall = sum(root.duration for root in roots)
    if wall <= 0:
        return 0.0
    covered = sum(root.duration - self_time(root, kids.get(root.span_id, [])) for root in roots)
    return covered / wall


def rows_digest(rows: Sequence[Dict[str, object]]) -> str:
    """SHA-256 of sweep rows with floats as ``float.hex``: equal rows, equal digest."""
    def encode(value):
        return value.hex() if isinstance(value, float) else value

    canonical = [{key: encode(value) for key, value in sorted(row.items())} for row in rows]
    return hashlib.sha256(json.dumps(canonical, sort_keys=True).encode()).hexdigest()

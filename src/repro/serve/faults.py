"""Deterministic fault injection for the serving and sweep layers — no RNG, ever.

Faults fire on *counts*: a spec like ``kill-worker:7`` crashes one pool
worker on every 7th admitted query request (requests 7, 14, 21, ...).
Because the schedule is a pure function of a monotone counter, a test or
benchmark that replays the same request sequence replays the same faults —
the harness is as reproducible as the engine it torments.

Two consumers key the same schedule machinery on different counters: the
HTTP serving layer counts *admitted requests*, the crash-safe sweep executor
(:mod:`repro.parallel.sweep`) counts *case submissions* to its process pool
(resubmissions after a crash keep incrementing the counter, so a recurring
fault cannot pin one case into an infinite crash loop).

Five fault kinds, each aimed at a different failure surface:

=================  ==========================================================
``kill-worker``    hard-exits one pool worker (``os._exit`` in the worker);
                   the supervised pool must rebuild and replay the work
``slow-chunk``     sleeps inside request handling (param = seconds,
                   default 0.05); drives timeout and load-shedding paths
``slow-case``      sleeps inside a sweep worker before computing the case
                   (param = seconds, default 0.05); drives the sweep's
                   per-case soft-timeout retry and in-process fallback paths
``wal-io-error``   the budget ledger's append raises ``OSError`` for that
                   request; the charge must fail closed (no spend, no answer)
``oom-worker``     a pool task raises ``MemoryError`` in a worker; the pool
                   must survive and the work must still complete
=================  ==========================================================

Specs are ``kind:every`` or ``kind:every:param`` and compose by comma:
``kill-worker:50,slow-chunk:13:0.02``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Union

__all__ = [
    "FAULT_KINDS",
    "SWEEP_FAULT_KINDS",
    "FaultSpec",
    "FaultInjector",
    "parse_fault",
    "parse_faults",
]

FAULT_KINDS = ("kill-worker", "slow-chunk", "slow-case", "wal-io-error", "oom-worker")

#: The fault kinds the crash-safe sweep executor understands (``repro
#: experiment --fault``); the serving layer accepts the full set.
SWEEP_FAULT_KINDS = ("kill-worker", "slow-case", "oom-worker")

#: Default sleep for ``slow-chunk`` when the spec names no param.
DEFAULT_SLOW_SECONDS = 0.05


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault schedule: fire on every ``every``-th request."""

    kind: str
    every: int
    param: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (choose from {FAULT_KINDS})")
        if self.every < 1:
            raise ValueError("fault period must be at least 1")
        if not math.isfinite(self.param) or self.param < 0:
            raise ValueError("fault param must be a non-negative finite number")

    def fires_on(self, request_count: int) -> bool:
        """Whether this fault fires for the ``request_count``-th request (1-based)."""
        return request_count >= 1 and request_count % self.every == 0


def parse_fault(spec: str) -> FaultSpec:
    """Parse one ``kind:every[:param]`` spec string."""
    parts = str(spec).strip().split(":")
    if len(parts) not in (2, 3):
        raise ValueError(
            f"malformed fault spec {spec!r}: expected kind:every or kind:every:param"
        )
    kind = parts[0].strip()
    try:
        every = int(parts[1])
    except ValueError:
        raise ValueError(f"malformed fault spec {spec!r}: period must be an integer")
    param = 0.0
    if len(parts) == 3:
        try:
            param = float(parts[2])
        except ValueError:
            raise ValueError(f"malformed fault spec {spec!r}: param must be a number")
    if kind in ("slow-chunk", "slow-case") and param == 0.0:
        param = DEFAULT_SLOW_SECONDS
    return FaultSpec(kind=kind, every=every, param=param)


def parse_faults(specs: Union[str, Iterable[str], None]) -> List[FaultSpec]:
    """Parse a comma-joined string or an iterable of spec strings."""
    if not specs:
        return []
    if isinstance(specs, str):
        specs = [part for part in specs.split(",") if part.strip()]
    return [parse_fault(spec) for spec in specs]


class FaultInjector:
    """Evaluates fault schedules against the request counter and keeps tallies.

    Stateless with respect to *which* faults fire (a pure function of the
    request count), stateful only for the fired-count report — so concurrent
    requests can consult it without coordination beyond the tally lock the
    caller already holds for its own counters.
    """

    def __init__(self, specs: Sequence[FaultSpec] = ()) -> None:
        self.specs = list(specs)
        self.fired: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}

    def __bool__(self) -> bool:
        return bool(self.specs)

    def for_request(self, request_count: int) -> List[FaultSpec]:
        """The faults scheduled for the ``request_count``-th request (1-based)."""
        due = [spec for spec in self.specs if spec.fires_on(request_count)]
        for spec in due:
            self.fired[spec.kind] += 1
        return due

    def wal_error_scheduled(self, request_count: int) -> bool:
        """Whether a ``wal-io-error`` is scheduled for this request.

        A pure predicate (no tally) so the ledger's io hook can consult the
        schedule from any thread using only the request id in the record.
        """
        return any(
            spec.kind == "wal-io-error" and spec.fires_on(request_count)
            for spec in self.specs
        )

    def stats(self) -> Dict[str, int]:
        """Fired-count per fault kind (zero entries elided)."""
        return {kind: count for kind, count in self.fired.items() if count}

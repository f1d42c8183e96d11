"""Process-parallel execution of sweep cases with a hard determinism contract.

:func:`repro.experiments.common.run_sweep` gives every case its own child RNG
stream (one ``SeedSequence.spawn`` per case, in case order) regardless of the
``workers`` setting — which makes case execution order irrelevant to the
released bits.  This module is the sweep's one case executor, for every
worker count.  With one worker, or one case, it runs every case in the
parent.  Otherwise it ships the cases and workloads to a process pool
**once** per pool start, runs each case under its spawned generator, and
reassembles the per-case rows in case order — bitwise identical to running
them all in the parent.  Checkpoint skips and the journal hook work the
same either way.

Three pieces keep the fan-out cheap:

* the whole worker state (cases, workloads, an empty matrix cache) ships as
  one pickle per pool start, so a task is just ``(case index, generator)``;
* cases that share one points array or structure object pickle it once
  (pickle's memo keeps one copy per object);
* each worker keeps its own query-matrix cache across the cases it runs, so
  a decomposition is compiled at most once per worker (e.g. the four
  Figure-3 quadtree variants share one geometry).

Cases whose build closure cannot be pickled fall back to running in the
parent process with their same spawned generator — slower, never wrong.

Fault tolerance
---------------
The per-case spawn contract also makes the executor *recoverable*: since a
case's rows depend only on its own generator, any case can be re-run — on a
rebuilt pool, or in the parent — and produce the same bits.  The cases run
on a :class:`~repro.parallel.pool.ResilientPool`, whose recovery paths
(rebuild after a worker crash, retry-once on ``case_timeout``, in-process
fallback) therefore keep a fault-ridden ``workers=N`` sweep bitwise
identical to a healthy ``workers=1`` run.  Deterministic fault schedules
(``--fault kill-worker:N``, see :mod:`repro.serve.faults`) are keyed on the
pool's monotone *submission* counter.
"""

from __future__ import annotations

import os
import pickle
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .pool import ResilientPool

__all__ = ["resolve_workers", "run_cases_parallel"]


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``workers=`` argument: ``None``/``0`` mean one in-process
    worker, negative values mean "all cores"."""
    if workers is None or workers == 0:
        return 1
    if workers < 0:
        return max(1, os.cpu_count() or 1)
    return int(workers)


def _run_case(state: Dict, index: int, gen: np.random.Generator):
    from ..experiments.common import case_rows

    return case_rows(state["cases"][index], gen, state["workloads"], state["matrix_cache"])


def run_cases_parallel(
    cases: Sequence,
    case_gens: Sequence[np.random.Generator],
    workloads: Dict,
    workers: int,
    *,
    skip: Sequence[int] = (),
    on_case_done: Optional[Callable[[int, List[Dict[str, object]]], None]] = None,
    faults=None,
    case_timeout: Optional[float] = None,
) -> List[Optional[List[Dict[str, object]]]]:
    """Execute every case, on a fault-tolerant process pool; rows in case order.

    Each case runs under its pre-spawned generator ``case_gens[i]``, so the
    result is bitwise identical to running the cases sequentially with the
    same generators — including every recovery path of the pool, which only
    ever *re-runs* a case under its original generator.  With one worker or
    one case no pool starts and every case runs in the parent; unpicklable
    cases run there too (while the pool works on the rest), under the same
    contract.

    Parameters beyond the original four:

    ``skip``
        Case indices already satisfied elsewhere (checkpoint replay); they
        are neither submitted nor recomputed and come back as ``None`` in the
        returned list.  When every case is skipped no pool starts.
    ``on_case_done``
        Called as ``on_case_done(index, rows)`` the moment a case completes
        (pool result, in-process fallback, or parent-local) — the checkpoint
        journaling hook.
    ``faults``
        A :class:`~repro.serve.faults.FaultInjector` or a sequence of
        :class:`~repro.serve.faults.FaultSpec`; schedules are keyed on the
        monotone submission counter (resubmissions keep counting).
    ``case_timeout``
        Soft per-case seconds: an overdue case is resubmitted once, then
        falls back to in-process execution.
    """
    from ..experiments.common import case_rows
    from ..serve.faults import FaultInjector

    if len(cases) != len(case_gens):
        raise ValueError("one spawned generator per case is required")
    skipped = set(int(i) for i in skip)
    todo = [i for i in range(len(cases)) if i not in skipped]
    pooled = int(workers) > 1 and len(cases) > 1
    shipped = {i: cases[i] for i in todo if pooled and _probe_picklable(cases[i])}
    rows_by_case: Dict[int, List[Dict[str, object]]] = {}

    def finish(i: int, rows: List[Dict[str, object]]) -> None:
        rows_by_case[i] = rows
        if on_case_done is not None:
            on_case_done(i, rows)

    def run_local() -> None:
        local_cache: Dict = {}
        for i in todo:
            if i not in shipped:
                finish(i, case_rows(cases[i], case_gens[i], workloads, local_cache))

    if shipped:
        state = {
            "cases": shipped,
            "workloads": workloads,
            "matrix_cache": {},  # one per worker process, filled as it runs cases
        }
        injector = faults if isinstance(faults, FaultInjector) else FaultInjector(list(faults or ()))
        with ResilientPool(state, min(int(workers), len(shipped)), name="sweep",
                           task_timeout=case_timeout, faults=injector) as pool:
            pool.run(_run_case, {i: (i, case_gens[i]) for i in shipped},
                     on_result=finish, meanwhile=run_local)
    else:
        run_local()
    return [rows_by_case.get(i) for i in range(len(cases))]


class _StubArrayPickler(pickle.Pickler):
    """A picklability probe that skips ndarray payloads entirely.

    Arrays always pickle, so the only question a probe needs answered is
    whether the case's *object shell* — typically its build callable — can
    cross a process boundary.  Stubbing every array keeps the probe
    O(shell), not O(data).
    """

    def persistent_id(self, obj):
        return ("stub-array",) if isinstance(obj, np.ndarray) else None


def _probe_picklable(case) -> bool:
    """Whether a case can ship to workers (True) or must run in the parent."""
    import io

    try:
        _StubArrayPickler(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL).dump(case)
        return True
    except Exception:
        return False

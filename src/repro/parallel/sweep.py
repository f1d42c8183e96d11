"""Process-parallel execution of sweep cases with a hard determinism contract.

:func:`repro.experiments.common.run_sweep` gives every case its own child RNG
stream (one ``SeedSequence.spawn`` per case, in case order) regardless of the
``workers`` setting — which makes case execution order irrelevant to the
released bits.  This module is the ``workers > 1`` backend: it ships the
cases and workloads to a process pool **once** per worker (large
arrays ride :mod:`repro.parallel.shm` shared-memory views, not per-task
pickles), runs each case under its spawned generator, and reassembles the
per-case rows in case order — bitwise identical to the in-process path.

Three pieces keep the fan-out cheap:

* the whole worker state (cases, workloads, pre-seeded matrix cache) ships
  once per pool start, so a task is just ``(case index, generator)``;
* cases that share one immutable points array or structure export it to
  shared memory once (identity dedupe in the arena);
* cases exposing a ``shared_engine()`` probe (data-independent structures,
  e.g. the Figure-3 quadtree grid) get their workload query matrices
  compiled **in the parent** and shipped as shared CSR buffers, pre-seeding
  every worker's matrix cache so no worker recompiles a decomposition the
  sweep already knows.

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

__all__ = ["engine_from_structure", "resolve_workers", "run_cases_parallel"]


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``workers=`` argument: ``None``/``0`` mean one in-process
    worker, negative values mean "all cores"."""
    if workers is None or workers == 0:
        return 1
    if workers < 0:
        return max(1, os.cpu_count() or 1)
    return int(workers)


def engine_from_structure(structure, domain, name: str = "structure"):
    """A count-free engine view of a data-independent structure.

    Query decompositions (and therefore compiled
    :class:`~repro.engine.batch.QueryMatrix` objects) depend only on the
    geometry, the child layout and the released-count *pattern* — never on
    the count values.  For a structure whose releases fund every level, this
    builds the exact engine the release batch will expose (released counts
    zeroed), so matrices compiled against it are interchangeable with the
    batch's own — that is what lets the parent precompile one matrix per
    workload and hand the CSR buffers to every worker.
    """
    from ..engine.flat import FlatPSD, level_variances

    lo = structure.lo.astype(np.float64, copy=True)
    hi = structure.hi.astype(np.float64, copy=True)
    n = structure.n_nodes
    eps = np.ones(structure.height + 1, dtype=np.float64)
    return FlatPSD(
        lo=lo,
        hi=hi,
        level=structure.level.astype(np.int32, copy=True),
        released=np.zeros(n, dtype=np.float64),
        has_count=np.ones(n, dtype=bool),
        is_leaf=structure.is_leaf.copy(),
        child_start=structure.child_start.astype(np.int64, copy=True),
        child_end=structure.child_end.astype(np.int64, copy=True),
        area=np.prod(hi - lo, axis=1),
        count_epsilons=eps,
        level_variance=level_variances(eps),
        height=structure.height,
        fanout=structure.fanout,
        name=name,
        domain_lo=np.asarray(domain.rect.lo, dtype=np.float64),
        domain_hi=np.asarray(domain.rect.hi, dtype=np.float64),
        domain_name=domain.name,
    )


def _seed_matrix_cache(cases: Sequence, workloads: Dict) -> Dict:
    """Precompile query matrices for cases that advertise a shared structure.

    Keys match :func:`repro.experiments.common.release_workload_errors`'s
    content fingerprints, so a worker evaluating such a case hits the cache
    instead of recompiling; a fingerprint mismatch only costs a recompile.
    """
    from ..engine.batch import compile_query_matrix
    from ..experiments.common import _structure_fingerprint, _workload_fingerprint

    cache: Dict = {}
    seen_structures = set()
    for case in cases:
        probe = getattr(case.build, "shared_engine", None)
        if probe is None:
            continue
        engine = probe()
        if engine is None:
            continue
        fingerprint = _structure_fingerprint(engine)
        if fingerprint in seen_structures:
            continue
        seen_structures.add(fingerprint)
        for workload in workloads.values():
            key = (fingerprint, _workload_fingerprint(workload))
            if key not in cache:
                cache[key] = compile_query_matrix(engine, workload.queries)
    return cache


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
    max_rebuilds: int = 3,
) -> List[Optional[List[Dict[str, object]]]]:
    """Execute every case on a fault-tolerant process pool; rows in case order.

    Each case runs under its pre-spawned generator ``case_gens[i]``, so the
    result is bitwise identical to running the cases sequentially with the
    same generators — including every recovery path of the pool, which only
    ever *re-runs* a case under its original generator.  Unpicklable cases
    execute in the parent (while the pool works on the rest) under the same
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
    ``max_rebuilds``
        Broken-pool rebuilds (under the pool's bounded exponential backoff)
        before the remaining cases degrade to in-process execution.
    """
    from ..experiments.common import case_rows
    from ..serve.faults import FaultInjector

    if len(cases) != len(case_gens):
        raise ValueError("one spawned generator per case is required")
    skipped = set(int(i) for i in skip)
    todo = [i for i in range(len(cases)) if i not in skipped]
    shipped = {i: cases[i] for i in todo if _probe_picklable(cases[i])}
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
            "matrix_cache": _seed_matrix_cache(list(shipped.values()), workloads),
        }
        injector = faults if isinstance(faults, FaultInjector) else FaultInjector(list(faults or ()))
        with ResilientPool(state, min(int(workers), len(shipped)), name="sweep",
                           max_rebuilds=max_rebuilds, task_timeout=case_timeout,
                           faults=injector) as pool:
            pool.run(_run_case, {i: (i, case_gens[i]) for i in shipped},
                     on_result=finish, meanwhile=run_local)
    else:
        run_local()
    return [rows_by_case.get(i) for i in range(len(cases))]


class _StubArrayPickler(pickle.Pickler):
    """A picklability probe that skips ndarray payloads entirely.

    Arrays always pickle (and the real payload diverts the large ones into
    shared memory anyway), so the only question a probe needs answered is
    whether the case's *object shell* — typically its build callable — can
    cross a process boundary.  Stubbing every array keeps the probe O(shell)
    and, crucially, allocates no shared-memory segments for cases that turn
    out to be closure-built and must run in the parent.
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

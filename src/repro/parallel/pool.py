"""The supervised process pool behind every multicore path.

Sharded serving (:mod:`repro.parallel.serve`), process-parallel sweeps
(:mod:`repro.parallel.sweep`) and seeker-chunk matching
(:mod:`repro.parallel.matching`) all fan their tasks across one
:class:`ResilientPool`.  A task is ``fn(state, *args)``: a module-level
function over the pool's read-only worker state.  Every such task is
deterministic, so it can run again — on a rebuilt pool or in the parent —
and produce the same bits.  Each recovery path below relies on that:

=========================  ===================================================
a worker dies              ``BrokenProcessPool``: results that already
                           finished are kept, the pool is rebuilt after
                           sleeping ``min(BACKOFF_MAX_S, BACKOFF_BASE_S ·
                           2^(k−1))`` before rebuild ``k``, and only the lost
                           tasks are resubmitted
the pool cannot start      handled as a broken pool
``MAX_REBUILDS`` exceeded  the remaining tasks run in the parent
a run has degraded         later runs run every task in the parent, and
                           drills are no-ops: no worker starts and no
                           backoff sleeps until :meth:`~ResilientPool.stop`
a task raises              that task runs in the parent; the pool lives on
a task is overdue          (``task_timeout``) resubmitted once, then run in
                           the parent
=========================  ===================================================

A worker exits within ``PARENT_POLL_S`` of its parent's death, however the
parent died: a SIGKILLed sweep or server leaves no worker behind.

The worker state ships **once per pool start**: one ``pickle.dumps`` of it
is the initializer payload, so a task carries only its own small arguments.
An engine attached from a FLATPSD2 file pickles as its path and file
identity (:mod:`repro.engine.io`), so every worker maps the same pages; a
worker that finds the file replaced fails to start, and the recovery paths
below answer from the parent's mapping.  The pool starts lazily, on the
first task it has to submit.

Deterministic faults are keyed on the pool's monotone submission counter:
a :class:`~repro.serve.faults.FaultInjector` passed as ``faults`` decides, for
the n-th submission, which ``kill-worker`` / ``oom-worker`` / ``slow-case``
actions ride along with the task.  Resubmissions keep counting, so a
recurring fault cannot pin one task into an endless crash loop.
:meth:`ResilientPool.drill` runs the same kill and OOM actions on demand.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, ProcessPoolExecutor, wait
from time import monotonic, sleep
from typing import Callable, Dict, Hashable, Optional, Sequence, Tuple

from ..obs import (
    counter_add,
    disable_metrics,
    disable_tracing,
    enable_metrics,
    enable_tracing,
    merge_obs_snapshot,
    metrics_enabled,
    obs_snapshot,
    trace_span,
    tracing_enabled,
)

__all__ = ["BACKOFF_BASE_S", "BACKOFF_MAX_S", "MAX_REBUILDS", "PARENT_POLL_S", "ResilientPool"]

#: Sleep before the first rebuild of a broken pool; doubles per rebuild.
BACKOFF_BASE_S = 0.05
#: Upper bound on any one rebuild sleep.
BACKOFF_MAX_S = 1.0
#: Rebuilds allowed per :meth:`ResilientPool.run` before the remaining tasks
#: run in the parent.  Read when ``run`` executes, so a test can lower it.
MAX_REBUILDS = 3

#: Seconds to wait for an outstanding future once the pool is known broken
#: (a broken executor fails them all almost at once).
_SALVAGE_TIMEOUT_S = 30.0
#: Seconds between a worker's checks that the process that started it lives.
PARENT_POLL_S = 0.5


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: The worker state installed by :func:`_init_worker`.
_STATE: Dict = {}


def _exit_with_parent(parent: int) -> None:
    # A worker whose parent was SIGKILLed is re-parented and can wait for
    # tasks for ever, asleep in a read of its task pipe that never sees EOF.
    # Exit once the parent changes.
    while os.getppid() == parent:
        sleep(PARENT_POLL_S)
    os._exit(1)


def _init_worker(payload: bytes, obs_flags: Dict[str, bool]) -> None:
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),), daemon=True,
                     name="exit-with-parent").start()
    # Forked workers inherit the parent's Python-level signal handlers AND its
    # signal wakeup fd.  Under an asyncio parent that is poisonous: a SIGTERM
    # delivered to a *worker* (e.g. executor cleanup after a sibling crashed)
    # would run the inherited handler, which writes the signal number into the
    # shared wakeup socketpair — and the parent's event loop reads it as a
    # signal delivered to *itself*, shutting the server down.  Detach the
    # wakeup fd and restore default dispositions before running anything.
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, signal.SIG_DFL)
        except (ValueError, OSError):  # pragma: no cover
            pass
    _STATE.clear()
    _STATE.update(pickle.loads(payload))
    # Forked workers inherit the parent's active registry/tracer *object* —
    # including whatever the parent recorded before the fork — so each worker
    # starts fresh: it then reports only its own increments and the parent's
    # merge never double counts.
    if obs_flags.get("metrics"):
        enable_metrics()
    else:
        disable_metrics()
    if obs_flags.get("trace"):
        enable_tracing()  # no path: events ship back with task results
    else:
        disable_tracing(flush=False)


def _run_task(fn: Callable, args: tuple, faults: Sequence[Tuple[str, float]]):
    # Fault actions were decided in the parent at submission time, so workers
    # stay stateless and the schedule replays exactly across runs.
    for kind, param in faults:
        if kind == "kill-worker":
            os._exit(1)  # what a crashed worker looks like: no teardown at all
        elif kind == "oom-worker":
            raise MemoryError("injected oom-worker fault")
        elif kind == "slow-case":
            sleep(param)
    return fn(_STATE, *args), obs_snapshot()


def _noop(state: Dict) -> None:
    return None


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class ResilientPool:
    """A lazily started process pool that survives its workers.

    Parameters
    ----------
    state:
        The worker state, shipped once per pool start; tasks receive the
        worker's copy and the in-process fallback receives this object.
    workers:
        Pool size.
    name:
        Prefix of the pool's counters and spans (``serve``, ``sweep``, ...).
    task_timeout:
        Optional soft seconds per task: an overdue task is resubmitted once,
        then run in the parent.
    faults:
        Optional :class:`~repro.serve.faults.FaultInjector` keyed on the
        submission counter.

    Use as a context manager (or call :meth:`close`) so the workers are
    reclaimed deterministically.
    """

    def __init__(
        self,
        state: Dict,
        workers: int,
        *,
        name: str,
        task_timeout: Optional[float] = None,
        faults=None,
    ) -> None:
        self.state = state
        self.workers = int(workers)
        self.name = name
        self.task_timeout = task_timeout
        self.faults = faults
        self._executor: Optional[ProcessPoolExecutor] = None
        # Tasks abandoned by a timeout may still be running; closing must not
        # wait on them.
        self._abandoned = False
        self._submissions = 0
        self.rebuilds = 0
        self.inproc_fallbacks = 0
        self.backoff_sleeps = 0
        #: Set once a run exhausts ``MAX_REBUILDS``: a pool that keeps
        #: failing to start would otherwise restart on every later run.
        self.degraded = False

    @property
    def started(self) -> bool:
        return self._executor is not None

    def _start(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(pickle.dumps(self.state, protocol=pickle.HIGHEST_PROTOCOL),
                          {"metrics": metrics_enabled(), "trace": tracing_enabled()}),
            )
        return self._executor

    def _backoff(self, attempt: int) -> None:
        """Sleep before rebuild ``attempt`` (1-based): the one backoff schedule."""
        self.backoff_sleeps += 1
        counter_add(f"{self.name}.backoff_sleeps")
        sleep(min(BACKOFF_MAX_S, BACKOFF_BASE_S * 2 ** (attempt - 1)))

    def stop(self, wait: bool = True) -> None:
        """Stop the workers.

        The next task starts fresh workers, which receive the state as it is
        then — how a caller changes the worker state between runs.  A
        degraded pool tries workers again.
        """
        self.degraded = False
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait and not self._abandoned, cancel_futures=True)
        self._abandoned = False

    # ------------------------------------------------------------------
    def run(
        self,
        fn: Callable,
        tasks: Dict[Hashable, tuple],
        on_result: Optional[Callable[[Hashable, object], None]] = None,
        meanwhile: Optional[Callable[[], None]] = None,
    ) -> Dict[Hashable, object]:
        """Run ``fn(state, *args)`` for every ``task_id -> args``; results by id.

        ``on_result(task_id, result)`` is called in the parent as each task
        completes, whichever path produced it.  ``meanwhile()`` runs in the
        parent once the tasks are submitted, before their results are
        collected.  Task ids are stable across resubmissions.
        """
        results: Dict[Hashable, object] = {}
        futures: Dict[Future, Hashable] = {}
        deadlines: Dict[Future, float] = {}

        def finish(task_id: Hashable, value: object) -> None:
            results[task_id] = value
            if on_result is not None:
                on_result(task_id, value)

        def inproc(task_id: Hashable) -> None:
            self.inproc_fallbacks += 1
            counter_add(f"{self.name}.inproc_fallbacks")
            finish(task_id, fn(self.state, *tasks[task_id]))

        def submit(task_id: Hashable) -> None:
            executor = self._start()
            self._submissions += 1
            faults = () if not self.faults else tuple(
                (spec.kind, spec.param) for spec in self.faults.for_request(self._submissions))
            future = executor.submit(_run_task, fn, tasks[task_id], faults)
            futures[future] = task_id
            if self.task_timeout is not None:
                deadlines[future] = monotonic() + self.task_timeout

        def degrade(task_ids) -> Dict[Hashable, object]:
            self.degraded = True
            with trace_span(f"{self.name}.degraded", tasks=len(task_ids)):
                for task_id in task_ids:
                    inproc(task_id)
            return results

        if self.degraded:
            if meanwhile is not None:
                meanwhile()
            return degrade(list(tasks))

        def settle(future: Future, timeout: Optional[float] = None) -> bool:
            """Take one future's outcome; True when it was lost with the pool."""
            task_id = futures.pop(future)
            deadlines.pop(future, None)
            try:
                value, worker_obs = future.result(timeout=timeout)
            except BrokenExecutor:
                lost.append(task_id)
                return True
            except Exception:
                # The task failed but the pool survived (an injected
                # MemoryError, a poisoned input): only this task moves to
                # the parent, where a repeat failure cannot take a worker
                # down with it.
                inproc(task_id)
            else:
                merge_obs_snapshot(worker_obs)
                finish(task_id, value)
            return False

        retried = set()
        lost = list(tasks)
        rebuilds = 0
        while True:
            broken = False
            try:  # a pool that cannot start or take a task counts as broken
                while lost:
                    submit(lost[0])
                    lost.pop(0)
            except (OSError, RuntimeError):  # BrokenExecutor is a RuntimeError
                broken = True
            if meanwhile is not None:
                meanwhile()
                meanwhile = None
            while futures and not broken:
                timeout = None
                if deadlines:
                    timeout = max(0.0, min(deadlines.values()) - monotonic())
                done, _ = wait(list(futures), timeout=timeout, return_when=FIRST_COMPLETED)
                broken = any([settle(future) for future in done])  # settle every one
                if broken:
                    break
                now = monotonic()
                for future in [f for f, due in deadlines.items() if due <= now]:
                    task_id = futures.pop(future)
                    del deadlines[future]
                    future.cancel()  # a no-op once running; its late result is dropped
                    self._abandoned = True
                    counter_add(f"{self.name}.task_timeouts")
                    if task_id in retried:
                        inproc(task_id)
                        continue
                    retried.add(task_id)
                    counter_add(f"{self.name}.task_retries")
                    try:
                        submit(task_id)
                    except (OSError, RuntimeError):
                        lost.append(task_id)
                        broken = True
            if not broken:
                return results
            # Keep every result that finished before the pool broke.
            for future in list(futures):
                settle(future, timeout=_SALVAGE_TIMEOUT_S)
            self.stop(wait=False)
            rebuilds += 1
            if rebuilds > MAX_REBUILDS:
                return degrade(lost)
            self._backoff(rebuilds)
            self.rebuilds += 1
            counter_add(f"{self.name}.pool_rebuilds")

    # ------------------------------------------------------------------
    def drill(self, kind: str) -> None:
        """Run one fault drill through the pool, starting it if needed.

        ``kill-worker`` hard-exits whichever worker picks the drill up (the
        next :meth:`run` finds the pool broken and rebuilds it);
        ``oom-worker`` raises ``MemoryError`` in a worker and returns once
        the pool has absorbed it.  A degraded pool has no workers to drill.
        """
        counter_add(f"{self.name}.drills")
        if self.degraded:
            return
        try:
            future = self._start().submit(_run_task, _noop, (), ((kind, 0.0),))
            if kind == "oom-worker":
                future.result()
        except (MemoryError, BrokenExecutor):
            pass  # absorbed, or a kill drill landed first; the next run rebuilds

    def close(self) -> None:
        """Stop the workers (idempotent).

        Safe after a worker crash: a broken pool shuts down without error.
        """
        self.stop()

    def __enter__(self) -> "ResilientPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

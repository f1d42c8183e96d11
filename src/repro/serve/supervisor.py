"""Engine supervision: worker-pool babysitting and zero-downtime hot swap.

The :class:`EngineSupervisor` owns everything between the HTTP layer and the
evaluator: the current :class:`~repro.parallel.serve.ShardedQueryServer`
(whose :class:`~repro.parallel.pool.ResilientPool` rebuilds itself after a
worker crash), the optional answer cache in front of it, the fault drills,
and the **generation** machinery that lets an admin endpoint swap in a new
engine while in-flight queries finish on the old one.

Swap protocol (the zero-downtime invariant):

1. every evaluation pins the current :class:`EngineState` and bumps its
   ``inflight`` count under the supervisor lock before touching the engine;
2. ``swap()`` builds the *new* state first (a failed load leaves the old
   engine serving untouched), then atomically redirects the current-state
   pointer and marks the old state retired;
3. a retired state is closed — pool shut down, shared segments unlinked —
   only when its ``inflight`` drains to zero, by whichever request releases
   the last pin.  Queries racing the swap therefore complete on whichever
   engine they pinned; none observe a half-closed pool.

Pool use is serialized per state: the sharded server's rebuild/replay
machinery mutates pool state and is not re-entrant, so concurrent requests
take the state's evaluation lock around the fan-out.  Parallelism still
comes from the pool itself (chunks of one batch fan across all workers) and
from the thread-safe answer cache, which serves hits without the lock.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Union

import numpy as np

from ..engine.batch import BatchQueryResult, QueryInput
from ..engine.cache import CachedEngine
from ..engine.flat import FlatPSD
from ..obs import counter_add, trace_span
from ..parallel.serve import DEFAULT_CHUNK_QUERIES, ShardedQueryServer

__all__ = ["EngineState", "EngineSupervisor"]


class EngineState:
    """One engine generation: the engine, its server, and its pin count."""

    def __init__(self, engine: FlatPSD, server: ShardedQueryServer,
                 cached: Optional[CachedEngine], generation: int) -> None:
        self.engine = engine
        self.server = server
        self.cached = cached
        self.generation = generation
        self.inflight = 0
        self.retired = False
        #: Serializes pool fan-out (rebuild/replay is not re-entrant).
        self.eval_lock = threading.Lock()

    def close(self) -> None:
        self.server.close()


class EngineSupervisor:
    """Owns the serving engine across worker crashes and hot swaps.

    Parameters
    ----------
    engine:
        The initial compiled engine.
    workers:
        Pool size per engine state (``None``/negative: all cores; 1 serves
        in-process with no pool at all).
    chunk_queries:
        Queries per fanned-out chunk.
    max_rebuilds:
        Pool rebuilds allowed per batch before in-process fallback.
    cache_size:
        LRU answer-cache capacity in front of the pool (0 disables it).
    """

    def __init__(
        self,
        engine: FlatPSD,
        workers: Optional[int] = None,
        chunk_queries: int = DEFAULT_CHUNK_QUERIES,
        max_rebuilds: int = 3,
        cache_size: int = 0,
    ) -> None:
        self.workers = workers
        self.chunk_queries = int(chunk_queries)
        self.max_rebuilds = int(max_rebuilds)
        self.cache_size = int(cache_size)
        self._lock = threading.Lock()
        self._retired: List[EngineState] = []
        self._state = self._make_state(engine, generation=1)

    # ------------------------------------------------------------------
    def _make_state(self, engine: FlatPSD, generation: int) -> EngineState:
        server = ShardedQueryServer(
            engine,
            workers=self.workers,
            chunk_queries=self.chunk_queries,
            max_rebuilds=self.max_rebuilds,
        )
        cached: Optional[CachedEngine] = None
        state = EngineState(engine, server, cached, generation)

        if self.cache_size > 0:
            def locked_eval(rows: np.ndarray) -> BatchQueryResult:
                with state.eval_lock:
                    return server.batch_query(rows)

            state.cached = CachedEngine(engine, maxsize=self.cache_size,
                                        evaluator=locked_eval)
        return state

    # ------------------------------------------------------------------
    # Pin / release (the zero-downtime refcount)
    # ------------------------------------------------------------------
    def _acquire(self) -> EngineState:
        with self._lock:
            state = self._state
            state.inflight += 1
            return state

    def _release(self, state: EngineState) -> None:
        close_now = False
        with self._lock:
            state.inflight -= 1
            if state.retired and state.inflight == 0:
                close_now = True
                if state in self._retired:
                    self._retired.remove(state)
        if close_now:
            # Outside the lock: closing a pool blocks on worker shutdown.
            state.close()

    # ------------------------------------------------------------------
    def evaluate(
        self,
        queries: Union[np.ndarray, "list[QueryInput]"],
        use_uniformity: bool = True,
    ) -> BatchQueryResult:
        """Evaluate a batch on whichever engine generation is current.

        The generation is pinned for the whole evaluation, so a concurrent
        :meth:`swap` never closes the pool under a running query.
        """
        state = self._acquire()
        try:
            with trace_span("serve.evaluate", generation=state.generation):
                if state.cached is not None and use_uniformity:
                    return state.cached.batch_query(queries)
                with state.eval_lock:
                    return state.server.batch_query(queries, use_uniformity=use_uniformity)
        finally:
            self._release(state)

    # ------------------------------------------------------------------
    def swap(self, engine: FlatPSD) -> int:
        """Atomically switch serving to ``engine``; returns the new generation.

        The new state is built *before* the pointer moves, so a failure here
        leaves the old engine serving.  The old state drains: in-flight
        queries finish on it, and the last one out closes its pool and
        unlinks its segments.
        """
        with self._lock:
            generation = self._state.generation + 1
        new_state = self._make_state(engine, generation)
        with self._lock:
            old, self._state = self._state, new_state
            old.retired = True
            drain = old.inflight == 0
            if not drain:
                self._retired.append(old)
        if drain:
            old.close()
        counter_add("serve.hot_swaps")
        return generation

    # ------------------------------------------------------------------
    # Deterministic fault entry points
    # ------------------------------------------------------------------
    def _drill(self, kind: str) -> None:
        state = self._acquire()
        try:
            if state.server.workers > 1:
                with state.eval_lock:
                    state.server._pool.drill(kind)
        finally:
            self._release(state)

    def kill_worker(self) -> None:
        """Crash one pool worker of the current generation (fault injection)."""
        self._drill("kill-worker")

    def inject_oom(self) -> None:
        """Run a MemoryError-raising task through the pool; the pool survives.

        Deterministically exercises the worker-task-exception path: the task
        fails in a worker, the parent absorbs the ``MemoryError``, and the
        pool keeps serving.  A no-op for in-process serving (no pool).
        """
        self._drill("oom-worker")

    # ------------------------------------------------------------------
    @property
    def engine(self) -> FlatPSD:
        with self._lock:
            return self._state.engine

    @property
    def generation(self) -> int:
        with self._lock:
            return self._state.generation

    def stats(self) -> Dict[str, object]:
        """Supervision counters plus the current server's own stats."""
        with self._lock:
            state = self._state
            retired_open = len(self._retired)
        out: Dict[str, object] = {
            "generation": state.generation,
            "inflight": state.inflight,
            "retired_draining": retired_open,
            "backoff_sleeps": state.server._pool.backoff_sleeps,
            "server": state.server.stats(),
        }
        if state.cached is not None:
            out["cache"] = state.cached.stats()
        return out

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the current state and any retired states still draining."""
        with self._lock:
            states = [self._state] + list(self._retired)
            self._retired.clear()
        for state in states:
            state.close()

    def __enter__(self) -> "EngineSupervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
